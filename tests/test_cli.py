import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stampbase import cli

from frozen import CENSUS, PERIODIC_SEEDS, PLAIN_SEGMENTS, STOHR_EXAMPLE

ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """Environment for a new process that imports stampbase from this checkout.

    ``src`` goes first on the child's ``PYTHONPATH`` (any inherited value
    after it), so the child does not depend on the working directory or
    on an installed copy of the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_child(argv, cwd):
    return subprocess.run(
        argv, capture_output=True, text=True, timeout=60, env=child_env(), cwd=cwd,
    )


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_range_admissible(capsys):
    code, out, err = run_cli(capsys, "range", "1,3,4,6,11")
    assert code == 0 and err == ""
    assert out == "n=12 admissible=true\n"


def test_range_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "range", "1,2,8")
    assert code == 0
    assert out == "n=4 admissible=false\n"


def test_range_parse_error(capsys):
    code, out, err = run_cli(capsys, "range", "1,2,oops")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_check_all_predicates_pass(capsys):
    code, out, _ = run_cli(
        capsys, "check", "1,3,4,5,8", "6",
        "--p-basis", "--extensible", "--symmetricisable",
    )
    assert code == 0
    report = json.loads(out)
    assert report["basis"] == [1, 3, 4, 5, 8]
    assert report["p_basis"] is True
    assert report["extension"]["extensible"] is True
    assert report["symmetricisability"]["symmetricisable"] is True
    assert report["symmetricisability"]["m0"] == 2


def test_check_failing_predicate_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check", "1,3,4,7", "5", "--extensible")
    assert code == 1
    report = json.loads(out)
    assert report["extension"]["extensible"] is False
    assert report["extension"]["s"] == 0


def test_check_profile_is_informational(capsys):
    elements, p, profile = (
        "1,2,4,5,9,12,13,17,20,21,22,24,25", 14, [True, False, False],
    )
    code, out, _ = run_cli(capsys, "check", elements, str(p), "--profile")
    assert code == 0  # profile alone asserts nothing
    assert json.loads(out)["symmetricisability"]["profile"] == profile

    code, out, _ = run_cli(
        capsys, "check", elements, str(p), "--symmetricisable",
    )
    assert code == 1


def test_check_plus_dispatch_on_p_elements(capsys):
    code, out, _ = run_cli(
        capsys, "check", "1,2,3,4,9", "5", "--symmetricisable",
    )
    assert code == 0
    assert json.loads(out)["symmetricisability"]["symmetricisable"] is True


def test_check_needs_a_predicate(capsys):
    code, out, err = run_cli(capsys, "check", "1,2", "3")
    assert code == 2 and out == ""
    assert "nothing to check" in err


def test_check_precondition_error(capsys):
    code, _, err = run_cli(capsys, "check", "1,2,3", "6", "--symmetricisable")
    assert code == 2
    assert err.startswith("error:")


def test_enumerate_stream(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "7", "--classify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    records = [json.loads(line) for line in lines[:-1]]
    assert [rec["basis"] for rec in records] == sorted(rec["basis"] for rec in records)
    assert json.loads(lines[-1]) == {
        "p": 7, "mode": "plain", "n_p": 6, "n_e": 2, "n_s": 2,
    }


def test_enumerate_plus_mode(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "6", "--mode", "plus")
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["n_plus"] == 15 and len(lines) == 16


def test_enumerate_budget_exit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "10", "--node-budget", "50")
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["enumerate", "12"], ["tables", "3"]])
def test_node_budget_with_threads_rejected(capsys, argv):
    code, out, err = run_cli(
        capsys, *argv, "--threads", "2", "--node-budget", "50",
    )
    assert (code, out) == (2, "")
    assert "single-threaded" in err


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    with subprocess.Popen(
        [sys.executable, "-m", "stampbase", "enumerate", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=tmp_path,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert json.loads(first)["p"] == 14
    assert proc.returncode == 141
    assert err == b""


def test_enumerate_to_file(tmp_path, capsys):
    out_file = tmp_path / "p8.jsonl"
    code, out, _ = run_cli(
        capsys, "enumerate", "8", "--classify", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out)["n_p"] == CENSUS[8]
    assert len(out_file.read_text().splitlines()) == CENSUS[8]


def test_enumerate_checkpoint_resume_round_trip(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    assert run_cli(capsys, "enumerate", "10", "--classify", "--out", str(ref))[0] == 0

    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "ckpt.json"
    code, _, err = run_cli(
        capsys, "enumerate", "10", "--classify",
        "--out", str(out), "--checkpoint", str(ckpt),
        "--checkpoint-every", "20", "--node-budget", "300",
    )
    assert code == 3 and ckpt.exists()

    code, _, _ = run_cli(
        capsys, "enumerate", "10", "--classify",
        "--out", str(out), "--checkpoint", str(ckpt), "--resume",
        "--checkpoint-every", "20",
    )
    assert code == 0
    assert out.read_bytes() == ref.read_bytes()
    assert not ckpt.exists()


def test_enumerate_resume_rejects_corrupt_cursors(tmp_path, capsys):
    ckpt = tmp_path / "p8.ckpt"
    out = tmp_path / "p8.jsonl"
    out.write_text("")
    ckpt.write_text(json.dumps({
        "p": 8, "prefix": [1, 3], "cursors": [0, 0], "visited": 2,
        "partial_stats": {"mode": "plain", "classify": False, "count": 0},
    }))
    code, _, err = run_cli(
        capsys, "enumerate", "8", "--out", str(out),
        "--checkpoint", str(ckpt), "--resume",
    )
    assert code == 2
    assert "corrupt state" in err
    assert out.read_text() == ""


def test_enumerate_resume_without_checkpoint(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "8",
        "--out", str(tmp_path / "x.jsonl"),
        "--checkpoint", str(tmp_path / "missing.json"), "--resume",
    )
    assert code == 2
    assert "checkpoint" in err


def test_tables_census(capsys):
    code, out, _ = run_cli(capsys, "tables", "1", "--p-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,n_p,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [CENSUS[p] for p in range(3, 9)]
    assert rows[0][2] == "" and rows[1][2] == "1.00"


def test_tables_classification(capsys):
    code, out, _ = run_cli(capsys, "tables", "3", "--p-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,n_p,n_e,n_s,pct_e,pct_s"
    last = lines[-1].split(",")
    assert last[:4] == ["10", "84", "15", "15"]


def test_tables_segments(capsys):
    code, out, _ = run_cli(capsys, "tables", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k_min,k_max,range,p"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert rows == PLAIN_SEGMENTS


def test_tables_wide_format(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "5", "--p-max", "8", "--k-max", "16",
        "--format", "wide",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,5,6,7,8"
    grid = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
    assert grid[8] == ["16", "", "", ""]
    assert grid[16] == ["96", "104", "92", "80"]


def test_tables_wide_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "tables", "1", "--format", "wide")
    assert code == 2
    assert "wide" in err


def test_tables_budget_writes_nothing(tmp_path, capsys):
    out_file = tmp_path / "census.csv"
    code, out, err = run_cli(
        capsys, "tables", "1", "--p-max", "12",
        "--node-budget", "50", "--out", str(out_file),
    )
    assert code == 3 and out == ""
    assert err.startswith("error:")
    assert not out_file.exists()


def test_tables_to_file(tmp_path, capsys):
    out_file = tmp_path / "dist.csv"
    code, out, _ = run_cli(
        capsys, "tables", "10", "--p-max", "8", "--out", str(out_file),
    )
    assert code == 0 and out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "tail,n_p,n_e,n_s"
    assert lines[1] == "7,1,1,1"


def test_tables_chart_series(capsys):
    code, out, _ = run_cli(capsys, "tables", "12", "--p-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tail,n_p"
    assert lines[1] == "7,1"


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("STAMPBASE_THREADS", "4")
    args = cli.build_parser().parse_args(["enumerate", "9"])
    assert args.threads == 4
    monkeypatch.setenv("STAMPBASE_THREADS", "not-a-number")
    args = cli.build_parser().parse_args(["tables", "1"])
    assert args.threads == 1


def test_stohr_terms(capsys):
    seed, terms = STOHR_EXAMPLE
    code, out, _ = run_cli(
        capsys, "stohr", ",".join(map(str, seed)), "--count", str(len(terms)),
    )
    assert code == 0
    assert out.strip() == ",".join(map(str, terms))


def test_stohr_zero_terms(capsys):
    code, out, _ = run_cli(capsys, "stohr", "1,2", "--count", "0")
    assert code == 0 and out == ""


def test_stohr_scan_period(capsys):
    elements, p, pattern = PERIODIC_SEEDS[0]
    code, out, _ = run_cli(
        capsys, "stohr", ",".join(map(str, elements)), "--scan-period",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pattern"] == list(pattern)
    assert sum(pattern) / len(pattern) == p


def test_stohr_scan_window_too_small(capsys):
    elements, _, _ = PERIODIC_SEEDS[0]
    code, out, _ = run_cli(
        capsys, "stohr", ",".join(map(str, elements)),
        "--scan-period", "--max-terms", "5",
    )
    assert code == 1
    assert out.strip() == "null"


def test_console_script_round_trip(tmp_path):
    """The ``stampbase`` entry point declared in pyproject.toml works.

    Runs what pip's generated wrapper runs, so the declared module and
    function and main's exit code are checked without an install.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["stampbase"]
    module, func = entry.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'stampbase'\n"
        f"sys.exit({func}())\n"
    )
    proc = run_child(
        [sys.executable, "-c", wrapper, "range", "1,3,4,6,11"], tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n=12 admissible=true\n"


@pytest.mark.skipif(
    shutil.which("stampbase") is None,
    reason="stampbase console script not installed",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["stampbase", "range", "1,3,4,6,11"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n=12 admissible=true\n"


@pytest.mark.parametrize("elements, code, out, err", [
    ("1,3,4,6,11", 0, "n=12 admissible=true\n", ""),
    ("1,2,oops", 2, "", "error:"),
], ids=["admissible", "parse-error"])
def test_module_entry_round_trip(tmp_path, elements, code, out, err):
    proc = run_child(
        [sys.executable, "-m", "stampbase", "range", elements], tmp_path,
    )
    assert proc.returncode == code
    assert proc.stdout == out
    if err:
        assert proc.stderr.startswith(err)
    else:
        assert proc.stderr == ""

import csv
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stampbase import cli, maxima_record, range_table, tail_distribution
from stampbase.search import BasisDFS, BudgetExceededError

from frozen import (
    CENSUS, CLASSIFICATION, MAXIMAL_PLAIN, MAXIMAL_PLAIN_TAILS, MAXIMAL_PLUS,
    MAXIMAL_PLUS_P12_COUNT, MAXIMAL_PLUS_TAILS, PERIODIC_SEEDS, PLAIN_GRID,
    PLAIN_SEGMENTS, PLUS_SEGMENTS, RANGE_COMPARISON, STOHR_EXAMPLE,
)

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


def test_range_over_the_digit_limit_exits_2(capsys):
    # from CPython 3.11 (and 3.10.7) on, int() converts no more digits than this limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    code, out, err = run_cli(capsys, "range", "1," + "9" * (limit + 1))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("part", ["9" * 5000, "x" * 5000], ids=["nines", "letters"])
def test_range_parse_error_is_one_short_line(capsys, part):
    # the message names the bad part and quotes the start of it, not the whole input
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if part.isdigit() and not 0 < limit < len(part):
        pytest.skip("this Python converts integers of 5,000 digits")
    code, out, err = run_cli(capsys, "range", "1," + part)
    assert code == 2 and out == ""
    assert err.startswith("error: unparseable basis text")
    assert err.count("\n") == 1 and len(err) < 200


# a gap far above any element's reach is answered without a bitmask as wide as the gap
def test_range_with_a_huge_gap(capsys):
    code, out, err = run_cli(capsys, "range", f"1,{10**30}")
    assert (code, out, err) == (0, "n=2 admissible=false\n", "")


def test_check_extensible_with_a_huge_gap(capsys):
    code, out, err = run_cli(capsys, "check", f"1,3,{10**30}", "5", "--extensible")
    assert (code, err) == (1, "")
    assert json.loads(out)["extension"] == {
        "extensible": False, "k_star": 2 * 10**29 - 1, "s": -1, "residues_complete": False}


def test_stohr_with_a_huge_gap(capsys):
    code, out, err = run_cli(capsys, "stohr", f"1,{10**30}")
    assert code == 2 and out == ""
    assert err == "error: greedy continuation needs an admissible seed\n"


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

    # the same report, with its verdict counted
    code, sym_out, _ = run_cli(
        capsys, "check", elements, str(p), "--symmetricisable",
    )
    assert code == 1
    assert sym_out == out


def test_check_plus_dispatch_on_p_elements(capsys):
    code, out, _ = run_cli(
        capsys, "check", "1,2,3,4,9", "5", "--symmetricisable",
    )
    assert code == 0
    assert json.loads(out)["symmetricisability"]["symmetricisable"] is True

    # 1, 2, 3, 8 is no 5-basis (3 and 8 share a residue), so there is nothing to decide
    code, out, err = run_cli(capsys, "check", "1,2,3,8,9", "5", "--symmetricisable")
    assert (code, out) == (2, "")
    assert err.startswith("error: symmetricisability is defined for a p-basis")


def test_check_needs_a_predicate(capsys):
    code, out, err = run_cli(capsys, "check", "1,2", "3")
    assert code == 2 and out == ""
    assert "nothing to check" in err


@pytest.mark.parametrize("p, flag, floor", [
    ("1", "--symmetricisable", 3), ("2", "--profile", 3), ("2", "--p-basis", 3),
    ("0", "--extensible", 2), ("-3", "--extensible", 2), ("2", "--symmetricisable", 3),
])
def test_check_p_below_a_predicates_floor(capsys, p, flag, floor):
    # the message names p and the flag that needs more, not a procedure that was not asked for
    code, out, err = run_cli(capsys, "check", "1,2", p, flag)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} needs p >= {floor}, got {p}\n"


def test_check_extensible_at_p_2(capsys):
    code, out, err = run_cli(capsys, "check", "1,3,4", "2", "--extensible")
    assert (code, err) == (0, "")
    assert json.loads(out)["extension"]["extensible"] is True


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
    # a record stream that can stop part way runs serially; a table counts the serial walk's
    # nodes at any thread count
    code, out, err = pooled = run_cli(
        capsys, *argv, "--threads", "2", "--node-budget", "50",
    )
    if argv[0] == "enumerate":
        assert (code, out) == (2, "")
        assert "single-threaded" in err
    else:
        assert pooled == run_cli(capsys, *argv, "--threads", "1", "--node-budget", "50")


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


def test_a_killed_stream_resumes_to_the_same_bytes(tmp_path):
    # a real process at the default cadence, killed as soon as its first checkpoint is there,
    # usually with lines in the file that the checkpoint does not count yet
    argv = [sys.executable, "-m", "stampbase", "enumerate", "16", "--classify"]
    fresh = run_child([*argv, "--out", "fresh.jsonl"], tmp_path)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    out, ckpt = tmp_path / "o.jsonl", tmp_path / "c.json"
    argv += ["--out", str(out), "--checkpoint", str(ckpt)]
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env(), cwd=tmp_path) as child:
        deadline = time.monotonic() + 60
        while not ckpt.exists() and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        child.kill()
    assert child.returncode == -signal.SIGKILL, "the run ended before its first checkpoint"
    assert ckpt.exists()
    resumed = run_child([*argv, "--resume"], tmp_path)
    assert (resumed.returncode, resumed.stdout, resumed.stderr) == (0, fresh.stdout, "")
    assert out.read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
    assert not ckpt.exists()


@pytest.mark.parametrize("p, mode", [(10, "plain"), (8, "plus")])
def test_enumerate_resumes_from_a_hand_written_leaf_checkpoint(tmp_path, capsys, p, mode):
    # no run saves a leaf, but a checkpoint at one restarts at the leaf's parent, where
    # the kernel visits, counts and writes that leaf again, as the fresh run did
    ref, out, ckpt = tmp_path / "ref.jsonl", tmp_path / "o.jsonl", tmp_path / "c.json"
    argv = ["enumerate", str(p), "--classify", "--mode", mode]
    code, summary, _ = run_cli(capsys, *argv, "--out", str(ref))
    assert code == 0
    lines = ref.read_bytes().splitlines(keepends=True)
    dfs = BasisDFS(p, p - 1 + (mode == "plus"), constrained=p - 1)
    counts = {"count": 0, "n_e": 0, "n_s": 0}
    for i, leaf in enumerate(dfs):
        record = json.loads(lines[i])
        assert record["basis"] == list(leaf)
        out.write_bytes(b"".join(lines[:i + 1]))
        ckpt.write_text(json.dumps({
            "p": p, "prefix": list(leaf), "cursors": [c + 1 for c in leaf[1:]] + [leaf[-1] + 1],
            "visited": dfs.visited, "partial_stats": {"mode": mode, "classify": True, **counts},
        }))
        resumed = run_cli(capsys, *argv, "--out", str(out), "--checkpoint", str(ckpt), "--resume")
        assert (resumed, out.read_bytes()) == ((0, summary, ""), ref.read_bytes()), i
        counts["count"] += 1
        counts["n_e"] += record["extensible"]
        counts["n_s"] += record["symmetricisable"]
    assert counts["count"] == len(lines)


@pytest.mark.parametrize("frontier", [
    pytest.param({"prefix": [1, 3], "cursors": [0, 0]}, id="zero-cursors"),
    pytest.param({"prefix": 5}, id="not-a-list"),
    pytest.param({"prefix": [], "cursors": []}, id="empty"),
])
def test_enumerate_resume_rejects_corrupt_cursors(tmp_path, capsys, frontier):
    ckpt = tmp_path / "p8.ckpt"
    out = tmp_path / "p8.jsonl"
    argv = ["enumerate", "8", "--out", str(out), "--checkpoint", str(ckpt),
            "--checkpoint-every", "10"]
    assert run_cli(capsys, *argv, "--node-budget", "40")[0] == 3
    ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), **frontier}))
    records = out.read_bytes()
    code, out_text, err = run_cli(capsys, *argv, "--resume")
    assert (code, out_text) == (2, "")
    assert "corrupt state" in err
    assert out.read_bytes() == records


def _budget_aborted_p9(capsys, tmp_path):
    """argv and record-file lines of `enumerate 9` stopped by a budget after checkpoints."""
    out, ckpt = tmp_path / "o.jsonl", tmp_path / "c.json"
    argv = ["enumerate", "9", "--out", str(out), "--checkpoint", str(ckpt),
            "--checkpoint-every", "10"]
    assert run_cli(capsys, *argv, "--node-budget", "60")[0] == 3
    count = json.loads(ckpt.read_text())["partial_stats"]["count"]
    lines = out.read_bytes().splitlines(keepends=True)
    assert 0 < count <= len(lines)
    return argv, lines, count


def test_enumerate_resume_rejects_torn_record_file(tmp_path, capsys):
    # the last line the checkpoint counts was cut short: it is no record to keep
    argv, lines, count = _budget_aborted_p9(capsys, tmp_path)
    torn = b"".join(lines[:count - 1]) + lines[count - 1][:10]
    (tmp_path / "o.jsonl").write_bytes(torn)
    code, out_text, err = run_cli(capsys, *argv, "--resume")
    assert (code, out_text) == (2, "")
    assert err == "error: record file is shorter than the checkpoint expects\n"
    assert (tmp_path / "o.jsonl").read_bytes() == torn
    assert (tmp_path / "c.json").exists()


def test_enumerate_resume_drops_a_line_torn_after_the_checkpoint(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    assert run_cli(capsys, "enumerate", "9", "--out", str(ref))[0] == 0
    argv, lines, count = _budget_aborted_p9(capsys, tmp_path)
    (tmp_path / "o.jsonl").write_bytes(b"".join(lines[:count]) + b'{"p":9,"ba')
    assert run_cli(capsys, *argv, "--resume")[0] == 0
    assert (tmp_path / "o.jsonl").read_bytes() == ref.read_bytes()


def _stats(**changes):
    return lambda ckpt: {**ckpt, "partial_stats": {**ckpt["partial_stats"], **changes}}


@pytest.mark.parametrize("classify, corrupt", [
    pytest.param(True, _stats(count="x"), id="count-string"),
    pytest.param(True, _stats(n_e="y"), id="n_e-string"),
    pytest.param(True, _stats(count=True), id="count-bool"),
    pytest.param(True, _stats(count=None), id="count-null"),
    pytest.param(True, _stats(count=-5), id="count-negative"),
    pytest.param(True, _stats(n_s=99), id="n_s-above-n_e"),
    pytest.param(True, _stats(n_e=10**6, n_s=0), id="n_e-above-count"),
    pytest.param(True, lambda ckpt: _stats(count=ckpt["visited"] + 1)(ckpt),
                 id="count-above-visited"),
    pytest.param(False, _stats(n_e=1, n_s=1), id="flags-without-classify"),
    pytest.param(True, lambda ckpt: {**ckpt, "partial_stats": 7}, id="stats-number"),
    pytest.param(True, lambda ckpt: {**ckpt, "partial_stats": ["plain", 3]}, id="stats-list"),
    pytest.param(True, lambda ckpt: 5, id="file-number"),
    pytest.param(True, lambda ckpt: [ckpt], id="file-list"),
])
def test_enumerate_resume_rejects_corrupt_counts(tmp_path, capsys, classify, corrupt):
    out = tmp_path / "p9.jsonl"
    ckpt = tmp_path / "p9.ckpt"
    argv = ["enumerate", "9", "--out", str(out), "--checkpoint", str(ckpt),
            "--checkpoint-every", "20", *(["--classify"] if classify else [])]
    assert run_cli(capsys, *argv, "--node-budget", "120")[0] == 3
    ckpt.write_text(json.dumps(corrupt(json.loads(ckpt.read_text()))))
    records = out.read_bytes()
    code, out_text, err = run_cli(capsys, *argv, "--resume")
    assert (code, out_text) == (2, "")
    assert err.startswith("error:") and "checkpoint" in err
    assert out.read_bytes() == records


def test_enumerate_resume_over_budget_changes_nothing(tmp_path, capsys):
    # a budget means the same on a resume: the saved nodes already exceed it
    out, ckpt = tmp_path / "o.jsonl", tmp_path / "c.json"
    argv = ["enumerate", "10", "--classify", "--out", str(out), "--checkpoint", str(ckpt),
            "--checkpoint-every", "50"]
    assert run_cli(capsys, *argv, "--node-budget", "400")[0] == 3
    assert json.loads(ckpt.read_text())["visited"] == 372
    records, frontier = out.read_bytes(), ckpt.read_bytes()
    code, out_text, err = run_cli(capsys, *argv, "--node-budget", "100", "--resume")
    assert (code, out_text) == (3, "")
    assert err == "error: node budget exceeded: visited 372 > 100\n"
    assert (out.read_bytes(), ckpt.read_bytes()) == (records, frontier)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_enumerate_bad_p_leaves_the_record_file_as_it_was(tmp_path, capsys, threads):
    # a pooled run must reject p before it opens, and so empties, the record file
    out = tmp_path / "a.jsonl"
    out.write_bytes(b"keep\n")
    code, out_text, err = run_cli(capsys, "enumerate", "2", "--threads", threads, "--out", str(out))
    assert (code, out_text) == (2, "")
    assert err == "error: enumeration needs p >= 3, got 2\n"
    assert out.read_bytes() == b"keep\n"


def test_enumerate_checkpoint_needs_a_record_file(tmp_path, monkeypatch, capsys):
    # stdout cannot be cut back to a checkpoint's count, so a resume would
    # print again the records after it
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["--resume"]):
        code, out, err = run_cli(
            capsys, "enumerate", "10", "--checkpoint", "c.json",
            "--checkpoint-every", "100", "--node-budget", "250", *extra,
        )
        assert (code, out) == (2, "")
        assert err == "error: checkpointing needs a record file (--out)\n"
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("out, ckpt, extra", [
    pytest.param("same.jsonl", "same.jsonl", [], id="same"),
    pytest.param("same.jsonl", "same.jsonl", ["--node-budget", "200"], id="same-budget"),
    pytest.param("same.jsonl", "same.jsonl", ["--resume"], id="same-resume"),
    pytest.param("./same.jsonl", "same.jsonl", [], id="dot-slash"),
    pytest.param("c.json.tmp", "c.json", [], id="checkpoint-temporary"),
])
def test_enumerate_record_file_colliding_with_the_checkpoint_exits_2(
        tmp_path, monkeypatch, capsys, out, ckpt, extra):
    # the run would overwrite one file with the other, and a finished run removes the
    # checkpoint, so nothing is opened or read
    monkeypatch.chdir(tmp_path)
    (tmp_path / out).write_bytes(b"keep\n")
    code, out_text, err = run_cli(
        capsys, "enumerate", "10", "--classify", "--out", out, "--checkpoint", ckpt,
        "--checkpoint-every", "50", *extra,
    )
    assert (code, out_text) == (2, "")
    assert err == (f"error: record file {out!r} is the checkpoint {ckpt!r} "
                   "or its temporary\n")
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(out)]
    assert (tmp_path / out).read_bytes() == b"keep\n"


def test_enumerate_resume_without_checkpoint(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "8",
        "--out", str(tmp_path / "x.jsonl"),
        "--checkpoint", str(tmp_path / "missing.json"), "--resume",
    )
    assert code == 2
    assert "checkpoint" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["enumerate", "9", "--out", "sub/o.jsonl"], id="record-dir-missing"),
    pytest.param(["tables", "1", "--p-max", "8", "--out", "nodir/x.csv"], id="table-dir-missing"),
    pytest.param(["enumerate", "9", "--out", "o.jsonl", "--checkpoint", "c.json",
                  "--checkpoint-every", "10", "--resume"], id="record-file-deleted"),
    pytest.param(["enumerate", "9", "--out", "."], id="out-is-a-directory"),
    pytest.param(["enumerate", "9", "--out", "o.jsonl", "--checkpoint", "nodir/c.json",
                  "--checkpoint-every", "10"], id="checkpoint-dir-missing"),
])
def test_unopenable_paths_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    resume = "--resume" in argv
    if resume:  # a budget-aborted run, then its record file goes missing
        assert run_cli(capsys, *argv[:-1], "--node-budget", "40")[0] == 3
        os.remove("o.jsonl")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    if resume:
        assert os.path.exists("c.json")


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


@pytest.mark.parametrize("which", ["1", "2"])
def test_tables_1_and_2_trip_where_the_yield_walk_did(capsys, which):
    # every p walks afresh, so the first p whose yield walk passes the budget decides the
    # exit and its message; a budget of the last walk's size, the largest, does not trip
    def yield_walks(budget):
        for p in range(3, 10):
            try:
                list(BasisDFS(p, p - 1, node_budget=budget))
            except BudgetExceededError as err:
                return 3, f"error: {err}\n"
        return 0, ""

    last = BasisDFS(9, 8)
    list(last)
    for budget in range(1, last.visited + 1):
        code, out, err = run_cli(capsys, "tables", which, "--p-max", "9", "--node-budget",
                                 str(budget))
        assert (code, err) == yield_walks(budget), budget
        assert (out == "") == (code == 3)
    assert code == 0
    assert yield_walks(last.visited - 1)[0] == 3


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


def _pct(num, den):
    return f"{100 * num / den if den else 0.0:.1f}"


def _expected_table(which, p_max, k_max):
    """(header, rows) of table `which`, from tests/frozen.py or the library call behind it."""
    ps = range(5, p_max + 1)
    if which == 1:
        return ["p", "n_p", "ratio"], [
            [p, CENSUS[p], f"{CENSUS[p] / CENSUS[p - 1]:.2f}" if p > 3 else ""]
            for p in range(3, p_max + 1)
        ]
    if which == 2:
        rows = []
        for p in range(3, p_max + 1):
            below, equal, above = RANGE_COMPARISON[p]
            total = below + equal + above
            rows.append([p, below, _pct(below, total), equal, _pct(equal, total),
                         above, _pct(above, total)])
        return ["p", "below", "below_pct", "equal", "equal_pct", "above", "above_pct"], rows
    if which == 3:
        rows = []
        for p in ps:
            n_p, n_e, n_s = CLASSIFICATION[p]
            rows.append([p, n_p, n_e, n_s, _pct(n_e, n_p), _pct(n_s, n_e)])
        return ["p", "n_p", "n_e", "n_s", "pct_e", "pct_s"], rows
    if which in (4, 7):
        bases, tails = ((MAXIMAL_PLAIN, MAXIMAL_PLAIN_TAILS) if which == 4
                        else (MAXIMAL_PLUS, MAXIMAL_PLUS_TAILS))
        return ["p", "tail", "basis"], [
            [p, tails[p], " ".join(map(str, basis))]
            for p in ps if p in bases for basis in bases[p]
        ]
    if which in (5, 8):
        table = range_table(list(ps), k_max, mode="plain" if which == 5 else "plus")
        return ["k", "p", "range"], [[k, p, r] for (k, p), r in sorted(table.entries.items())]
    if which in (6, 9):
        segments = PLAIN_SEGMENTS if which == 6 else PLUS_SEGMENTS
        return ["k_min", "k_max", "range", "p"], [list(row) for row in segments]
    if which == 11:
        rows = []
        for p in ps:
            rec = maxima_record(p)
            rows.append([p, rec.v1, rec.v2, f"{rec.v1 / p:.2f}", f"{rec.v2 / rec.v1:.2f}"])
        return ["p", "v1", "v2", "v1_over_p", "v2_over_v1"], rows
    rows = tail_distribution(p_max).rows
    return {
        10: (["tail", "n_p", "n_e", "n_s"], [list(row) for row in rows]),
        12: (["tail", "n_p"], [[t, n_p] for t, n_p, _, _ in rows]),
        13: (["tail", "n_e", "n_s"], [[t, n_e, n_s] for t, _, n_e, n_s in rows]),
        14: (["tail", "pct_e"], [[t, _pct(n_e, n_p)] for t, n_p, n_e, _ in rows]),
        15: (["tail", "pct_s"], [[t, _pct(n_s, n_e)] for t, _, n_e, n_s in rows]),
    }[which]


@pytest.mark.parametrize("which", range(1, 16))
def test_every_table(capsys, which):
    # at the defaults, p <= 14 and k <= 40, where tests/frozen.py pins grids and segments
    code, out, err = run_cli(capsys, "tables", str(which))
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    expected_header, expected_rows = _expected_table(
        which, cli.DEFAULT_P_MAX, cli.DEFAULT_K_MAX,
    )
    assert header == expected_header
    if which == 7:  # frozen.py pins the plus-mode ties at p = 12 by their count only
        p12 = [row for row in rows if row[0] == "12"]
        assert len(p12) == MAXIMAL_PLUS_P12_COUNT
        assert {row[1] for row in p12} == {str(MAXIMAL_PLUS_TAILS[12])}
        rows = [row for row in rows if row[0] != "12"]
    if which == 5:  # frozen.py pins the printed cells of the plain grid
        cells = {(int(k), int(p)): int(r) for k, p, r in rows}
        for k, row in PLAIN_GRID.items():
            for p, value in row.items():
                assert cells.get((k, p)) == value, (k, p)
    assert rows == [[str(x) for x in row] for row in expected_rows]


def test_the_environment_sets_no_thread_count(tmp_path, monkeypatch, capsys):
    # --threads alone sizes the pool, so a run means the same in any environment
    argv = ["tables", "3", "--p-max", "8", "--node-budget", "100000"]
    alone = run_cli(capsys, *argv)
    monkeypatch.setenv("STAMPBASE_THREADS", "2")
    assert run_cli(capsys, *argv) == alone
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "enumerate", "9", "--checkpoint", "c.json", "--out", "o.jsonl")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("which", [str(n) for n in range(1, 16)])
@pytest.mark.parametrize("budget", [[], ["--node-budget", "100"], ["--node-budget", "100000"]],
                         ids=["no-budget", "tripped", "budget"])
def test_serial_tables_ignore_threads(capsys, which, budget):
    # every table's output ignores the thread count: a pooled walk counts the serial walk's
    # nodes, so a budget trips or passes as it does on one thread
    argv = ["tables", which, "--p-max", "9", *budget]
    alone = run_cli(capsys, *argv, "--threads", "1")
    assert run_cli(capsys, *argv, "--threads", "2") == alone
    assert alone[0] == (3 if budget == ["--node-budget", "100"] else 0)


@pytest.mark.parametrize("argv", [
    ["enumerate", "8", "--threads", "0"],
    ["enumerate", "8", "--threads", "-3"],
    ["tables", "1", "--threads", "0"],
    ["enumerate", "8", "--checkpoint-every", "0"],
    ["enumerate", "8", "--checkpoint-every", "-5"],
    ["enumerate", "8", "--node-budget", "-1"],
    ["tables", "1", "--node-budget", "-1"],
    ["stohr", "1,2", "--count", "-1"],
    ["stohr", "1,2", "--max-terms", "-5", "--scan-period"],
    ["stohr", "1,2", "--verify-periods", "1"],
    ["stohr", "1,2", "--verify-periods", "1", "--scan-period"],
])
def test_meaningless_numbers_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {argv[2]}: must be >= " in captured.err


@pytest.mark.parametrize("which", range(1, 16))
@pytest.mark.parametrize("option, value, floor", [("--p-max", "2", 3), ("--k-max", "-1", 0)])
def test_tables_size_limits_rejected(capsys, which, option, value, floor):
    # a p below 3 has no p-bases, and no table has a negative k
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", str(which), option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {option}: must be >= {floor}, got {value}" in captured.err


@pytest.mark.parametrize("which", range(1, 16))
@pytest.mark.parametrize("p_max", [3, 4])
def test_tables_below_their_first_p(capsys, which, p_max):
    # tables 3-9 and 11 start their rows at p = 5, and would be a header alone below it
    code, out, err = run_cli(capsys, "tables", str(which), "--p-max", str(p_max))
    if which in (3, 4, 5, 6, 7, 8, 9, 11):
        assert (code, out) == (2, "")
        assert err == f"error: table {which} starts at p = 5; --p-max must be >= 5, got {p_max}\n"
    else:
        assert (code, err) == (0, "")
        header, *rows = csv.reader(io.StringIO(out))
        expected_header, expected_rows = _expected_table(which, p_max, cli.DEFAULT_K_MAX)
        assert rows and (header, rows) == (expected_header, [[str(x) for x in row]
                                                             for row in expected_rows])


@pytest.mark.parametrize("which", range(1, 16))
def test_range_tables_below_their_first_k(capsys, which):
    # the range tables' rows start at p = 5, k = 2(p - 1) = 8, two more in plus mode; below
    # that they would be a header alone, and the other tables take no k
    first_k = {5: 8, 6: 8, 8: 10, 9: 10}.get(which)
    argv = ["tables", str(which), "--p-max", "7"]
    if first_k is None:
        assert run_cli(capsys, *argv, "--k-max", "0") == run_cli(capsys, *argv)
        return
    for k_max in (0, 3, first_k - 1):
        for extra in ([], ["--format", "wide"]) if which in (5, 8) else ([],):
            code, out, err = run_cli(capsys, *argv, "--k-max", str(k_max), *extra)
            assert (code, out) == (2, "")
            assert err == (f"error: table {which} starts at k = {first_k}; "
                           f"--k-max must be >= {first_k}, got {k_max}\n")
    code, out, err = run_cli(capsys, *argv, "--k-max", str(first_k))
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert [row[0] for row in rows] == [str(first_k)]


def test_zero_node_budget_is_a_budget(capsys):
    code, out, err = run_cli(capsys, "enumerate", "8", "--node-budget", "0")
    assert (code, out) == (3, "")
    assert err == "error: node budget exceeded: visited 1 > 0\n"


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

"""Benchmark of the stampbase command-line jobs.

Run from the repository root (the package is imported from ``src/``, so no
install is needed):

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's job runs in-process through
``stampbase.cli.main(argv)`` again and again for ``--seconds`` seconds, and
the end-to-end metrics of BENCHMARK.json are reported over the jobs
(``measure`` says which statistic each uses).  With ``--trace 1`` the
traced run in ``layers.py`` reports the per-layer metrics instead.  The
workloads, their sizes and the metric definitions are in ``spec.json``.
Every job's output is checked against the digests in ``reference.json`` and
cross-checked against the frozen paper values in ``tests/frozen.py``; a
failed check counts towards ``failed`` and does not stop the run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs, the result file with
its environment stamp and the trace spans go to ``.bench_work/``.  Without
``src/stampbase`` or ``tests/frozen.py`` the script exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 11  # fresh interpreters per run; set-up is their median
MIN_JOBS = 3


class Context:
    """What a job needs once set-up is done: the CLI, the spec, the references."""

    def __init__(self, cli, spec, references, frozen):
        self.cli = cli
        self.spec = spec
        self.references = references
        self.frozen = frozen
        self.verdicts: dict = {}  # output digests -> cross-check verdict


def load() -> Context:
    """Import stampbase from ``src/`` and load the spec, references and frozen values.

    Raises FileNotFoundError when the checkout lacks the package or the
    frozen values, so a bare benchmark directory cannot report a result.
    """
    src = ROOT / "src"
    if not (src / "stampbase" / "__init__.py").is_file():
        raise FileNotFoundError(f"no stampbase package under {src}")
    frozen_path = ROOT / "tests" / "frozen.py"
    if not frozen_path.is_file():
        raise FileNotFoundError(f"no frozen reference values at {frozen_path}")
    sys.path.insert(0, str(src))
    import stampbase.cli as cli

    module_spec = importlib.util.spec_from_file_location("frozen", frozen_path)
    frozen = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(frozen)
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return Context(cli, spec, references, frozen)


# --- one job ---------------------------------------------------------------

def job_argv(workload: dict, p: int) -> list[str]:
    return [a.format(p=p, work=WORK) for a in workload["argv"]]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    return rusage_cpu(resource.RUSAGE_SELF) + rusage_cpu(resource.RUSAGE_CHILDREN)


def execute(ctx: Context, name: str, p: int, around=None) -> dict:
    """Run one job through ``cli.main``, timing it and capturing its stdout.

    ``around`` optionally wraps the call (the tracer's root span).  Files
    the job writes are removed beforehand, so each job starts afresh.
    """
    workload = ctx.spec["workloads"][name]
    argv = job_argv(workload, p)
    out_file = WORK / workload["out_file"] if "out_file" in workload else None
    ckpt_file = WORK / workload["checkpoint_file"] if "checkpoint_file" in workload else None
    for path in (out_file, ckpt_file):
        if path is not None and path.exists():
            path.unlink()
    gc.collect()
    stdout = io.StringIO()
    rc = crash = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if around is None:
                rc = ctx.cli.main(argv)
            else:
                with around():
                    rc = ctx.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crashing job is a failed job
        crash = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cpu": cpu_seconds() - cpu0,
        "rc": rc,
        "crash": crash,
        "stdout": stdout.getvalue(),
        "out_file": out_file,
        "ckpt_file": ckpt_file,
    }


def run_job(ctx: Context, name: str, p: int, around=None) -> dict:
    """``execute`` plus the output check; ``error`` is None for a correct job."""
    res = execute(ctx, name, p, around)
    res["error"] = res["crash"] or check_job(ctx, name, p, res)
    return res


def check_job(ctx: Context, name: str, p: int, res: dict) -> str | None:
    """None when the job's output is the reference output, else the reason."""
    if res["rc"] != 0:
        return f"exit status {res['rc']}"
    text, out_file, ckpt_file = res["stdout"], res["out_file"], res["ckpt_file"]
    workload = ctx.spec["workloads"][name]
    ref = ctx.references[f"{workload['reference']}@{p}"]
    stdout_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    file_sha = None
    if out_file is not None:
        if not out_file.is_file():
            return "no record file written"
        file_sha = sha256_file(out_file)
    if ckpt_file is not None and ckpt_file.exists():
        return "checkpoint left behind by a finished run"
    key = (name, p, stdout_sha, file_sha)
    if key not in ctx.verdicts:
        verdict = None
        if stdout_sha != ref["stdout_sha256"]:
            verdict = "stdout differs from the reference"
        elif file_sha != ref["file_sha256"]:
            verdict = "record file differs from the reference"
        else:
            body = out_file.read_text(encoding="utf-8") if out_file else None
            verdict = CHECKS[workload["check"]](ctx.frozen, workload, p, text, body)
        ctx.verdicts[key] = verdict
    return ctx.verdicts[key]


def check_classification_csv(frozen, workload, p, text, body) -> str | None:
    """tables 3: one row per p, counts equal to the frozen classification."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["p", "n_p", "n_e", "n_s", "pct_e", "pct_s"]:
        return "unexpected classification header"
    if [int(r[0]) for r in rows[1:]] != list(range(workload["p_min"], p + 1)):
        return "classification rows do not cover the p range"
    for row in rows[1:]:
        q = int(row[0])
        if q in frozen.CLASSIFICATION and tuple(map(int, row[1:4])) != frozen.CLASSIFICATION[q]:
            return f"classification counts differ from frozen values at p={q}"
    return None


def check_plus_grid_csv(frozen, workload, p, text, body) -> str | None:
    """tables 8: every range 2*(2*tail + j*p) implies the frozen maximal plus tail."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["k", "p", "range"]:
        return "unexpected range-table header"
    seen = set()
    for k, q, value in (map(int, r) for r in rows[1:]):
        seen.add(q)
        j = k - 2 * (q - 1)
        twice_tail = value // 2 - j * q
        if q in frozen.MAXIMAL_PLUS_TAILS and twice_tail != 2 * frozen.MAXIMAL_PLUS_TAILS[q]:
            return f"range at (k={k}, p={q}) disagrees with the frozen plus tail"
    if seen != set(range(workload["p_min"], p + 1)):
        return "range table does not cover the p range"
    return None


def check_classified_jsonl(frozen, workload, p, text, body) -> str | None:
    """enumerate --classify: record count and flag sums equal the frozen census."""
    n = n_e = n_s = 0
    for line in body.splitlines():
        rec = json.loads(line)
        if rec["p"] != p:
            return "record with the wrong p"
        n += 1
        n_e += rec["extensible"]
        n_s += rec["symmetricisable"]
    summary = json.loads(text)
    if summary != {"p": p, "mode": "plain", "n_p": n, "n_e": n_e, "n_s": n_s}:
        return "summary line does not match the records"
    if p in frozen.CLASSIFICATION and (n, n_e, n_s) != frozen.CLASSIFICATION[p]:
        return f"record counts differ from frozen values at p={p}"
    return None


CHECKS = {
    "classification_csv": check_classification_csv,
    "plus_grid_csv": check_plus_grid_csv,
    "classified_jsonl": check_classified_jsonl,
}


# --- set-up probe ----------------------------------------------------------

def probe_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has run ``load()``.

    The child prints its monotonic clock once loaded; both processes read
    the same system-wide clock, so interpreter teardown is not counted.
    """
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


# --- end-to-end measurement ------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def measure(ctx: Context, name: str, p: int, seconds: float, rng: random.Random) -> dict:
    """Closed loop: one job after another until ``seconds`` have passed.

    The seed decides where the set-up probes fall between the jobs.  Job
    time and CPU are means over the run's jobs: this host's speed switches
    between levels for seconds at a time, and a mean moves smoothly with
    the share of the run spent at each level where a median jumps between
    levels.  The median is printed alongside.
    """
    bases = ctx.references[f"{ctx.spec['workloads'][name]['reference']}@{p}"]["bases"]
    setups, walls, cpus, errors = [], [], [], []
    probes_left = SETUP_PROBES
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_JOBS or time.perf_counter() < deadline:
        if probes_left and rng.random() < 0.5:
            setups.append(probe_setup())
            probes_left -= 1
            continue
        res = run_job(ctx, name, p)
        walls.append(res["wall"])
        cpus.append(res["cpu"])
        if res["error"]:
            errors.append(res["error"])
    setups.extend(probe_setup() for _ in range(probes_left))
    job_s = statistics.fmean(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (job_s, "s"),
        "bases_per_s": (bases / job_s, "1/s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "attempted": len(walls),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "samples": {"setup_s": setups, "job_s": walls, "cpu_s": cpus},
        "bases": bases,
    }


# --- environment and reporting ---------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout read from ``.git``, or "unavailable" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    """sha256 over ``src/`` file names and contents, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_before": list(os.getloadavg()),
    }


def describe(samples: list[float]) -> str:
    return (f"n {len(samples)}; median {statistics.median(samples):.4g}, "
            f"min {min(samples):.4g}, max {max(samples):.4g}")


def print_report(name, seed, trace, result, env) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"jobs {attempted}  failed {failed}  error_rate {failed / attempted:.4g}")
    for metric, (value, unit) in result["metrics"].items():
        extra = result["samples"].get(metric)
        note = f"  ({describe(extra)})" if extra else ""
        print(f"  {metric:<28} {value:>14.6g} {unit:<6}{note}")
    for error in sorted(set(result["errors"])):
        print(f"  error: {error}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ctx = load()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload not in ctx.spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    p = ctx.spec["workloads"][args.workload]["p"]
    rng = random.Random(args.seed)
    if args.trace:
        from layers import traced_run

        result = traced_run(ctx, args.workload, p, args.seconds, rng)
    else:
        result = measure(ctx, args.workload, p, args.seconds, rng)
    env["loadavg_after"] = list(os.getloadavg())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   **{k: v for k, v in result.items() if k != "spans"}}, fh)
    if "spans" in result:
        with open(WORK / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
    print_report(args.workload, args.seed, args.trace, result, env)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

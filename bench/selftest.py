"""Self-test of the benchmark at tiny sizes (p <= 11); it finishes in seconds.

    python3 bench/selftest.py [--seed N]

For every workload of spec.json, at the workload's self-test size, it
checks that the end-to-end run and the traced run each emit exactly the
named metrics with their units and finite values, and that no job failed,
which includes every output digest matching ``reference.json``.  It checks
that the spans of a traced job nest inside their parents with non-negative
self times, that stream and stream-parallel write byte-identical records,
and that the benchmark refuses to run (exit 2, no result) in a directory
holding only BENCHMARK.json and the benchmark's files.  Exits 0 when every
check passes and 1 otherwise, listing the failures.
"""

import argparse
import json
import math
import random
import shutil
import subprocess
import sys

from layers import LAYERS, Tracer, span_summary, traced_run
from run import BENCH, ROOT, WORK, load, measure, run_job

SECONDS = 0.5


def check_metrics(label: str, result: dict, expected: dict) -> list[str]:
    failures = []
    units = {name: unit for name, (_, unit) in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(k for k in set(units) & set(expected) if units[k] != expected[k])
        failures.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, (value, _) in result["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r} is not a finite number")
    if result["failed"] or result["attempted"] < 1:
        failures.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed: "
                        f"{sorted(set(result['errors']))}")
    return failures


def check_spans(ctx, name: str, p: int) -> list[str]:
    tracer = Tracer(job=1)
    res = run_job(ctx, name, p, around=tracer)
    self_s, problems = span_summary(tracer.spans)
    failures = [f"spans of {name}@{p}: {msg}" for msg in sorted(set(problems))]
    if res["error"]:
        failures.append(f"traced {name}@{p} failed: {res['error']}")
    roots = [span for span in tracer.spans if span[2] == 0]
    if len(roots) != 1 or roots[0][3] != "cli.main":
        failures.append(f"spans of {name}@{p}: expected one cli.main root, got {len(roots)}")
    layers_seen = {span[3].split(".")[0] for span in tracer.spans}
    if not layers_seen <= set(LAYERS):
        failures.append(f"spans of {name}@{p}: unknown layers {layers_seen - set(LAYERS)}")
    if any(value < 0 for value in self_s.values()):
        failures.append(f"spans of {name}@{p}: negative layer self time {self_s}")
    return failures


def check_stream_identity(ctx, p: int) -> list[str]:
    outputs = []
    for name in ("stream", "stream-parallel"):
        res = run_job(ctx, name, p)
        outputs.append(res["out_file"].read_bytes() if res["out_file"].is_file() else None)
    if outputs[0] is None or outputs[0] != outputs[1]:
        return [f"stream and stream-parallel records differ at p={p}"]
    return []


def check_refuses_bare_directory() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare benchmark directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ctx = load()
    WORK.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = list(ctx.spec["workloads"])
    failures = []
    if not {w["name"] for w in bench["workloads"]} <= set(names):
        failures.append("BENCHMARK.json names a workload spec.json does not define")
    rng = random.Random(args.seed)
    rng.shuffle(names)
    for name in names:
        p = ctx.spec["workloads"][name]["selftest_p"]
        try:
            failures += check_metrics(f"{name}@{p} end to end",
                                      measure(ctx, name, p, SECONDS, rng), end_to_end)
            failures += check_metrics(f"{name}@{p} traced",
                                      traced_run(ctx, name, p, SECONDS, rng), per_layer)
            failures += check_spans(ctx, name, p)
        except Exception as exc:  # a probe that crashes fails this workload, not the rest
            failures.append(f"{name}@{p}: {type(exc).__name__}: {exc}")
        print(f"checked {name}@{p}", flush=True)
    failures += check_stream_identity(ctx, ctx.spec["workloads"]["stream"]["selftest_p"])
    failures += check_refuses_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

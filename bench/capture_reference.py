"""Capture the reference digests and basis counts the benchmark checks against.

    python3 bench/capture_reference.py

Runs every workload once at its benchmark size and at its self-test size,
cross-checks the output against ``tests/frozen.py``, and writes
``bench/reference.json``.  Workloads that share a reference must produce
byte-identical output.  Run it only on a commit whose outputs are known to
be right; the file in the repository was captured at commit 31e7706.
"""

import hashlib
import json
import sys

from run import BENCH, CHECKS, WORK, execute, git_commit, load, sha256_file


def count_bases(stampbase_search, workload: dict, p: int) -> int:
    """Leaves of the exhaustive search the workload's job performs.

    Workloads without ``p_min`` search the single size p.
    """
    extra = 1 if workload["mode"] == "plus" else 0
    total = 0
    for q in range(workload.get("p_min", p), p + 1):
        total += sum(1 for _ in stampbase_search.BasisDFS(q, q - 1 + extra, constrained=q - 1))
    return total


def main() -> int:
    (BENCH / "reference.json").write_text("{}", encoding="utf-8")  # load() reads it
    ctx = load()
    import stampbase.search as search

    WORK.mkdir(exist_ok=True)
    references: dict = {}
    commit = git_commit()
    for name, workload in ctx.spec["workloads"].items():
        for p in (workload["p"], workload["selftest_p"]):
            res = execute(ctx, name, p)
            if res["crash"] or res["rc"] != 0:
                print(f"{name}@{p}: job failed: {res['crash'] or res['rc']}", file=sys.stderr)
                return 1
            body = res["out_file"].read_text(encoding="utf-8") if res["out_file"] else None
            problem = CHECKS[workload["check"]](ctx.frozen, workload, p, res["stdout"], body)
            if problem:
                print(f"{name}@{p}: {problem}", file=sys.stderr)
                return 1
            entry = {
                "stdout_sha256": hashlib.sha256(res["stdout"].encode("utf-8")).hexdigest(),
                "file_sha256": sha256_file(res["out_file"]) if res["out_file"] else None,
                "bases": count_bases(search, workload, p),
                "commit": commit,
            }
            key = f"{workload['reference']}@{p}"
            if key in references and references[key] != entry:
                print(f"{name}@{p}: output differs from the shared reference {key}",
                      file=sys.stderr)
                return 1
            references[key] = entry
            print(f"{name}@{p}: {entry}")
    (BENCH / "reference.json").write_text(
        json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

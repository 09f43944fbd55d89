"""Traced run of one workload: spans at the layer boundaries, then per-layer probes.

The layers are the stampbase modules basis, extension, symmetric, search,
optimize and cli.  The package itself is not instrumented.  For the length
of a traced job this file swaps the names through which one module calls
another (``BOUNDARIES``) for wrappers that record a span per call: job id,
span id, parent span id, name, start and end.  A span's self time is its
duration minus the time its child spans cover; the root span is
``cli.main``, so its self time is the CLI's own share of the job.  Work a
module does inside itself (the DFS steps, the coverage updates inside
``classify_raw``) belongs to the enclosing span's self time.
``search.classify_raw`` is the extension-threshold kernel, so its spans
count towards the extension layer.

Traced and untraced jobs run in pairs, in a seed-drawn order within each
pair; the median over pairs of the traced job's excess time is the tracing
overhead.  The probes then time each layer
from outside through its public functions, on the workload's own inputs:
the leaves of its largest p, captured once, with a seed-drawn sample for
the per-leaf timings.  Counts are exact and taken over all those leaves.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import itertools
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from run import ROOT, WORK, run_job, rusage_cpu

LAYERS = ("cli", "search", "optimize", "symmetric", "extension", "basis")
THREADS = 2  # the pool size stream-parallel runs with
LEAF_SAMPLE = 4000
CHECKPOINT_CALLS = 30
POOL_RUNS = 3
STARTUP_PROBES = 5
JOB_SHARE = 0.5  # share of --seconds spent on traced/untraced job pairs
MIN_PAIRS, MAX_PAIRS = 2, 6

# (calling module, name it calls through, layer of the callee)
BOUNDARIES = (
    ("cli", "classify", "search"),
    ("cli", "enumerate_p_bases", "search"),
    ("cli", "maxima_record", "search"),
    ("cli", "range_comparison_stats", "search"),
    ("cli", "run_enumeration", "search"),
    ("cli", "tail_distribution", "search"),
    ("cli", "maximal_symmetricisable", "optimize"),
    ("cli", "range_table", "optimize"),
    ("cli", "best_segments", "optimize"),
    ("optimize", "iter_classified", "search"),
    ("optimize", "iter_p_plus", "search"),
    ("optimize", "maximal_symmetricisable", "optimize"),
    ("optimize", "closure_profile", "symmetric"),
    ("search", "classify_raw", "extension"),
    ("search", "is_extensible", "extension"),
    ("search", "closure_admissible_at", "symmetric"),
    ("search", "closure_profile", "symmetric"),
    ("search", "Basis", "basis"),
    ("search", "PBasisRecord", "search"),
    ("search", "PlusBasisRecord", "search"),
    ("search", "save_checkpoint", "search"),
    ("search", "subtree_prefixes", "search"),
    ("symmetric", "Basis", "basis"),
    ("symmetric", "basis_range", "basis"),
    ("symmetric", "coverage", "basis"),
)


class Tracer:
    """Spans kept in memory as (job, id, parent, name, start, end); parent 0 is none."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        spans, stack, ids, clock, job = self.spans, self._stack, self._ids, time.perf_counter, self.job
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                # one span per item, so the consumer's work between items is not counted
                inner = fn(*args, **kwargs)
                while True:
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans.append((job, sid, parent, name, t0, clock()))
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans.append((job, sid, parent, name, t0, clock()))
        return traced

    @contextlib.contextmanager
    def __call__(self):
        """Root span ``cli.main`` with every boundary name swapped for a wrapper."""
        saved = []
        sid = next(self._ids)
        try:
            for module_name, attr, layer in BOUNDARIES:
                module = importlib.import_module(f"stampbase.{module_name}")
                if hasattr(module, attr):  # a boundary a later refactor removed has no span
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", original))
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self._stack.pop()
                self.spans.append((self.job, sid, 0, "cli.main", t0, time.perf_counter()))
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_summary(spans) -> tuple[dict, list]:
    """Self seconds per layer, and nesting problems (empty when every span nests)."""
    by_id = {span[1]: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    problems = []
    for job, sid, parent, name, t0, t1 in spans:
        if t1 < t0:
            problems.append(f"{name} ends before it starts")
        if parent:
            p_job, _, _, p_name, p0, p1 = by_id[parent]
            if p_job != job or t0 < p0 or t1 > p1:
                problems.append(f"{name} is not inside its parent {p_name}")
            covered[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    for job, sid, parent, name, t0, t1 in spans:
        own = (t1 - t0) - covered[sid]
        if own < -1e-9:
            problems.append(f"{name} has negative self time")
        self_s[name.split(".")[0]] += own
    return self_s, problems


def spans_for_file(spans) -> dict:
    """Compact form of one job's spans for the spans file, times relative to its root."""
    origin = min(span[4] for span in spans)
    return {
        "fields": ["job", "id", "parent", "name", "start_s", "end_s"],
        "spans": [[j, s, p, n, round(t0 - origin, 7), round(t1 - origin, 7)]
                  for j, s, p, n, t0, t1 in spans],
    }


def traced_jobs(ctx, name, p, seconds, rng) -> dict:
    """Pairs of untraced and traced jobs; report overhead and per-layer self times."""
    walls = {False: [], True: []}
    self_times, errors, spans_out, span_counts = [], [], None, []
    deadline = time.perf_counter() + JOB_SHARE * seconds
    pairs = 0
    while pairs < MIN_PAIRS or (pairs < MAX_PAIRS and time.perf_counter() < deadline):
        order = [False, True]
        rng.shuffle(order)
        for traced in order:
            tracer = Tracer(job=len(walls[True]) + 1) if traced else None
            res = run_job(ctx, name, p, around=tracer)
            walls[traced].append(res["wall"])
            error = res["error"]
            if traced:
                self_s, problems = span_summary(tracer.spans)
                self_times.append(self_s)
                span_counts.append(len(tracer.spans))
                if problems and not error:
                    error = f"span check: {problems[0]}"
                if spans_out is None:  # the first traced job's spans are written out
                    spans_out = spans_for_file(tracer.spans)
            if error:
                errors.append(error)
        pairs += 1
    # the two jobs of a pair ran back to back, so their ratio cancels most machine drift
    overhead = statistics.median(t / u - 1.0 for u, t in zip(walls[False], walls[True]))
    metrics = {
        "trace.overhead_pct": (100.0 * overhead, "%"),
        "trace.spans": (statistics.median(span_counts), "count"),
        "cli.self_s": (statistics.median(s["cli"] for s in self_times), "s"),
    }
    for layer in LAYERS[1:]:
        metrics[f"trace.self_s.{layer}"] = (
            statistics.median(s[layer] for s in self_times), "s")
    return {
        "attempted": len(walls[False]) + len(walls[True]),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "samples": {"job_s": walls[False], "traced_job_s": walls[True]},
        "spans": spans_out,
    }


# --- probes ----------------------------------------------------------------

def best_of(repeats: int, fn):
    """(smallest wall seconds over the repeats, result of the last call)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


class DiscardSink:
    """In-memory record sink for run_enumeration that keeps nothing."""

    def write(self, text: str) -> None:
        pass


def levels(workload: dict, p: int) -> int:
    """Search depth of the workload's leaves: p-1 elements, plus one free in plus mode."""
    return p if workload["mode"] == "plus" else p - 1


def probe_search(workload, p, leaves) -> dict:
    import stampbase.search as search

    mode = workload["mode"]
    total = levels(workload, p)
    sink_args = dict(mode=mode, classify_records=True)

    def dfs_only():
        dfs = search.BasisDFS(p, total, constrained=p - 1)
        for _ in dfs:
            pass
        return dfs.visited

    def dfs_and_classify():
        dfs = search.BasisDFS(p, total, constrained=p - 1)
        for elems in dfs:
            search.classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)

    out_path = WORK / "probe.jsonl"
    dfs_s, nodes = best_of(2, dfs_only)
    # interleaved, so a slow spell of the machine hits all three alike
    kernel_s = sink_s = file_s = float("inf")
    for _ in range(3):
        kernel_s = min(kernel_s, best_of(1, dfs_and_classify)[0])
        sink_s = min(sink_s, best_of(1, lambda: search.run_enumeration(
            p, out_stream=DiscardSink(), **sink_args))[0])
        file_s = min(file_s, best_of(1, lambda: search.run_enumeration(
            p, out_path=str(out_path), **sink_args))[0])
    bytes_out = out_path.stat().st_size
    out_path.unlink()

    # one checkpoint as the serial emitter writes it: the frontier plus partial counts
    dfs = search.BasisDFS(p, total, constrained=p - 1)
    next(dfs)
    state = dfs.state()
    state["partial_stats"] = {"mode": mode, "classify": True, "count": 1, "n_e": 0, "n_s": 0}
    ckpt_path = WORK / "probe.ckpt"
    ckpt_times = []
    for _ in range(CHECKPOINT_CALLS):
        t0 = time.perf_counter()
        search.save_checkpoint(str(ckpt_path), state)
        ckpt_times.append(time.perf_counter() - t0)
    ckpt_path.unlink()
    cadence = inspect.signature(search.run_enumeration).parameters["checkpoint_every"].default

    n = len(leaves)
    return {
        "search.nodes": (nodes, "count"),
        "search.leaves": (n, "count"),
        "search.leaf_yield": (n / nodes, "ratio"),
        "search.dfs_s": (dfs_s, "s"),
        "search.nodes_per_s": (nodes / dfs_s, "1/s"),
        "search.emit_us": (1e6 * (sink_s - kernel_s) / n, "us"),
        "search.write_s": (file_s - sink_s, "s"),
        "search.bytes_out": (bytes_out, "B"),
        "search.checkpoint_ms": (1e3 * statistics.median(ckpt_times), "ms"),
        "search.checkpoints_computed": (nodes // cadence, "count"),
    }


def probe_pool(workload, p) -> dict:
    """The parallel emitter: its subtree split, worker efficiency and parent CPU.

    Runs first in the traced run, while the process is still small, so the
    forked workers do not inherit the captured leaves and spans.
    """
    import stampbase.search as search

    total = levels(workload, p)
    sink_args = dict(mode=workload["mode"], classify_records=True)
    prefixes = []
    original = search.subtree_prefixes

    def capturing(*args, **kwargs):
        split = original(*args, **kwargs)
        prefixes[:] = split
        return split

    efficiency, parent_cpu = [], []
    search.subtree_prefixes = capturing
    try:
        for _ in range(POOL_RUNS):
            parent0 = rusage_cpu(resource.RUSAGE_SELF)
            workers0 = rusage_cpu(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            search.run_enumeration(p, out_stream=DiscardSink(), threads=THREADS, **sink_args)
            wall = time.perf_counter() - t0
            parent_cpu.append(rusage_cpu(resource.RUSAGE_SELF) - parent0)
            efficiency.append((rusage_cpu(resource.RUSAGE_CHILDREN) - workers0) / (THREADS * wall))
    finally:
        search.subtree_prefixes = original
    subtree_nodes = []
    for prefix in prefixes:
        state = {"p": p, "prefix": list(prefix), "cursors": [c + 1 for c in prefix]}
        sub = search.BasisDFS(p, total, constrained=p - 1, state=state, min_height=len(prefix))
        for _ in sub:
            pass
        subtree_nodes.append(sub.visited)
    return {
        "search.subtrees": (len(prefixes), "count"),
        "search.subtree_share.max": (max(subtree_nodes) / sum(subtree_nodes), "ratio"),
        "search.pool.efficiency": (statistics.median(efficiency), "ratio"),
        "search.pool.parent_cpu_s": (statistics.median(parent_cpu), "s"),
    }


def probe_leaf_layers(workload, p, leaves, sample) -> dict:
    """Per-leaf costs of basis, extension, symmetric and record construction."""
    from stampbase.basis import Basis, coverage
    from stampbase.extension import is_extensible
    from stampbase.search import PBasisRecord, PlusBasisRecord, classify_raw
    from stampbase.symmetric import closure_admissible_at, m_zero

    n = len(sample)
    basis_s, bases = best_of(3, lambda: [Basis(e) for e, _, _ in sample])
    coverage_s, _ = best_of(3, lambda: [coverage(e) for e, _, _ in sample])
    classify_s, flags = best_of(3, lambda: [classify_raw(e, c, m, p) for e, c, m in sample])
    extensible = [e for (e, _, _), (ext, _) in zip(sample, flags) if ext]
    closure_s, _ = best_of(
        3, lambda: [closure_admissible_at(e, p, m_zero(e[-1], p)) for e in extensible])
    if workload["mode"] == "plus":
        def records():
            return [PlusBasisRecord(basis=b, p=p, a_p=b.elements[p - 1],
                                    comparison_tail=b.tail - p, extensible=x, symmetricisable=s)
                    for b, (x, s) in zip(bases, flags)]
    else:
        def records():
            return [PBasisRecord(basis=b, p=p, tail=b.tail, extensible=x, symmetricisable=s)
                    for b, (x, s) in zip(bases, flags)]
    record_s, _ = best_of(3, records)

    # exact counts over every leaf
    steps = n_ext = n_sym = 0
    for elems, cov, mask in leaves:
        report = is_extensible(Basis(elems), p)
        steps += report.k_star if report.s is None else min(report.s + 1, report.k_star)
        n_ext += report.extensible
        n_sym += classify_raw(elems, cov, mask, p)[1]
    return {
        "search.record_us": (1e6 * record_s / n, "us"),
        "basis.construct_us": (1e6 * basis_s / n, "us"),
        "basis.coverage_us": (1e6 * coverage_s / n, "us"),
        "extension.threshold_us": (1e6 * (classify_s - closure_s) / n, "us"),
        "extension.steps": (steps, "count"),
        "extension.pass_ratio": (n_ext / len(leaves), "ratio"),
        "symmetric.closure_us": (1e6 * closure_s / max(1, len(extensible)), "us"),
        "symmetric.closures": (n_ext, "count"),
        "symmetric.pass_ratio": (n_sym / n_ext, "ratio"),
    }


def probe_optimize(ctx, workload, p) -> dict:
    from stampbase.optimize import best_segments, maximal_symmetricisable, range_table
    from stampbase.symmetric import closure_profile

    mode = workload["mode"]
    ps = list(range(workload.get("p_min", p), p + 1))
    t0 = time.perf_counter()
    maxima = {q: maximal_symmetricisable(q, mode) for q in ps}
    maximal_s = time.perf_counter() - t0
    table_s, table = best_of(
        3, lambda: range_table(ps, ctx.cli.DEFAULT_K_MAX, mode=mode, maxima=maxima))
    segments_s, _ = best_of(3, lambda: best_segments(table))
    origins = [(b, q) for q, mset in maxima.items() for b in mset.bases]
    profile_s, _ = best_of(3, lambda: [closure_profile(b, q) for b, q in origins])
    return {
        "optimize.maximal_s": (maximal_s, "s"),
        "optimize.range_table_ms": (1e3 * table_s, "ms"),
        "optimize.segments_ms": (1e3 * segments_s, "ms"),
        "symmetric.profile_ms": (1e3 * profile_s / len(origins), "ms"),
    }


def probe_cli_startup() -> float:
    """Median wall seconds of a fresh interpreter running ``range 1,3,4,6,11``."""
    code = ("import sys; sys.path.insert(0, 'src'); from stampbase.cli import main; "
            "sys.exit(main(['range', '1,3,4,6,11']))")
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
        if done.stdout.strip() != "n=12 admissible=true":
            raise RuntimeError(f"range 1,3,4,6,11 printed {done.stdout!r}")
    return statistics.median(times)


def traced_run(ctx, name: str, p: int, seconds: float, rng) -> dict:
    """The --trace 1 run: traced jobs, then the layer probes on the workload's leaves."""
    import stampbase.search as search

    workload = ctx.spec["workloads"][name]
    pool_metrics = probe_pool(workload, p)
    result = traced_jobs(ctx, name, p, seconds, rng)
    dfs = search.BasisDFS(p, levels(workload, p), constrained=p - 1)
    leaves = [(elems, dfs.leaf_cov, dfs.leaf_mask) for elems in dfs]
    sample = rng.sample(leaves, min(LEAF_SAMPLE, len(leaves)))
    metrics = result["metrics"]
    metrics.update(pool_metrics)
    # the captured leaves and spans stay alive; keep them out of the collector's scans
    gc.collect()
    gc.freeze()
    try:
        metrics.update(probe_search(workload, p, leaves))
        metrics.update(probe_leaf_layers(workload, p, leaves, sample))
        metrics.update(probe_optimize(ctx, workload, p))
    finally:
        gc.unfreeze()
    metrics["cli.startup_s"] = (probe_cli_startup(), "s")
    return result

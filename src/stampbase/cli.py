"""Command-line front end: ranges, predicate checks, enumeration, tables.

Exit codes follow one convention everywhere: 0 for success (and for
predicates that hold), 1 for a requested predicate that is false, 2 for
usage, parse or precondition problems and for files that cannot be opened,
3 for an exceeded node budget, and 141 (128 + SIGPIPE, as a shell reports
a process killed by it) when the reader of stdout goes away early, as in
``stampbase enumerate 14 | head``.
Table output is assembled in full before anything is written, so a budget
abort never leaves a partial table behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial

from .basis import Basis, BasisError, PreconditionError, basis_range, is_p_basis
from .extension import is_extensible, periodic_scan, stohr_sequence
from .optimize import best_segments, maximal_symmetricisable, range_table
from .search import (
    _CHECKPOINT_EVERY,
    BudgetExceededError,
    ClassStats,
    _pool,
    classify,
    enumerate_p_bases,
    maxima_record,
    range_comparison_stats,
    run_enumeration,
    tail_distribution,
)
from .symmetric import is_symmetricisable

DEFAULT_P_MAX = 14
DEFAULT_K_MAX = 40


def _int_at_least(low: int):
    """argparse type for integers >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _pct(x: float) -> str:
    return f"{x:.1f}"


def cmd_range(args) -> int:
    result = basis_range(Basis.parse(args.basis))
    print(f"n={result.n} admissible={'true' if result.admissible else 'false'}")
    return 0


def cmd_check(args) -> int:
    basis = Basis.parse(args.basis)
    p = args.p
    if not (args.p_basis or args.extensible or args.symmetricisable or args.profile):
        raise PreconditionError("nothing to check; pass at least one predicate flag")
    for flag, floor in (("p_basis", 3), ("extensible", 2), ("symmetricisable", 3), ("profile", 3)):
        if getattr(args, flag) and p < floor:
            raise PreconditionError(f"--{flag.replace('_', '-')} needs p >= {floor}, got {p}")
    report: dict = {"basis": list(basis.elements), "p": p}
    predicates = []
    if args.p_basis:
        verdict = is_p_basis(basis, p)
        report["p_basis"] = verdict
        predicates.append(verdict)
    if args.extensible:
        ext = is_extensible(basis, p)
        report["extension"] = ext.to_json_dict()
        predicates.append(ext.extensible)
    if args.symmetricisable or args.profile:
        sym = is_symmetricisable(basis, p)
        report["symmetricisability"] = sym.to_json_dict()
        if args.symmetricisable:
            predicates.append(sym.symmetricisable)
    print(json.dumps(report))
    return 0 if all(predicates) else 1


def cmd_enumerate(args) -> int:
    summary = run_enumeration(
        p=args.p,
        mode=args.mode,
        classify_records=args.classify,
        out_path=args.out,
        out_stream=sys.stdout,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        threads=args.threads,
        node_budget=args.node_budget,
    )
    print(json.dumps(summary))
    return 0


# A table builder maps its range of p and the parsed `tables` arguments to (header,
# rows), and passes --threads and --node-budget to every search.  It calls search and
# optimize through this module's globals, which the traced benchmark swaps.

def _census(ps, args):
    rows, prev = [], None
    for p in ps:
        n_p = enumerate_p_bases(p, node_budget=args.node_budget, threads=args.threads)
        ratio = "" if prev is None else f"{n_p / prev:.2f}"
        rows.append([p, n_p, ratio])
        prev = n_p
    return ["p", "n_p", "ratio"], rows


def _range_comparison(ps, args):
    rows = []
    for p in ps:
        st = range_comparison_stats(p, node_budget=args.node_budget, threads=args.threads)
        total = st.below + st.equal + st.above
        rows.append([
            p,
            st.below, _pct(100 * st.below / total),
            st.equal, _pct(100 * st.equal / total),
            st.above, _pct(100 * st.above / total),
        ])
    return (
        ["p", "below", "below_pct", "equal", "equal_pct", "above", "above_pct"],
        rows,
    )


def _classification(ps, args):
    rows = []
    for p in ps:
        st = classify(p, threads=args.threads, node_budget=args.node_budget)
        rows.append([p, st.n_p, st.n_e, st.n_s, _pct(st.pct_e), _pct(st.pct_s)])
    return ["p", "n_p", "n_e", "n_s", "pct_e", "pct_s"], rows


def _maximal_sets(mode, ps, args):
    rows = []
    for p in ps:
        mset = maximal_symmetricisable(p, mode, node_budget=args.node_budget,
                                       threads=args.threads)
        for basis in mset.bases:
            rows.append([p, mset.tail, " ".join(map(str, basis.elements))])
    return ["p", "tail", "basis"], rows


def _closure_ranges(mode, ps, args):
    return range_table(list(ps), args.k_max, mode=mode, node_budget=args.node_budget,
                       threads=args.threads)


def _range_grid(mode, ps, args):
    table = _closure_ranges(mode, ps, args)
    if args.format == "wide":
        ps = table.ps()
        return ["k"] + [str(p) for p in ps], [
            [k] + [table.entries.get((k, p), "") for p in ps] for k in table.ks()
        ]
    return ["k", "p", "range"], [
        [k, p, table.entries[(k, p)]] for (k, p) in sorted(table.entries)
    ]


def _segments(mode, ps, args):
    seg = best_segments(_closure_ranges(mode, ps, args))
    return ["k_min", "k_max", "range", "p"], [list(row) for row in seg.rows]


def _tail_maxima(ps, args):
    rows = []
    for p in ps:
        rec = maxima_record(p, node_budget=args.node_budget, threads=args.threads)
        rows.append([p, rec.v1, rec.v2,
                     f"{rec.ratio_v1:.2f}", f"{rec.ratio_v2:.2f}"])
    return ["p", "v1", "v2", "v1_over_p", "v2_over_v1"], rows


def _tail_columns(columns, ps, args):
    rows, dist = [], tail_distribution(args.p_max, node_budget=args.node_budget,
                                      threads=args.threads)
    for tail, *counts in dist.rows:
        st = ClassStats(dist.p, *counts)
        cells = {"tail": tail, "n_p": st.n_p, "n_e": st.n_e, "n_s": st.n_s,
                 "pct_e": _pct(st.pct_e), "pct_s": _pct(st.pct_s)}
        rows.append([cells[c] for c in columns])
    return list(columns), rows


# table number: (the first p of its rows, builder); the tail columns take --p-max alone
_TABLES = {
    1: (3, _census),
    2: (3, _range_comparison),
    3: (5, _classification),
    4: (5, partial(_maximal_sets, "plain")),
    5: (5, partial(_range_grid, "plain")),
    6: (5, partial(_segments, "plain")),
    7: (5, partial(_maximal_sets, "plus")),
    8: (5, partial(_range_grid, "plus")),
    9: (5, partial(_segments, "plus")),
    10: (3, partial(_tail_columns, ("tail", "n_p", "n_e", "n_s"))),
    11: (5, _tail_maxima),
    12: (3, partial(_tail_columns, ("tail", "n_p"))),
    13: (3, partial(_tail_columns, ("tail", "n_e", "n_s"))),
    14: (3, partial(_tail_columns, ("tail", "pct_e"))),
    15: (3, partial(_tail_columns, ("tail", "pct_s"))),
}
# the range tables' first k, 2(p - 1) at p = 5, plus two mirrored elements in plus mode
_FIRST_K = {5: 8, 6: 8, 8: 10, 9: 10}


def cmd_tables(args) -> int:
    if args.format == "wide" and args.which not in (5, 8):
        raise PreconditionError("wide format applies to the range tables (5 and 8) only")
    first_p, builder = _TABLES[args.which]
    for name, first, given in (("p", first_p, args.p_max),
                               ("k", _FIRST_K.get(args.which, 0), args.k_max)):
        if given < first:  # the table would be its header alone
            raise PreconditionError(f"table {args.which} starts at {name} = {first}; "
                                    f"--{name}-max must be >= {first}, got {given}")
    with _pool(args.threads):  # one pool serves every p
        header, rows = builder(range(first_p, args.p_max + 1), args)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stohr(args) -> int:
    basis = Basis.parse(args.basis)
    if args.scan_period:
        report = periodic_scan(basis, args.max_terms, args.verify_periods)
        if report is None:
            print("null")
            return 1
        print(json.dumps(report.to_json_dict()))
        return 0
    seq = stohr_sequence(basis, args.count)
    if seq.terms:
        print(",".join(map(str, seq.terms)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stampbase",
        description="2-stamp additive bases: ranges, p-bases, extremal tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", help="range and admissibility of a basis")
    p_range.add_argument("basis", help="comma-separated elements, e.g. 1,3,4,6,11")
    p_range.set_defaults(func=cmd_range)

    p_check = sub.add_parser("check", help="decision procedures for one basis")
    p_check.add_argument("basis")
    p_check.add_argument("p", type=int)
    p_check.add_argument("--p-basis", action="store_true", dest="p_basis",
                         help="whether the basis is a p-basis: p - 1 elements, one from each "
                              "nonzero residue class mod p, admissible")
    p_check.add_argument("--extensible", action="store_true",
                         help="whether every arithmetic extension in steps of p is admissible")
    p_check.add_argument("--symmetricisable", action="store_true",
                         help="whether the mirrored closure S_m0 is admissible, with the profile "
                              "of S_0..S_m0; the basis is a p-basis, or one with a free p-th "
                              "element on top, and extensible")
    p_check.add_argument("--profile", action="store_true",
                         help="print the --symmetricisable report without counting its verdict "
                              "toward the exit code")
    p_check.set_defaults(func=cmd_check)

    p_enum = sub.add_parser("enumerate", help="stream all p-bases as JSONL")
    p_enum.add_argument("p", type=int)
    p_enum.add_argument("--mode", choices=("plain", "plus"), default="plain")
    p_enum.add_argument("--classify", action="store_true",
                        help="attach extensible/symmetricisable flags (always on in plus mode)")
    p_enum.add_argument("--out", help="record file (default: stdout)")
    p_enum.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p_enum.add_argument("--resume", action="store_true",
                        help="continue from the checkpoint file")
    p_enum.add_argument("--checkpoint-every", type=_positive_int, default=_CHECKPOINT_EVERY,
                        dest="checkpoint_every", metavar="NODES",
                        help="nodes walked between checkpoints (default: %(default)s)")
    p_enum.add_argument("--threads", type=_positive_int, default=1)
    p_enum.add_argument("--node-budget", type=_non_negative_int, default=None,
                        dest="node_budget")
    p_enum.set_defaults(func=cmd_enumerate)

    p_tables = sub.add_parser("tables", help="emit a census or extremal table")
    p_tables.add_argument("which", type=int, choices=_TABLES,
                          help="table number")
    p_tables.add_argument("--p-max", type=_int_at_least(3), default=DEFAULT_P_MAX,
                          dest="p_max")
    p_tables.add_argument("--k-max", type=_non_negative_int, default=DEFAULT_K_MAX,
                          dest="k_max")
    p_tables.add_argument("--format", choices=("csv", "wide"), default="csv")
    p_tables.add_argument("--out")
    p_tables.add_argument("--threads", type=_positive_int, default=1,
                          help="worker processes for every search the table runs")
    p_tables.add_argument("--node-budget", type=_non_negative_int, default=None,
                          dest="node_budget")
    p_tables.set_defaults(func=cmd_tables)

    p_stohr = sub.add_parser("stohr", help="greedy continuation of a basis")
    p_stohr.add_argument("basis")
    p_stohr.add_argument("--count", type=_non_negative_int, default=10,
                         help="number of greedy terms to print")
    p_stohr.add_argument("--scan-period", action="store_true",
                         dest="scan_period",
                         help="report periodicity of the greedy increments")
    p_stohr.add_argument("--max-terms", type=_non_negative_int, default=200, dest="max_terms")
    p_stohr.add_argument("--verify-periods", type=_int_at_least(2), default=3,
                         dest="verify_periods")
    p_stohr.set_defaults(func=cmd_stohr)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed pipe is caught below and not at exit
        return code
    except BrokenPipeError:  # an OSError, so caught before the clause below
        # whatever is still buffered goes nowhere, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (BasisError, PreconditionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

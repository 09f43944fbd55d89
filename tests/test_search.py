import json
import os
import pickle
import tempfile
from collections import Counter, defaultdict
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stampbase
from stampbase import search
from stampbase.basis import Basis, PreconditionError, basis_range, coverage
from stampbase.extension import is_extensible
from stampbase.optimize import maximal_symmetricisable
from stampbase.search import (
    BasisDFS,
    BudgetExceededError,
    MaximaRecord,
    classify,
    classify_basis,
    enumerate_p_bases,
    iter_p_bases,
    load_checkpoint,
    maxima_record,
    range_comparison_stats,
    run_enumeration,
    subtree_prefixes,
    tail_distribution,
    _subtree_dfs,
)
from stampbase.symmetric import is_symmetricisable_plus

from conftest import classified_leaves
from frozen import CENSUS, CLASSIFICATION, RANGE_COMPARISON
from oracles import brute_range, naive_p_bases, search_nodes, search_tree


@pytest.mark.parametrize("p", range(3, 11))
def test_census_counts(p):
    assert enumerate_p_bases(p) == CENSUS[p]


@pytest.mark.parametrize("p", range(3, 7))
def test_pruned_search_equals_naive(p):
    pruned = [b.elements for b in iter_p_bases(p)]
    assert pruned == naive_p_bases(p)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 12))
def test_dfs_matches_recursive_walk(p, extra):
    total = p - 1 + extra
    dfs = BasisDFS(p, total, constrained=p - 1)
    leaves = []
    for elems in dfs:
        assert (dfs.leaf_cov, dfs.leaf_mask) == coverage(elems)
        assert dfs.leaf_n == brute_range(elems)
        leaves.append(elems)
    assert (leaves, dfs.visited) == search_tree(p, total, p - 1)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 11))
def test_frontier_restores_at_every_yield(p, extra):
    # leaf parents are expanded in their parent's loop, yet every frontier
    # saved at a yield must restore to the rest of the walk
    total = p - 1 + extra
    leaves, visited = search_tree(p, total, p - 1)
    dfs = BasisDFS(p, total, constrained=p - 1)
    for i, elems in enumerate(dfs):
        assert elems == leaves[i]
        resumed = BasisDFS(p, total, constrained=p - 1, state=dfs.state())
        assert list(resumed) == leaves[i + 1:]
        assert resumed.visited == visited
    assert dfs.visited == visited


@pytest.mark.parametrize("p, total", [(8, 1), (8, 2), (8, 3), (9, 4), (6, 4)])
def test_shallow_dfs_matches_recursive_walk(p, total):
    # the split searches: several residues are still free at the last level
    dfs = BasisDFS(p, total, constrained=total)
    assert (list(dfs), dfs.visited) == search_tree(p, total, total)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
def test_floor_withholds_leaves_but_counts_them(extra):
    p = 11
    total = p - 1 + extra
    full = BasisDFS(p, total, constrained=p - 1)
    leaves = list(full)
    floor = sorted(e[-1] for e in leaves)[len(leaves) // 2]
    dfs = BasisDFS(p, total, constrained=p - 1)
    dfs.floor = floor
    assert list(dfs) == [e for e in leaves if e[-1] >= floor]
    assert dfs.visited == full.visited


def test_constrained_levels_need_free_residues():
    with pytest.raises(PreconditionError):
        BasisDFS(5, 5)


def test_iteration_is_lexicographic():
    seen = [b.elements for b in iter_p_bases(8)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("p", range(5, 11))
def test_classification_counts(p, classified):
    n_p = len(classified[p])
    n_e = sum(r.extensible for r in classified[p])
    n_s = sum(r.symmetricisable for r in classified[p])
    assert (n_p, n_e, n_s) == CLASSIFICATION[p]
    stats = classify(p)
    assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[p]


def test_classify_threads_agree():
    for p in (8, 11):
        assert classify(p, threads=2) == classify(p, threads=1)


@pytest.mark.parametrize("p", range(3, 11))
def test_range_comparison(p):
    stats = range_comparison_stats(p)
    assert (stats.below, stats.equal, stats.above) == RANGE_COMPARISON[p]
    assert stats.below + stats.equal + stats.above == CENSUS[p]


def test_subtree_prefixes_partition_the_search():
    p, total = 8, 7
    whole = [b.elements for b in iter_p_bases(p)]
    for depth in (1, 2, 3):
        merged = []
        for prefix in subtree_prefixes(p, total, p - 1, depth):
            merged.extend(_subtree_dfs(p, total, p - 1, prefix))
        assert merged == whole


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
def test_subtree_state_resumes_the_whole_walk(extra):
    # a subtree walk's frontier is a frontier of the whole walk: restored
    # without min_height, it goes on past the subtree to the last leaf
    p, total = 9, 8 + extra
    whole = list(BasisDFS(p, total, constrained=p - 1))
    states = 0
    for prefix in subtree_prefixes(p, total, p - 1, 3):
        sub = _subtree_dfs(p, total, p - 1, prefix)
        for elems in sub:
            rest = BasisDFS(p, total, constrained=p - 1, state=sub.state())
            assert list(rest) == whole[whole.index(elems) + 1:]
            states += 1
    assert states == len(whole)


def test_state_restore_resumes_mid_iteration():
    dfs = BasisDFS(9, 8)
    head = [next(dfs) for _ in range(10)]
    resumed = BasisDFS(9, 8, state=dfs.state())
    assert list(resumed) == list(dfs)
    assert head[0] is not None


def test_node_budget_needs_a_single_thread(tmp_path):
    with pytest.raises(PreconditionError, match="single-threaded"):
        classify(14, threads=2, node_budget=5000)
    with pytest.raises(PreconditionError, match="single-threaded"):
        run_enumeration(12, out_path=str(tmp_path / "x.jsonl"), threads=2, node_budget=50)
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("p, prefix, cursors", [
    (8, [1, 3], [0, 0]),  # the cursors would revisit 1 and 3
    (8, [1, 3], [4, 3]),  # last cursor not past its element
    (8, [1, 3], [4, 7]),  # last cursor past n(1, 3) + 2 = 6
    (8, [1, 3], [5, 4]),  # cursor of level 0 skips a child
    (8, [2, 3], [3, 4]),  # first element not 1
    (8, [1, 4], [5, 5]),  # 4 above n(1) + 1 = 3
    (8, [1, 3, 2], [4, 3, 3]),  # not increasing
    (5, [1, 2, 5], [3, 6, 6]),  # residue 0
    (5, [1, 2, 4, 6], [3, 5, 7, 7]),  # residue 1 twice
    (8, [1, 3], [4, "5"]),  # not an integer
    (8, 5, [2]),  # prefix not a list
    (8, [1], None),  # cursors not a list
    (8, [], []),  # empty frontier: every walk holds at least the element 1
], ids=["zero-cursors", "stale-cursor", "cursor-above-range", "skipping-cursor",
        "first-not-1", "above-range", "decreasing", "residue-0",
        "repeated-residue", "not-int", "prefix-not-list", "cursors-null", "empty"])
def test_restore_rejects_corrupt_state(p, prefix, cursors):
    state = {"p": p, "prefix": prefix, "cursors": cursors}
    with pytest.raises(PreconditionError, match="corrupt state"):
        BasisDFS(p, p - 1, state=state)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 10))
def test_budget_trip_state_holds_the_node_over_budget(p, extra):
    # the frontier a budget leaves names the node it stopped at (its parent
    # for a leaf), whether or not that level was pushed as a frame
    total = p - 1 + extra
    nodes = search_nodes(p, total, p - 1)
    for budget in range(1, len(nodes)):
        dfs = BasisDFS(p, total, constrained=p - 1, node_budget=budget)
        with pytest.raises(BudgetExceededError) as err:
            list(dfs)
        assert err.value.visited == dfs.visited == budget + 1
        node = nodes[budget]
        prefix = node if len(node) < total else node[:-1]
        previous = nodes[budget - 1]
        if len(node) == total and previous[:-1] == prefix and len(previous) == total:
            last = previous[-1] + 1  # the sibling leaf yielded before it
        else:
            last = prefix[-1] + 1
        cursors = [c + 1 for c in prefix[1:]] + [last]
        assert dfs.state() == {"p": p, "prefix": list(prefix), "cursors": cursors,
                               "visited": budget + 1}


def test_budget_abort_reports_node_counts():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_p_bases(10, node_budget=50)
    assert err.value.budget == 50
    assert err.value.visited == 51


@pytest.mark.parametrize("visited, budget", [(501, 500), (1, 0)])
def test_budget_error_pickles(visited, budget):
    # a pool worker's error crosses back to the parent pickled
    err = BudgetExceededError(visited, budget)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BudgetExceededError
    assert (back.visited, back.budget) == (visited, budget)
    assert str(back) == str(err) == f"node budget exceeded: visited {visited} > {budget}"


def test_classify_basis_agrees_with_fast_path(classified):
    for rec in classified[7]:
        slow = classify_basis(rec.basis, 7)
        assert slow.extensible == rec.extensible
        assert slow.symmetricisable == rec.symmetricisable


def test_plus_records(tmp_path):
    # a plus record is a p-basis with one free element, ranked by its tail a_p - p
    out = tmp_path / "p6plus.jsonl"
    run_enumeration(6, mode="plus", out_path=str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 15
    assert [(tuple(r["basis"]), r["extensible"], r["symmetricisable"])
            for r in records] == list(classified_leaves(6, 1))
    for rec in records:
        basis = Basis(tuple(rec["basis"]))
        assert basis.k == 6
        assert rec["tail"] == basis.tail - 6
        assert basis_range(basis).admissible
        assert rec["extensible"] == is_extensible(basis, 6).extensible
        if rec["extensible"]:
            verdict = is_symmetricisable_plus(basis, 6)
            assert rec["symmetricisable"] == verdict.symmetricisable
        else:
            assert not rec["symmetricisable"]


def test_plus_depth_search():
    # one free element beyond each 8-basis: 49 are symmetricisable, the best tail a_p - p is 13
    tails = [elems[-1] - 8 for elems, _, sym in classified_leaves(8, 1) if sym]
    assert len(tails) == 49 and max(tails) == 13
    assert maximal_symmetricisable(8, "plus").tail == 13


def test_public_api():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(stampbase.__all__) == [
        "Basis", "BasisError", "BestSegments", "BudgetExceededError", "ClassStats",
        "ExtensionReport", "MaximaRecord", "MaximalBasisSet", "PBasisRecord",
        "PeriodReport", "PlusBasisRecord", "PreconditionError", "RangeComparison",
        "RangeResult", "RangeTable", "ReachSet", "ResidueProfile", "StohrSequence",
        "SymmetricClosure", "SymmetricisabilityReport", "TailDistribution",
        "basis_range", "best_segments", "build_symmetric_closure",
        "classify", "classify_basis", "closure_profile", "closure_range",
        "enumerate_p_bases", "extend_arithmetic", "extend_reach",
        "extensible_completion", "extension_range_identity",
        "extension_threshold", "is_extensible", "is_p_basis", "is_symmetric",
        "is_symmetricisable", "is_symmetricisable_plus", "iter_p_bases", "m_zero",
        "maxima_record", "maximal_symmetricisable", "period_bound",
        "periodic_scan", "range_comparison_stats", "range_table", "residue_profile",
        "run_enumeration", "stohr_sequence", "symmetrize",
        "tail_distribution",
    ]
    # a star import binds no submodule, so it cannot shadow a caller's `search`
    namespace = {}
    exec("search = 42\nfrom stampbase import *", namespace)
    assert namespace["search"] == 42
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    for name in ("iter_classified", "iter_p_plus", "plus_depth_search",
                 "DepthSearchResult", "DEFAULT_NODE_BUDGET"):
        assert not hasattr(stampbase, name) and not hasattr(search, name), name


def test_tail_distribution():
    dist = tail_distribution(8)
    assert dist.rows == (
        (7, 1, 1, 1),
        (8, 0, 0, 0),
        (9, 0, 0, 0),
        (10, 1, 1, 1),
        (11, 1, 1, 1),
        (12, 3, 1, 1),
        (13, 3, 0, 0),
        (14, 3, 0, 0),
        (15, 4, 0, 0),
    )
    assert sum(r[1] for r in dist.rows) == CENSUS[8]


@pytest.mark.parametrize("p", range(5, 11))
def test_census_folds_match_records(p, classified):
    rows = defaultdict(Counter)
    for rec in classified[p]:
        rows[rec.tail] += Counter(n_p=1, n_e=rec.extensible, n_s=rec.symmetricisable)
    tails = range(p - 1, max(rows) + 1)
    expected = tuple((t, rows[t]["n_p"], rows[t]["n_e"], rows[t]["n_s"]) for t in tails)
    assert tail_distribution(p).rows == expected
    v2 = max(t for t in rows if rows[t]["n_e"])
    assert maxima_record(p) == MaximaRecord(p=p, v1=max(rows), v2=v2)


@pytest.mark.parametrize("p, v1, v2", [(5, 7, 4), (10, 26, 19), (12, 35, 23)])
def test_maxima_record(p, v1, v2):
    rec = maxima_record(p)
    assert (rec.v1, rec.v2) == (v1, v2)
    assert rec.ratio_v1 == pytest.approx(v1 / p)
    assert rec.ratio_v2 == pytest.approx(v2 / v1)


def test_run_enumeration_output(tmp_path):
    out = tmp_path / "p7.jsonl"
    summary = run_enumeration(7, classify_records=True, out_path=str(out))
    assert summary == {"p": 7, "mode": "plain", "n_p": 6, "n_e": 2, "n_s": 2}
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert set(first) == {"p", "basis", "tail", "extensible", "symmetricisable"}


@pytest.mark.parametrize("classify_records", [False, True], ids=["bare", "classify"])
@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 12))
def test_record_lines_are_compact_json(tmp_path, monkeypatch, p, mode, classify_records):
    out, ckpt = tmp_path / "r.jsonl", tmp_path / "r.ckpt"
    saved, save_checkpoint = [], search.save_checkpoint

    def spy(path, state):
        # lines go out unflushed, but each checkpoint finds its count in the file
        text = out.read_text(encoding="utf-8")
        count = state["partial_stats"]["count"]
        assert text.count("\n") == count and text.endswith("\n")
        saved.append(count)
        save_checkpoint(path, state)

    monkeypatch.setattr(search, "save_checkpoint", spy)
    summary = run_enumeration(
        p, mode=mode, classify_records=classify_records, out_path=str(out),
        checkpoint_path=str(ckpt), checkpoint_every=p,
    )
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == summary["n_p" if mode == "plain" else "n_plus"]
    assert saved and saved == sorted(saved) and saved[-1] <= len(lines)
    keys = ["p", "basis", "tail"]
    if classify_records or mode == "plus":
        keys += ["extensible", "symmetricisable"]
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(rec, separators=(",", ":"))
        assert list(rec) == keys


def test_run_enumeration_threads_byte_identical(tmp_path):
    # the pooled counts come from the workers, not from the lines written
    for mode in ("plain", "plus"):
        solo = tmp_path / f"solo-{mode}.jsonl"
        pooled = tmp_path / f"pooled-{mode}.jsonl"
        args = dict(mode=mode, classify_records=True)
        summary = run_enumeration(8, out_path=str(solo), **args)
        assert run_enumeration(8, out_path=str(pooled), threads=2, **args) == summary
        assert solo.read_bytes() == pooled.read_bytes()


def test_run_enumeration_plus_mode(tmp_path):
    out = tmp_path / "p6plus.jsonl"
    summary = run_enumeration(6, mode="plus", out_path=str(out))
    assert summary["n_plus"] == 15
    rec = json.loads(out.read_text().splitlines()[0])
    assert len(rec["basis"]) == 6


def test_checkpoint_resume_byte_identical(tmp_path):
    reference = tmp_path / "ref.jsonl"
    run_enumeration(10, classify_records=True, out_path=str(reference))

    out = tmp_path / "resumed.jsonl"
    ckpt = tmp_path / "ckpt.json"
    with pytest.raises(BudgetExceededError):
        run_enumeration(
            10,
            classify_records=True,
            out_path=str(out),
            checkpoint_path=str(ckpt),
            checkpoint_every=20,
            node_budget=300,
        )
    assert ckpt.exists()
    saved = load_checkpoint(str(ckpt))
    assert saved["p"] == 10 and saved["partial_stats"]["count"] > 0

    run_enumeration(
        10,
        classify_records=True,
        out_path=str(out),
        checkpoint_path=str(ckpt),
        resume=True,
        checkpoint_every=20,
    )
    assert out.read_bytes() == reference.read_bytes()
    # completion removes the recovery point so it cannot replay later
    assert not ckpt.exists()


def test_checkpoint_guards(tmp_path):
    with pytest.raises(PreconditionError):
        run_enumeration(7, resume=True)
    with pytest.raises(PreconditionError):
        run_enumeration(
            7,
            out_path=str(tmp_path / "x.jsonl"),
            checkpoint_path=str(tmp_path / "c.json"),
            threads=2,
        )
    with pytest.raises(PreconditionError):
        run_enumeration(
            7,
            resume=True,
            out_path=str(tmp_path / "x.jsonl"),
            checkpoint_path=str(tmp_path / "missing.json"),
        )


def test_checkpoint_rejects_mismatched_run(tmp_path):
    out = tmp_path / "p8.jsonl"
    ckpt = tmp_path / "p8.ckpt"
    with pytest.raises(BudgetExceededError):
        run_enumeration(
            8,
            classify_records=True,
            out_path=str(out),
            checkpoint_path=str(ckpt),
            checkpoint_every=10,
            node_budget=60,
        )
    with pytest.raises(PreconditionError):
        run_enumeration(
            7,
            classify_records=True,
            out_path=str(out),
            checkpoint_path=str(ckpt),
            resume=True,
        )
    with pytest.raises(PreconditionError):
        run_enumeration(
            8,
            classify_records=False,
            out_path=str(out),
            checkpoint_path=str(ckpt),
            resume=True,
        )


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["plain", "plus"]),
    classify_records=st.booleans(),
    budget=st.integers(min_value=1, max_value=380),
    every=st.integers(min_value=1, max_value=60),
)
def test_interrupted_run_resumes_byte_identical(mode, classify_records, budget, every):
    p = 9  # 180 nodes in plain mode, 341 in plus mode
    with tempfile.TemporaryDirectory() as tmp:
        ref = os.path.join(tmp, "ref.jsonl")
        out = os.path.join(tmp, "out.jsonl")
        ckpt = os.path.join(tmp, "ckpt.json")
        args = dict(mode=mode, classify_records=classify_records)
        run_enumeration(p, out_path=ref, **args)
        resume_args = dict(out_path=out, checkpoint_path=ckpt, checkpoint_every=every, **args)
        try:
            run_enumeration(p, node_budget=budget, **resume_args)
        except BudgetExceededError as err:
            assert err.visited == budget + 1
            # a run stopped before its first checkpoint starts afresh
            run_enumeration(p, resume=os.path.exists(ckpt), **resume_args)
        with open(ref, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()
        assert not os.path.exists(ckpt)

import functools
import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stampbase
from stampbase import search
from stampbase.basis import Basis, PreconditionError, basis_range, coverage, range_from_coverage
from stampbase.extension import is_extensible
from stampbase.optimize import maximal_symmetricisable, range_table
from stampbase.search import (
    BasisDFS,
    BudgetExceededError,
    MaximaRecord,
    classify,
    classify_raw,
    enumerate_p_bases,
    load_checkpoint,
    maxima_record,
    range_comparison_stats,
    run_enumeration,
    subtree_prefixes,
    tail_distribution,
    _fold,
    _tail_counts,
)
from stampbase.symmetric import closure_profile, is_symmetricisable

from conftest import classified_leaves
from frozen import CENSUS, CLASSIFICATION, RANGE_COMPARISON
from oracles import (
    brute_extension_profile, brute_range, dead_roots, naive_p_bases, node_liveness, search_nodes,
    search_tree,
)

FOLDS = ("tally", "maximal", "records", "range")  # every kind of BasisDFS.fold


def subtree_walk(p, total, constrained, prefix):
    """The walk of the subtree below `prefix`, as a pool worker starts it."""
    state = {"p": p, "prefix": list(prefix), "cursors": [c + 1 for c in prefix]}
    return BasisDFS(p, total, constrained=constrained, state=state, min_height=len(prefix))


@pytest.mark.parametrize("p", range(3, 11))
def test_census_counts(p):
    assert enumerate_p_bases(p) == CENSUS[p]


@pytest.mark.parametrize("p", range(3, 7))
def test_pruned_search_equals_naive(p):
    assert list(BasisDFS(p, p - 1)) == naive_p_bases(p)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 12))
def test_dfs_matches_recursive_walk(p, extra):
    total = p - 1 + extra
    dfs = BasisDFS(p, total, constrained=p - 1)
    leaves = []
    for elems in dfs:
        assert (dfs.leaf_cov, dfs.leaf_mask) == coverage(elems)
        assert range_from_coverage(dfs.leaf_cov) == brute_range(elems)
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


@pytest.mark.parametrize("p, total", [(8, 2), (8, 3), (9, 4), (6, 4)])
def test_shallow_dfs_matches_recursive_walk(p, total):
    # the split searches: several residues are still free at the last level
    dfs = BasisDFS(p, total, constrained=total)
    assert (list(dfs), dfs.visited) == search_tree(p, total, total)


def test_a_one_level_walk_is_rejected():
    # its root would be a leaf with no parent to restart at; a one-level split is the root
    for p in (3, 8):
        with pytest.raises(PreconditionError, match="two levels"):
            BasisDFS(p, 1)
    for depth in (1, 2, 3):
        assert subtree_prefixes(3, 2, 2, depth) == [(1,)]
    assert classify(3, threads=2) == classify(3)


def test_min_height_must_lie_within_the_start_prefix():
    # a fresh walk starts at the prefix (1,), a restored one at its saved prefix
    state = {"p": 8, "prefix": [1, 2, 4], "cursors": [3, 5, 5]}
    for start, heights in ((None, (1,)), (state, (1, 2, 3))):
        for h in (0, *heights, len(heights) + 1):
            if h in heights:
                BasisDFS(8, 7, state=start, min_height=h)
            else:
                with pytest.raises(PreconditionError, match="min_height"):
                    BasisDFS(8, 7, state=start, min_height=h)


def walk_digest(p, total, budgets):
    """Every yield with its state and coverage, walks resumed from some of them, and each
    budget trip with the walk resumed from it."""
    def drain(dfs):
        seen = []
        try:
            for elems in dfs:
                seen.append((elems, dfs.state(), dfs.leaf_cov, dfs.leaf_mask, dfs.visited))
        except BudgetExceededError as err:
            seen.append(("trip", err.visited, dfs.state()))
        return seen

    runs = [drain(BasisDFS(p, total, constrained=p - 1))]
    for _, state, *_ in runs[0][:-1:max(1, len(runs[0]) // 20)]:
        runs.append(drain(BasisDFS(p, total, constrained=p - 1, state=state)))
    for budget in budgets:
        dfs = BasisDFS(p, total, constrained=p - 1, node_budget=budget)
        runs.append(drain(dfs))
        if dfs.state()["prefix"]:
            runs.append(drain(BasisDFS(p, total, constrained=p - 1, state=dfs.state())))
    return runs


def walk_sha(p, total):
    """sha256 of a yield walk's leaves with state(), leaf_cov, leaf_mask and visited, of each
    fold's list and visited, and of two budget trips with the error's visited and state()."""
    digest = hashlib.sha256()

    def drain(dfs):
        try:
            for elems in dfs:
                digest.update(repr((elems, dfs.state(), dfs.leaf_cov, dfs.leaf_mask)).encode())
        except BudgetExceededError as err:
            digest.update(repr(("trip", err.visited, dfs.state())).encode())
        digest.update(repr(dfs.visited).encode())

    drain(BasisDFS(p, total, constrained=p - 1))
    for kind in FOLDS:
        walk = BasisDFS(p, total, constrained=p - 1)
        digest.update(repr((walk.fold(kind), walk.visited)).encode())
    for budget in (1000, 100000):
        drain(BasisDFS(p, total, constrained=p - 1, node_budget=budget))
    return digest.hexdigest()


# `walk_sha` as the kernels gave it when every residue jump called int.bit_length(); p = 16 is
# the largest p whose jump looks up `search._LSB`, and p = 17 keeps the bit trick.  Only a
# plus walk jumps by p - 1, to bit 15 of the window at p = 16, after its p-basis level's first
# element
@pytest.mark.parametrize("p, total, sha", [
    (16, 15, "42650cc274cfa49ec6b5ff89dbeabb0224a2381e2c1e9e2456877e780cf5b081"),
    pytest.param(16, 16, "fc8ec1383bdc628c43bc1dc8af36b01a9526c21e5f7ea8a452096d53e7053457",
                 marks=pytest.mark.stretch),
    pytest.param(17, 16, "3c250582fa2889836e1911655d27f6ae2e7c9b754c6e9b538c3808b6dd31e8dd",
                 marks=pytest.mark.stretch),
])
def test_walks_on_each_side_of_the_table_are_unchanged(p, total, sha):
    assert walk_sha(p, total) == sha


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(8, 13))
def test_chained_kernels_walk_like_one(monkeypatch, p, extra):
    # past the nesting cap a kernel hands each subtree to one rooted deeper
    total = p - 1 + extra
    nodes = len(search_nodes(p, total, p - 1)) if p < 10 else 0
    budgets = range(1, nodes) if nodes else range(1, 20000, 1999)
    single = walk_digest(p, total, budgets)
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", 3)
    assert walk_digest(p, total, budgets) == single
    outer = search._KERNELS[p, total, p - 1, 1, None]
    assert outer.__globals__["inner"] is search._KERNELS[p, total, p - 1, 4, None]


@pytest.mark.parametrize("p", range(3, 31))
def test_every_shape_compiles(p):
    # past 20 nested loops CPython refuses a function, so deep shapes are chained
    for total in (p - 1, p):
        for depth in range(1, 5):
            split = max(1, min(depth, total - 1))
            assert inspect.isgeneratorfunction(search._kernel(p, total, p - 1, split))
            for fold in FOLDS:  # functions, one loop deeper at leaves
                assert inspect.isfunction(search._kernel(p, total, p - 1, split, fold))
            if split > 1:
                assert inspect.isgeneratorfunction(search._kernel(p, split, split, 1))


def test_a_shape_compiles_once(monkeypatch):
    compiled = []

    def counting(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)

    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "compile", counting, raising=False)
    for _ in range(3):
        classify(9)
        list(BasisDFS(9, 9, constrained=8))
        for prefix in subtree_prefixes(9, 8, 8, 3):
            list(subtree_walk(9, 8, 8, prefix))
    assert len(set(compiled)) == len(compiled) == 4


# sha256 of the yield walk's source, taken when every kernel's node step set its mask
# first, held its free residues doubled and its limit as n + 2, a kernel at p <= 16
# found the next free residue in `search._LSB`, the one-residue level stepped by p from
# a first candidate its parent looked up, and a leaf test began with three one-bit checks
KERNEL_SOURCES = {
    (8, 7, 7, 1, None): "1fcde6aebbf527436a9b69872aa82dd8c001270cfe33d67da91ad737b262fe84",
    (9, 9, 8, 1, None): "60b281072eca290a688db1564c1661479e783799014ebb7adfe610c1dff40d1d",
    (12, 11, 11, 4, None): "ed60ed6a8fa3e8a8b422ef0fdeb88d8f056925a1f5869d361b7d28c4725bd591",
    (23, 22, 22, 1, 21): "1cee89675304e747bb74f192da876f5d1a39b2fdcaa1856bf575d02a77d2b91e",
}


@pytest.mark.parametrize("shape", sorted(KERNEL_SOURCES))
def test_the_yield_walk_source_is_pinned(shape):
    source = search._kernel_source(*shape).encode()
    assert hashlib.sha256(source).hexdigest() == KERNEL_SOURCES[shape]


# sha256 of the census tally's source, taken with the same kernel steps
TALLY_SOURCES = {
    (8, 7, 7, 1, None): "199db70b16a98c87592f1f411f4ea581c4e448f1502d727c30f40db93a9b391e",
    (12, 11, 11, 4, None): "6ca5cfe12744d0895294ced2f9c9f7320eefc79c348e747fb61385c4bc5e02fb",
    (15, 14, 14, 1, None): "c6f6744f8a2d34e4c8a56f1b85bb5fd9647b4cb527688369e8f2a96847f01c4a",
    (23, 22, 22, 1, 21): "1cf31adcd19fb4910fa2fe3912c519c8cb9d5529f76295fbd52daac6223859c7",
}


@pytest.mark.parametrize("shape", sorted(TALLY_SOURCES))
def test_the_tally_source_is_pinned(shape):
    source = search._kernel_source(*shape, "tally").encode()
    assert hashlib.sha256(source).hexdigest() == TALLY_SOURCES[shape]


# sha256 of the maximal fold's source, taken with the same kernel steps
MAXIMAL_SOURCES = {
    (14, 13, 13, 1, None): "e10077d932cf02c2c21075aa77cff680458fd2035a9fb2511cab833b6703d78c",
    (14, 14, 13, 1, None): "1180203ba5319cf4764ce34970927f3580e502cd16445ed484111d773a9455a8",
    (12, 12, 11, 4, None): "3f389f8609d198edf43abd823bf5b2315aa0edf94b14cb18f6de68318154ac78",
    (22, 22, 21, 1, 21): "628c35f48077ce939863b62d88d81b2a857b43fc0f50618bd8aaa0845cf5bb84",
    (22, 22, 21, 21, None): "646401c51282a037701d3726db9ed6ed0c03b4dce513907e2f4163f188fdbc2f",
}


@pytest.mark.parametrize("shape", sorted(MAXIMAL_SOURCES))
def test_the_maximal_source_is_pinned(shape):
    source = search._kernel_source(*shape, "maximal").encode()
    assert hashlib.sha256(source).hexdigest() == MAXIMAL_SOURCES[shape]


# sha256 of the records fold's source, taken with the same kernel steps; a chained
# shape's outer kernel only calls the inner one, so it is the census tally's
RECORDS_SOURCES = {
    (8, 7, 7, 1, None): "f28a4ed4042458fc51fef64ef218f4c2da392e2849f6c8033845c0b40fbdeace",
    (9, 9, 8, 1, None): "459661a13696badc5dfef2fd786478ebc6dffad9063c865c251ff8753b2eea5c",
    (12, 11, 11, 4, None): "4e1fa1b7526e3b072f66a80c737cf9aff76723bd3037fda9b903113545258753",
    (23, 22, 22, 1, 21): "1cf31adcd19fb4910fa2fe3912c519c8cb9d5529f76295fbd52daac6223859c7",
    (23, 22, 22, 21, None): "17a5a1fd65c6b9c510c5211abea78ffb4efe4b68a8d1338bad75423dc234bba3",
}


@pytest.mark.parametrize("shape", sorted(RECORDS_SOURCES))
def test_the_records_source_is_pinned(shape):
    source = search._kernel_source(*shape, "records").encode()
    assert hashlib.sha256(source).hexdigest() == RECORDS_SOURCES[shape]


# sha256 of the range fold's source, taken with the same kernel steps; a chained shape's
# outer kernel only calls the inner one, so it is the census tally's
RANGE_SOURCES = {
    (8, 7, 7, 1, None): "dbb74fb365f5bd9bd9eabee92b6ee16fc20124186290480c2f10e53647ba8417",
    (12, 11, 11, 4, None): "88f9de62777ccab8cc2e8636f04074081dc745cc0023d2def911d3dbbe4c8553",
    (15, 14, 14, 1, None): "0090eaf43d56f99718cda6fb96a9ea87d8c981bb1ead4d1cb340aec230e9cb49",
    (23, 22, 22, 1, 21): "1cf31adcd19fb4910fa2fe3912c519c8cb9d5529f76295fbd52daac6223859c7",
    (23, 22, 22, 21, None): "1cc376788ffd7edb209b3b821e0a10ef5091a8cc4162217534b903aabd075864",
}


@pytest.mark.parametrize("shape", sorted(RANGE_SOURCES))
def test_the_range_source_is_pinned(shape):
    source = search._kernel_source(*shape, "range").encode()
    assert hashlib.sha256(source).hexdigest() == RANGE_SOURCES[shape]


# sha256 over the source of every kernel a search at p = 3..30 builds: both modes, roots 1..4,
# each kind, each chained inner kernel, and the yield walks of the subtree splits
ALL_SOURCES = "fb978bc97502e291795776e6d04be96fd9c37b9265e4969f15aebf91f1eaa2dc"


def test_every_kernel_source_is_pinned():
    digest, shapes = hashlib.sha256(), []

    def add(p, total, constrained, root, kind):
        if (p, total, constrained, root, kind) in shapes:
            return
        shapes.append((p, total, constrained, root, kind))
        inner = (min(root + search._NESTING, total - 1)
                 if total - root + (kind is not None) > search._NESTING else None)
        digest.update(f"{(p, total, constrained, root, inner, kind)}\n".encode())
        digest.update(search._kernel_source(p, total, constrained, root, inner, kind).encode())
        if inner:
            add(p, total, constrained, inner, kind)

    for p in range(3, 31):
        for total in (p - 1, p):
            for root in range(1, 5):
                root = max(1, min(root, total - 1))
                for kind in (None, *FOLDS):
                    add(p, total, p - 1, root, kind)
                if root > 1:
                    add(p, root, root, 1, None)
    assert len(shapes) == 1441
    assert digest.hexdigest() == ALL_SOURCES


def test_the_lowest_bit_table_is_built_with_the_first_kernel():
    # importing the package leaves it unbuilt, which keeps the benchmark's set-up time
    script = ("import stampbase.cli\nfrom stampbase import search\nprint(len(search._LSB))\n"
              "search._kernel(5, 4, 4, 1)\nprint(len(search._LSB))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(stampbase.__path__[0]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n65536\n", "")
    search._kernel(5, 4, 4, 1)
    assert len(search._LSB) == 1 << 16
    assert all(search._LSB[x] == (x & -x).bit_length() - 1 for x in range(1, 1 << 16))


@pytest.mark.parametrize("p", range(3, 31))
def test_kernels_look_up_the_table_exactly_up_to_p_16(p):
    # a larger p keeps the bit trick, as its p-bit window does not fit the table
    for total in (p - 1, p):
        for kind in (None, *FOLDS):
            inner = min(1 + search._NESTING, total - 1) if total - 1 + bool(kind) > search._NESTING else None
            sources = [search._kernel_source(p, total, p - 1, 1, inner, kind)]
            if inner:
                sources.append(search._kernel_source(p, total, p - 1, inner, None, kind))
            for source in sources:
                assert "(a & -a)" not in source if p <= 16 else "LSB[" not in source
            assert ("LSB[" in sources[0]) == (p <= 16)


def tallied(total, leaves):
    """The "tally" fold's list of `total`-element leaves (elements, extensible, symmetricisable)."""
    rows = [0] * (3 * search._tops(total))
    for elems, ext, sym in leaves:
        rows[3 * elems[-1] + ext + sym] += 1
    return rows


def yielded_rows(p):
    """`_tail_counts`'s tally, built from the yield walk and `classify_raw`."""
    return tallied(p - 1, classified_leaves(p))


@pytest.mark.parametrize("p", range(3, 14))
def test_the_tally_walk_counts_like_the_yield_walk(p):
    rows = yielded_rows(p)
    assert _tail_counts(p, threads=2) == _tail_counts(p) == BasisDFS(p, p - 1).fold("tally") == rows


@pytest.mark.parametrize("p", range(8, 13))
def test_chained_tally_kernels_count_like_one(monkeypatch, p):
    rows = yielded_rows(p)
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", 3)
    assert _tail_counts(p) == rows
    assert search._KERNELS[p, p - 1, p - 1, 1, "tally"].__globals__["inner"] is (
        search._KERNELS[p, p - 1, p - 1, 4, "tally"])


def test_a_tally_walk_restored_at_a_leaf_counts_that_leaf():
    # the walk restarts at the leaf's parent, so it counts the leaf and every one after it
    leaves = list(classified_leaves(8))
    for i, (elems, _, _) in enumerate(leaves):
        state = {"p": 8, "prefix": list(elems), "cursors": [c + 1 for c in elems[1:]] + [elems[-1] + 1]}
        assert BasisDFS(8, 7, state=state).fold("tally") == tallied(7, leaves[i:])


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 11))
def test_a_fold_of_as_many_levels_as_the_nesting_cap_is_chained(monkeypatch, p, extra):
    # its leaf test is one loop more, so the leaf level goes to an inner kernel; at the
    # real cap of 20 that is a plain p = 22 or a plus p = 21
    total = p - 1 + extra

    def outcomes():
        runs = []
        for kind in FOLDS:
            for budget in (None, 1, 10, 50, 100, 500):
                dfs = BasisDFS(p, total, constrained=p - 1, node_budget=budget)
                try:
                    runs.append((dfs.fold(kind), dfs.visited))
                except BudgetExceededError as err:
                    runs.append(("trip", str(err)))
        return runs

    single = outcomes()
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", total - 1)
    assert outcomes() == single
    for kind in FOLDS:
        assert search._KERNELS[p, total, p - 1, 1, kind].__globals__["inner"] is (
            search._KERNELS[p, total, p - 1, total - 1, kind])
    assert search._kernel(p, total, p - 1, 1).__globals__["inner"] is None


@pytest.mark.parametrize("mode", ["plain", "plus"])
def test_chained_records_kernels_pause_like_one(tmp_path, monkeypatch, mode):
    # each inner kernel starts from the node count of the next pause that the last one set
    out = tmp_path / "o.jsonl"

    def run():
        saved = []
        monkeypatch.setattr(search, "save_checkpoint", lambda path, state: saved.append(state))
        summary = run_enumeration(10, mode=mode, classify_records=True, out_path=str(out),
                                  checkpoint_path=str(tmp_path / "c.json"), checkpoint_every=7)
        return summary, out.read_bytes(), saved

    single = run()
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", 3)
    assert run() == single
    total = 9 if mode == "plain" else 10
    assert search._KERNELS[10, total, 9, 1, "records"].__globals__["inner"] is (
        search._KERNELS[10, total, 9, 4, "records"])


def test_a_chained_records_walk_builds_its_element_text_once(monkeypatch):
    # the text takes about p^2 / 2 strings, which every kernel of the chain shares, even
    # compiled deepest first, as the path of a restored walk compiles them
    monkeypatch.setattr(search, "_KERNELS", {})
    kernels = [search._kernel(45, 44, 44, root, "records") for root in (41, 21, 1)]
    assert [kernel.__globals__["inner"] for kernel in kernels] == [None, *kernels[:2]]
    for name in ("digits", "tails"):
        assert len({id(kernel.__globals__[name]) for kernel in kernels}) == 1
    assert len(kernels[0].__globals__["digits"]) == search._tops(44)


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(8, 11))
def test_a_fold_restored_at_a_leaf_gathers_like_the_yield_walk(p, extra):
    # the walk restarts at the leaf's parent, where the kernel visits the leaf again and
    # walks on past it; a walk confined to the leaf alone has no parent to restart at
    total = p - 1 + extra
    leaves = list(BasisDFS(p, total, constrained=p - 1))
    for leaf in leaves[::max(1, len(leaves) // 9)] + leaves[-1:]:
        state = {"p": p, "prefix": list(leaf), "cursors": [c + 1 for c in leaf[1:]] + [leaf[-1] + 1]}
        with pytest.raises(PreconditionError, match="min_height"):
            BasisDFS(p, total, constrained=p - 1, state=state, min_height=total)
        for height in (1, total // 2):
            def walk():
                return BasisDFS(p, total, constrained=p - 1, state=state, min_height=height)
            dfs, rows = walk(), []
            assert dfs.state() == {"p": p, "prefix": list(leaf[:-1]),
                                   "cursors": [c + 1 for c in leaf[1:-1]] + [leaf[-1]],
                                   "visited": total - 1}
            for elems in dfs:
                rows.append((elems, *classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)))
            tops = [elems[-1] for elems, _, sym in rows if sym]
            best = [elems for elems, _, sym in rows if sym and elems[-1] == max(tops, default=0)]
            tally = tallied(total, rows)
            records = [[json.dumps({"p": p, "basis": list(elems), "tail": elems[-1] - p * extra,
                                    "extensible": ext, "symmetricisable": sym},
                                   separators=(",", ":")) + "\n" for elems, ext, sym in rows],
                       [sum(ext + sym == e for _, ext, sym in rows) for e in range(3)]]
            over = [brute_range(elems) - (elems[-1] + p - 1) for elems, _, _ in rows]
            ranges = [sum(d < 0 for d in over), sum(d == 0 for d in over), sum(d > 0 for d in over)]
            for kind, expected in (("maximal", best), ("tally", tally), ("records", records),
                                   ("range", ranges)):
                folded = walk()
                got = folded.fold(kind)
                assert (got, folded.visited) == (expected, dfs.visited), (leaf, height, kind)


@pytest.mark.parametrize("p", range(7, 10))
def test_a_tally_walk_trips_like_the_yield_walk(p):
    def outcome(run):
        try:
            return run()
        except BudgetExceededError as err:
            return ("trip", err.visited, str(err))

    nodes = len(search_nodes(p, p - 1, p - 1))
    for budget in range(1, nodes + 2):
        drained = outcome(lambda: len(list(BasisDFS(p, p - 1, node_budget=budget))))
        counted = outcome(lambda: classify(p, node_budget=budget).n_p)
        assert counted == drained, budget


@functools.cache
def oracle_node_count(p, total):
    return len(search_nodes(p, total, p - 1))


@pytest.mark.parametrize("nesting", [search._NESTING, 3], ids=["single", "chained"])
@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 13))
def test_every_walk_counts_every_node(monkeypatch, p, extra, nesting):
    # the yield walk and each fold visit every node of the tree once, so a budget of
    # one node less trips at the last node, and one of exactly that many does not
    total = p - 1 + extra
    nodes = oracle_node_count(p, total)
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", nesting)
    for kind in (None, *FOLDS):
        for budget in (None, nodes):
            dfs = BasisDFS(p, total, constrained=p - 1, node_budget=budget)
            list(dfs) if kind is None else dfs.fold(kind)
            assert dfs.visited == nodes, (kind, budget)
        dfs = BasisDFS(p, total, constrained=p - 1, node_budget=nodes - 1)
        with pytest.raises(BudgetExceededError) as err:
            list(dfs) if kind is None else dfs.fold(kind)
        assert (err.value.visited, dfs.visited) == (nodes, nodes), kind


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 14))
def test_the_top_bound_rejects_no_extensible_leaf(p, extra):
    # classify_raw's bound: b_0 + x - p <= 2e, x the p-basis top, e the second-largest
    rejected = 0
    for elems in BasisDFS(p, p - 1 + extra, constrained=p - 1):
        if elems[-1] + elems[p - 2] - p > 2 * elems[-2]:
            rejected += 1
            assert not is_extensible(Basis(elems), p).extensible, elems
    assert rejected or p < 8  # the bound first bites at p = 5 plain and p = 8 plus


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 12))
def test_the_leaf_bits_reject_no_extensible_leaf(p, extra):
    # the kernels' one-bit checks: for each of the three elements a just below b_0, the
    # offset a - p is no spread offset, so b_0 + a - p must be a sum of two elements below b_0
    rejected = 0
    for elems in search_tree(p, p - 1 + extra, p - 1)[0]:
        b0, below = elems[-1], (0, *elems[:-1])
        sums = {x + y for x in below for y in below}
        if any(b0 + a - p not in sums for a in elems[-4:-1]):
            rejected += 1
            assert not all(brute_extension_profile(elems, p, (b0 - 1) // p)), elems
    assert rejected or p < 7


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(3, 12))
def test_classify_raw_matches_the_reference_procedures(p, extra):
    for elems, extensible, symmetricisable in classified_leaves(p, extra):
        basis = Basis(elems)
        assert extensible == is_extensible(basis, p).extensible, elems
        if not extensible:
            assert not symmetricisable, elems
        else:
            assert symmetricisable == is_symmetricisable(basis, p).symmetricisable, elems


@pytest.mark.parametrize("p", range(5, 11))
def test_live_leaves_are_the_extensible_ones(p):
    liveness = node_liveness(p)
    assert list(liveness) == search_nodes(p, p - 1, p - 1)
    live_leaves = [node for node, live in liveness.items() if live and len(node) == p - 1]
    assert live_leaves == [elems for elems, ext, _ in classified_leaves(p) if ext]
    for node, live in liveness.items():  # a node is live exactly when a child is
        children = [child for child in liveness if child[:-1] == node]
        assert not children or live == any(liveness[child] for child in children), node


def test_the_liveness_oracle_at_p14():
    # what a study of prefix cuts starts from: 90.1% of the nodes are dead, and a cut at
    # every dead root, exact, would visit 9,641 nodes
    liveness = node_liveness(14)
    live = sum(liveness.values())
    assert (len(liveness), live) == (41822, 4149)
    roots = dead_roots(liveness)
    assert roots == {5: 4, 6: 70, 7: 213, 8: 677, 9: 1244, 10: 1358, 11: 1081, 12: 660, 13: 185}
    assert live + sum(roots.values()) == 9641


def test_constrained_levels_need_free_residues():
    with pytest.raises(PreconditionError):
        BasisDFS(5, 5)


def test_iteration_is_lexicographic():
    seen = list(BasisDFS(8, 7))
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
    whole = list(BasisDFS(p, total))
    for depth in (1, 2, 3):
        merged = []
        for prefix in subtree_prefixes(p, total, p - 1, depth):
            merged.extend(subtree_walk(p, total, p - 1, prefix))
        assert merged == whole


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
def test_subtree_state_resumes_the_whole_walk(extra):
    # a subtree walk's frontier is a frontier of the whole walk: restored
    # without min_height, it goes on past the subtree to the last leaf
    p, total = 9, 8 + extra
    whole = list(BasisDFS(p, total, constrained=p - 1))
    states = 0
    for prefix in subtree_prefixes(p, total, p - 1, 3):
        sub = subtree_walk(p, total, p - 1, prefix)
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
    # a pooled census counts the serial walk's nodes; a record stream that can stop part way
    # runs serially
    for budget in (5000, 10 ** 6):
        try:
            serial = classify(14, node_budget=budget)
        except BudgetExceededError as err:
            with pytest.raises(BudgetExceededError) as pooled:
                classify(14, threads=2, node_budget=budget)
            assert (pooled.value.visited, pooled.value.budget) == (err.visited, err.budget)
        else:
            assert classify(14, threads=2, node_budget=budget) == serial
    with pytest.raises(PreconditionError, match="single-threaded"):
        run_enumeration(12, out_path=str(tmp_path / "x.jsonl"), threads=2, node_budget=50)
    assert not (tmp_path / "x.jsonl").exists()


def folded_or_tripped(p, total, kind, threads, budget=None):
    """`_fold` of a fresh walk, a records fold's lists joined, or its error as (visited, budget)."""
    try:
        result = _fold(BasisDFS(p, total, constrained=p - 1, node_budget=budget), kind, threads)
        if kind != "records":
            return result
        lists = list(result)
        return ("".join(line for lines, _ in lists for line in lines),
                [sum(column) for column in zip(*(counts for _, counts in lists))])
    except BudgetExceededError as err:
        return err.visited, err.budget


@pytest.mark.parametrize("kind", FOLDS)
@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
def test_a_pooled_fold_is_the_serial_fold_under_any_budget(kind, extra):
    # a pooled walk trips iff the serial one does, always at budget + 1, also where a worker
    # is restored at its prefix's depth d <= 4 over a budget below d, and so reports d itself
    with search._pool(2):
        for p in range(5, 13):
            total = p - 1 + extra
            whole = BasisDFS(p, total, constrained=p - 1)
            whole.fold(kind)
            serial, nodes = folded_or_tripped(p, total, kind, 1), whole.visited
            for budget in {None, *range(6), nodes - 1, nodes, *range(6, nodes, nodes // 5)}:
                expected = serial if budget is None or budget >= nodes else (budget + 1, budget)
                assert folded_or_tripped(p, total, kind, 1, budget) == expected, (p, budget)
                assert folded_or_tripped(p, total, kind, 2, budget) == expected, (p, budget)


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


def test_restore_rejects_a_frontier_of_another_p():
    # a checkpoint of another p is refused before it is restored, so only a caller that
    # restores a frontier itself meets this
    with pytest.raises(PreconditionError, match=r"^corrupt state: saved for p=9, not 8$"):
        BasisDFS(8, 7, state={"p": 9, "prefix": [1, 3], "cursors": [4, 5]})


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


def test_restore_over_budget_raises_at_construction():
    dfs = BasisDFS(10, 9, node_budget=300)
    with pytest.raises(BudgetExceededError):
        list(dfs)
    saved = dfs.state()
    assert saved["visited"] == 301
    with pytest.raises(BudgetExceededError) as err:
        BasisDFS(10, 9, state=saved, node_budget=200)
    assert (err.value.visited, err.value.budget) == (301, 200)
    # at the budget, the first node the restored walk visits trips it
    dfs = BasisDFS(10, 9, state=saved, node_budget=301)
    with pytest.raises(BudgetExceededError) as err:
        next(dfs)
    assert err.value.visited == dfs.visited == 302
    assert dfs.state() == saved | {"visited": 302}


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
def test_a_tripped_walk_is_over(extra):
    # after the budget error the walk yields nothing more, whichever kernel
    # on the frontier's path tripped; state() is where it resumes
    p, total = 8, 7 + extra
    walk, trips = BasisDFS(p, total, constrained=p - 1), 0
    for _ in walk:
        saved = walk.state()
        for more in range(1, 6):
            dfs = BasisDFS(p, total, constrained=p - 1, state=saved,
                           node_budget=saved["visited"] + more)
            try:
                list(dfs)
            except BudgetExceededError:
                assert list(dfs) == []
                trips += 1
    assert trips > 0


def test_a_walk_runs_once():
    # a walk that has run would start its kernels where that run ended, and fold nothing
    dfs = BasisDFS(9, 8)
    assert sum(dfs.fold("range")) == 28
    for kind in FOLDS:
        with pytest.raises(PreconditionError, match="already run"):
            dfs.fold(kind)
    dfs = BasisDFS(9, 8)
    first = next(dfs)
    saved = dfs.state()
    with pytest.raises(PreconditionError, match="already run"):
        dfs.fold("tally")
    assert (dfs.state(), next(dfs) > first) == (saved, True)  # the refusal changed nothing
    assert sum(BasisDFS(9, 8, state=saved).fold("range")) == 27
    dfs = BasisDFS(9, 8, node_budget=20)
    with pytest.raises(BudgetExceededError):
        dfs.fold("tally")
    with pytest.raises(PreconditionError, match="already run"):
        dfs.fold("tally")


def test_the_kinds_table_lists_every_fold():
    # so a new kind joins the node-count, nesting-cap, restored-leaf and shape-compile tests
    assert set(search._KINDS) == {None, *FOLDS}


# walks of other than p-bases and p+-bases: fewer than p - 1 levels, all constrained, and
# p-bases with two free elements on top
OTHER_SHAPES = [(7, 4, 4), (9, 5, 5), (11, 6, 6), (20, 6, 6), (12, 8, 8),
                *((p, p + 1, p - 1) for p in range(5, 9))]


@pytest.mark.parametrize("p, total, constrained", OTHER_SHAPES)
def test_a_classifying_fold_refuses_other_walks(monkeypatch, p, total, constrained):
    # the leaf test is proved for p-basis and p+-basis leaves alone: run here, its bit checks
    # shift by a negative count on the first four shapes, the maximal floor skip steps by p
    # over leaves of (12, 8) that are not spaced by p, and the tallies of two free elements
    # disagree with classify_raw on the walk's leaves
    monkeypatch.setattr(search, "_KERNELS", {})
    dfs = BasisDFS(p, total, constrained=constrained)
    for kind in ("tally", "maximal", "records"):
        with pytest.raises(PreconditionError) as err:
            dfs.fold(kind)
        assert str(err.value) == (
            "a classifying fold walks p - 1 constrained levels of p - 1 or p (p-bases or "
            "p+-bases); only a range fold walks any shape")
    assert search._KERNELS == {}  # refused before any kernel was built
    ranges = [0, 0, 0]
    for elems in BasisDFS(p, total, constrained=constrained):
        d = brute_range(elems) - (elems[-1] + p - 1)
        ranges[(d >= 0) + (d > 0)] += 1
    assert dfs.fold("range") == ranges  # the refusals left the walk to run
    walk = BasisDFS(p, total, constrained=constrained)
    assert len(list(walk)) == sum(ranges)
    assert dfs.visited == walk.visited == len(search_nodes(p, total, constrained))


def test_budget_abort_reports_node_counts():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_p_bases(10, node_budget=50)
    assert err.value.budget == 50
    assert err.value.visited == 51


# a bare 2 after p once meant two threads to classify and a budget of two nodes to the census
@pytest.mark.parametrize("entry", [
    enumerate_p_bases, _tail_counts, classify, range_comparison_stats, tail_distribution,
    maxima_record, maximal_symmetricisable, range_table,
], ids=lambda entry: entry.__name__)
def test_budget_and_threads_are_keyword_only(entry):
    head = {maximal_symmetricisable: (5, "plain"),
            range_table: ([5], 12, "plain", None)}.get(entry, (5,))
    for tail in ((2,), (2, 1)):
        with pytest.raises(TypeError):
            entry(*head, *tail)


@pytest.mark.parametrize("visited, budget", [(501, 500), (1, 0)])
def test_budget_error_pickles(visited, budget):
    # a pool worker's error crosses back to the parent pickled
    err = BudgetExceededError(visited, budget)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BudgetExceededError
    assert (back.visited, back.budget) == (visited, budget)
    assert str(back) == str(err) == f"node budget exceeded: visited {visited} > {budget}"


def test_reference_procedures_agree_with_fast_path(classified):
    for rec in classified[7]:
        extensible = is_extensible(rec.basis, 7).extensible
        assert extensible == rec.extensible
        assert (extensible and closure_profile(rec.basis, 7).symmetricisable) == rec.symmetricisable


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
            verdict = is_symmetricisable(basis, 6)
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
        "classify", "closure_profile", "closure_range",
        "enumerate_p_bases", "extend_arithmetic", "extend_reach",
        "extensible_completion", "extension_range_identity",
        "extension_threshold", "is_extensible", "is_p_basis", "is_symmetric",
        "is_symmetricisable", "m_zero",
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
                 "DepthSearchResult", "DEFAULT_NODE_BUDGET", "classify_basis", "iter_p_bases"):
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


def test_run_enumeration_needs_a_sink(monkeypatch):
    # without one it walked up to its first write, and failed there on None.write
    for mode in ("plain", "plus"):
        with pytest.raises(PreconditionError, match="out_path.*out_stream"):
            run_enumeration(6, mode)
    monkeypatch.setattr(search, "BasisDFS", None)  # rejected before any walk starts
    with pytest.raises(PreconditionError, match="out_path.*out_stream"):
        run_enumeration(6)


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
    solo, pooled = tmp_path / "solo.jsonl", tmp_path / "pooled.jsonl"
    for p in range(5, 12):
        for mode in ("plain", "plus"):
            for classify_records in (False, True):
                args = dict(mode=mode, classify_records=classify_records)
                summary = run_enumeration(p, out_path=str(solo), **args)
                assert run_enumeration(p, out_path=str(pooled), threads=2, **args) == summary
                assert solo.read_bytes() == pooled.read_bytes(), (p, mode, classify_records)


class SpySink:
    """A record sink with `write` alone, as the benchmark's discarding sink has."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("every", [1, 7, 50])
@pytest.mark.parametrize("mode", ["plain", "plus"])
def test_a_serial_run_holds_at_most_one_interval_of_lines(tmp_path, monkeypatch, mode, every):
    # a pause comes at the first leaf `every` nodes after the last, and each node is one
    # leaf at most, so no write carries more lines than that, with or without a checkpoint
    p = 9  # 180 nodes in plain mode, 341 in plus mode
    reference = run_enumeration(p, mode=mode, classify_records=True, out_stream=SpySink())
    sink = SpySink()
    assert run_enumeration(p, mode=mode, classify_records=True, out_stream=sink,
                           checkpoint_every=every) == reference
    assert max(text.count("\n") for text in sink.writes) <= every
    out, ckpt = tmp_path / "o.jsonl", tmp_path / "c.json"
    writes = []

    def spy_open(path, *args, **kwargs):  # the checkpoint is opened here too
        fh = open(path, *args, **kwargs)
        if path == str(out):
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(search, "open", spy_open, raising=False)
    assert run_enumeration(p, mode=mode, classify_records=True, out_path=str(out),
                           checkpoint_path=str(ckpt), checkpoint_every=every) == reference
    assert max(text.count("\n") for text in writes) <= every
    assert "".join(writes) == "".join(sink.writes) == out.read_text(encoding="utf-8")


@functools.cache
def indexed_leaves(p, mode):
    """(preorder index, leaf) of each leaf, the root's index 1, as `visited` counts nodes."""
    total = p - 1 if mode == "plain" else p
    return tuple((index, node) for index, node in enumerate(search_nodes(p, total, p - 1), 1)
                 if len(node) == total)


@pytest.mark.parametrize("every", [7, 50, 4999, 5000, 5001, 12345])
@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", range(10, 14))
def test_checkpoints_come_every_n_nodes(tmp_path, monkeypatch, p, mode, every):
    # each checkpoint stands at the first leaf at least `every` nodes after the last one (the
    # root, at first), whatever the writes between them; p = 13 has 11335 and 23907 nodes
    expected, last = [], 1
    for count, (index, leaf) in enumerate(indexed_leaves(p, mode), 1):
        if index >= last + every:
            expected.append(([*leaf[:-1]], [a + 1 for a in leaf[1:]], index, count))
            last = index
    saved = []
    monkeypatch.setattr(search, "save_checkpoint", lambda path, state: saved.append(
        (state["prefix"], state["cursors"], state["visited"], state["partial_stats"]["count"])))
    run_enumeration(p, mode=mode, classify_records=True, out_path=str(tmp_path / "o.jsonl"),
                    checkpoint_path=str(tmp_path / "c.json"), checkpoint_every=every)
    assert saved == expected


@pytest.mark.parametrize("to_file, every", [
    (False, {}), (True, {}), (True, {"checkpoint_every": 7000})], ids=["stdout", "file", "7000"])
@pytest.mark.parametrize("mode", ["plain", "plus"])
def test_lines_go_out_at_most_5000_nodes_apart(tmp_path, monkeypatch, mode, to_file, every):
    # every write but the last ends at the first leaf at least 5000 nodes after the last
    # write's end (the root, at first), if not sooner: at the default cadence, and between
    # checkpoints that come every 7000 nodes
    p = 13  # 11335 nodes in plain mode, 23907 in plus mode
    indices = [index for index, _ in indexed_leaves(p, mode)]
    out, sink, saved = tmp_path / "o.jsonl", SpySink(), []
    if to_file:
        def spy_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path == str(out):
                write = fh.write
                fh.write = lambda text: sink.write(text) or write(text)
            return fh

        monkeypatch.setattr(search, "open", spy_open, raising=False)
        monkeypatch.setattr(search, "save_checkpoint", lambda path, state: saved.append(state))
        run_enumeration(p, mode=mode, classify_records=True, out_path=str(out),
                        checkpoint_path=str(tmp_path / "c.json"), **every)
    else:
        run_enumeration(p, mode=mode, classify_records=True, out_stream=sink)
    assert len(saved) == (0 if not every else 1 if mode == "plain" else 3)
    writes = [text.count("\n") for text in sink.writes if text]
    assert len(writes) > 2
    last, start = 1, 0
    for count in writes:
        lines = indices[start:start + count]
        assert all(index < last + 5000 for index in lines[:-1])
        last, start = lines[-1], start + count
    assert start == len(indices)


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
    frontier, counts = load_checkpoint(str(ckpt), 10, "plain", True)
    assert frontier["p"] == 10 and counts["count"] > 0

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

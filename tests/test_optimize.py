import pytest

from stampbase import search
from stampbase.basis import Basis, PreconditionError, basis_range
from stampbase.optimize import (
    MaximalBasisSet,
    best_segments,
    maximal_symmetricisable,
    range_table,
)
from stampbase.search import BasisDFS, BudgetExceededError
from stampbase.symmetric import build_symmetric_closure

from conftest import classified_leaves
from frozen import (
    MAXIMAL_PLAIN,
    MAXIMAL_PLAIN_TAILS,
    MAXIMAL_PLUS,
    MAXIMAL_PLUS_P12_COUNT,
    MAXIMAL_PLUS_TAILS,
    PLAIN_GRID,
    PLAIN_SEGMENTS,
    PLUS_SEGMENTS,
)


@pytest.mark.parametrize("p", sorted(MAXIMAL_PLAIN))
def test_maximal_plain_sets(p):
    mset = maximal_symmetricisable(p, "plain")
    assert mset.tail == MAXIMAL_PLAIN_TAILS[p]
    assert {b.elements for b in mset.bases} == set(MAXIMAL_PLAIN[p])


@pytest.mark.parametrize("p", sorted(MAXIMAL_PLUS))
def test_maximal_plus_sets(p):
    mset = maximal_symmetricisable(p, "plus")
    assert mset.tail == MAXIMAL_PLUS_TAILS[p]
    assert {b.elements for b in mset.bases} == set(MAXIMAL_PLUS[p])


def test_maximal_plus_p12_tie_count():
    mset = maximal_symmetricisable(12, "plus")
    assert mset.tail == MAXIMAL_PLUS_TAILS[12]
    assert len(mset.bases) == MAXIMAL_PLUS_P12_COUNT


@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 12))
def test_maximal_equals_brute_force(p, mode):
    extra = 0 if mode == "plain" else 1  # a plus basis is ranked by its tail a_p - p
    found = [(elems[-1] - extra * p, Basis(elems))
             for elems, _, sym in classified_leaves(p, extra) if sym]
    best = max(tail for tail, _ in found)
    mset = maximal_symmetricisable(p, mode)
    assert mset.tail == best
    assert mset.bases == tuple(b for tail, b in found if tail == best)


@pytest.mark.parametrize("mode, total", [("plain", 7), ("plus", 8)])
def test_floored_search_budget_is_exact(mode, total):
    p = 8
    full = BasisDFS(p, total, constrained=p - 1)
    for _ in full:
        pass
    n = full.visited
    expected = maximal_symmetricisable(p, mode)
    assert maximal_symmetricisable(p, mode, node_budget=n) == expected
    with pytest.raises(BudgetExceededError) as err:
        maximal_symmetricisable(p, mode, node_budget=n - 1)
    assert err.value.visited == n
    # a budget may also run out inside a run of leaves counted below the floor
    for budget in range(1, n - 1):
        with pytest.raises(BudgetExceededError) as err:
            maximal_symmetricisable(p, mode, node_budget=budget)
        assert (err.value.visited, err.value.budget) == (budget + 1, budget)


@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", range(8, 13))
def test_chained_maximal_fold_searches_like_one(monkeypatch, p, mode):
    # past the nesting cap each inner kernel starts from the floor the walk has reached
    def outcome(budget):
        try:
            return maximal_symmetricisable(p, mode, node_budget=budget)
        except BudgetExceededError as err:
            return ("trip", err.visited, str(err))

    total = p - 1 if mode == "plain" else p
    full = BasisDFS(p, total, constrained=p - 1)
    for _ in full:
        pass
    n = full.visited
    budgets = [None, n, n - 1, *range(1, n - 1, max(1, n // 25))]
    single = [outcome(budget) for budget in budgets]
    monkeypatch.setattr(search, "_KERNELS", {})
    monkeypatch.setattr(search, "_NESTING", 3)
    assert [outcome(budget) for budget in budgets] == single
    assert search._KERNELS[p, total, p - 1, 1, "maximal"].__globals__["inner"] is (
        search._KERNELS[p, total, p - 1, 4, "maximal"])


def test_maximal_mode_guard():
    with pytest.raises(PreconditionError):
        maximal_symmetricisable(6, "fancy")


def test_json_shape():
    mset = maximal_symmetricisable(6, "plain")
    assert mset.to_json_dict() == {
        "p": 6, "mode": "plain", "tail": 8, "bases": [[1, 3, 4, 5, 8]],
    }


@pytest.fixture(scope="module")
def plain_table():
    return range_table(range(5, 15), 40, mode="plain")


@pytest.fixture(scope="module")
def plus_table():
    return range_table(range(5, 15), 40, mode="plus")


def test_plain_grid_cells(plain_table):
    for k, row in PLAIN_GRID.items():
        for p, value in row.items():
            assert plain_table.entries[(k, p)] == value, (k, p)


def test_plain_entries_are_realized_ranges(plain_table):
    for (k, p), value in plain_table.entries.items():
        if p > 9:
            continue
        j = k - 2 * (p - 1)
        tails = plain_table.tails
        realized = []
        for elements in MAXIMAL_PLAIN[p]:
            closure = build_symmetric_closure(Basis(elements), p, j)
            result = basis_range(closure.elements)
            if result.admissible:
                realized.append(result.n)
        assert value in realized
        assert value == 2 * (2 * tails[p] + j * p)


def test_plain_columns_start_at_mirror_size(plain_table):
    for p in range(5, 15):
        ks = sorted(k for k, q in plain_table.entries if q == p)
        assert ks[0] >= 2 * (p - 1)
        assert ks[-1] == 40
        assert ks == list(range(ks[0], 41))


def test_plus_grid_spot_values(plus_table):
    assert plus_table.entries[(35, 12)] == 404
    assert plus_table.entries[(21, 8)] == 164
    assert plus_table.entries[(10, 5)] == 36
    for p in range(5, 15):
        ks = sorted(k for k, q in plus_table.entries if q == p)
        assert ks[0] == 2 * p  # both fresh elements mirrored, nothing virtual


def test_plus_beats_plain_where_free_element_helps(plain_table, plus_table):
    assert plain_table.entries[(21, 8)] == 160
    assert plus_table.entries[(21, 8)] == 164
    assert plus_table.tails[8] == 13 and plain_table.tails[8] == 12


def test_plain_segments(plain_table):
    assert list(best_segments(plain_table).rows) == PLAIN_SEGMENTS


def test_plus_segments(plus_table):
    assert list(best_segments(plus_table).rows) == PLUS_SEGMENTS


def test_precomputed_maxima_short_circuit(plain_table):
    maxima = {
        p: maximal_symmetricisable(p, "plain") for p in range(5, 15)
    }
    table = range_table(range(5, 15), 40, mode="plain", maxima=maxima)
    assert table.entries == plain_table.entries

    fake = MaximalBasisSet(p=5, mode="plus", tail=4, bases=(Basis((1, 2, 3, 4)),))
    with pytest.raises(PreconditionError):
        range_table([5], 12, mode="plain", maxima={5: fake})


def test_precomputed_maxima_of_another_p_are_rejected():
    # a p = 7 set would put its tail 9 in the p = 5 row
    with pytest.raises(PreconditionError, match="at p=7"):
        range_table([5], 12, mode="plain", maxima={5: maximal_symmetricisable(7, "plain")})


def test_precomputed_maxima_with_another_top_are_rejected():
    # (1, 2, 3, 7, 11) does not end at the set's top 8, so its closures have another b_0
    real = maximal_symmetricisable(6, "plain")
    mixed = MaximalBasisSet(p=6, mode="plain", tail=real.tail,
                            bases=real.bases + (Basis((1, 2, 3, 7, 11)),))
    with pytest.raises(PreconditionError, match="tail \\+ 0 = 8"):
        range_table([6], 20, mode="plain", maxima={6: mixed})


def test_precomputed_maxima_without_bases_are_rejected():
    empty = MaximalBasisSet(p=5, mode="plain", tail=8, bases=())
    with pytest.raises(PreconditionError, match="bases: 0"):
        range_table([5], 12, mode="plain", maxima={5: empty})


def test_table_axis_helpers(plain_table):
    assert plain_table.ps() == list(range(5, 15))
    assert plain_table.ks()[0] == 8
    assert plain_table.ks()[-1] == 40

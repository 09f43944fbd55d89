"""Acceptance suite: one test per gated reproduction target.

Each test prints as a single pass/fail line under pytest -v.  The frozen
constants live in frozen.py; the brute-force cross-checks in oracles.py.
The longest sizes that run by default (p = 15-17) are marked stretch and
can be deselected with -m 'not stretch'.  The p = 18 and 19 rows and
the segment tables up to p = 18, k = 75 are marked long and run only with
--run-long.
"""

import random
import time

import pytest

from stampbase.basis import (
    Basis,
    ReachSet,
    basis_range,
    extend_reach,
    is_symmetric,
    symmetrize,
)
from stampbase.extension import (
    extension_range_identity,
    is_extensible,
    period_bound,
    periodic_scan,
    stohr_sequence,
)
from stampbase.optimize import best_segments, maximal_symmetricisable, range_table
from stampbase.search import (
    BasisDFS,
    classify,
    enumerate_p_bases,
    range_comparison_stats,
)
from stampbase.symmetric import (
    build_symmetric_closure,
    closure_admissible_at,
    m_zero,
)

from conftest import classified_leaves
from frozen import (
    CENSUS,
    CLASSIFICATION,
    MAXIMAL_PLAIN,
    MAXIMAL_PLAIN_TAILS,
    MAXIMAL_PLUS,
    MAXIMAL_PLUS_TAILS,
    MAXIMAL_SINGLE,
    MAXIMAL_TAIL_TIES,
    OPTIMAL_CLOSURE_14,
    PERIODIC_SEEDS,
    RANGE_COMPARISON,
    SEGMENTS_P18_K75,
    SHARPNESS,
    SMALL_CLOSURE_10,
    STOHR_EXAMPLE,
)
from oracles import brute_extension_profile, naive_p_bases


def test_criterion_01_census_counts():
    t0 = time.perf_counter()
    counts = {p: enumerate_p_bases(p) for p in range(3, 15)}
    elapsed = time.perf_counter() - t0
    assert counts == {p: CENSUS[p] for p in range(3, 15)}
    assert elapsed < 60.0


def test_criterion_02_classification_counts():
    for p in range(5, 15):
        stats = classify(p)
        assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[p], p
    # the p=14 split is the sentinel: extensible but not symmetricisable exists
    sentinel = classify(14)
    assert (sentinel.n_e, sentinel.n_s) == (601, 599)


def test_criterion_03_range_comparison():
    for p in range(3, 13):
        stats = range_comparison_stats(p)
        assert (stats.below, stats.equal, stats.above) == RANGE_COMPARISON[p], p


def test_criterion_04_maximal_plain_bases():
    for p in range(5, 15):
        mset = maximal_symmetricisable(p, "plain")
        assert mset.tail == MAXIMAL_PLAIN_TAILS[p], p
        assert {b.elements for b in mset.bases} == set(MAXIMAL_PLAIN[p]), p


def test_criterion_05_maximal_plus_bases():
    for p in range(5, 13):
        mset = maximal_symmetricisable(p, "plus")
        assert mset.tail == MAXIMAL_PLUS_TAILS[p], p
    eight = maximal_symmetricisable(8, "plus")
    assert eight.tail == 13
    assert {b.elements for b in eight.bases} == {(1, 3, 4, 6, 10, 13, 15, 21)}
    five = maximal_symmetricisable(5, "plus")
    assert {b.elements for b in five.bases} == set(MAXIMAL_PLUS[5])
    assert len(five.bases) == 2


def test_criterion_06_range_tables_and_segments():
    closure = build_symmetric_closure(Basis((1, 3, 4, 5, 8)), 6, 4)
    assert closure.elements.elements == OPTIMAL_CLOSURE_14
    assert basis_range(closure.elements).n == 80

    table = range_table(range(5, 15), 40, mode="plain")
    rows = set(best_segments(table).rows)
    assert {(8, 12, 16, 5), (12, 22, 56, 6), (24, 30, 208, 9)} <= rows

    small = build_symmetric_closure(Basis((1, 2, 3)), 4, 4)
    assert small.elements.elements == SMALL_CLOSURE_10
    assert basis_range(small.elements).n == 44


def test_criterion_07_sharpness_examples():
    for elements, p, s, k_star, checked_i, range_at_i in SHARPNESS:
        report = is_extensible(Basis(elements), p)
        assert not report.extensible, elements
        assert (report.s, report.k_star) == (s, k_star), elements
        stretched = Basis(
            elements + tuple(elements[-1] + i * p for i in range(1, checked_i + 1))
        )
        result = basis_range(stretched)
        assert result.admissible and result.n == range_at_i, elements


def test_criterion_08_stohr_and_periodicity():
    seed, expected_terms = STOHR_EXAMPLE
    seq = stohr_sequence(Basis(seed), len(expected_terms))
    assert seq.terms == expected_terms

    for elements, p, pattern in PERIODIC_SEEDS:
        basis = Basis(elements)
        report = periodic_scan(basis, 200, 3)
        assert report is not None, elements
        assert report.pattern == pattern, elements
        assert report.average == p, elements
        assert report.period_sum <= period_bound(report.period_length, p)


def test_criterion_09_property_suites(classified):
    # symmetric + admissible forces range exactly twice the largest element
    rng = random.Random(20260815)
    checked_symmetric = 0
    for _ in range(500):
        gaps = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        elements = [1]
        for g in gaps:
            elements.append(elements[-1] + g)
        for parity in ("even", "odd"):
            sym = symmetrize(Basis(tuple(elements)), parity)
            assert is_symmetric(sym)
            result = basis_range(sym)
            if result.admissible:
                assert result.n == 2 * sym.tail
                checked_symmetric += 1
    assert checked_symmetric > 100

    # threshold verdict agrees with brute-force extension out to k* + 25
    for p in range(3, 11):
        for rec in classified[p]:
            report = is_extensible(rec.basis, p)
            profile = brute_extension_profile(
                rec.basis.elements, p, report.k_star + 25
            )
            assert report.extensible == all(profile), rec.basis

    # extension ranges hit b_{k+1} - 1 for every extensible basis, k <= 15
    for p in range(3, 11):
        for rec in classified[p]:
            if rec.extensible:
                assert extension_range_identity(rec.basis, p, 15), rec.basis

    # the closure verdict at m0 is stable across m0..m0+8
    for p in range(3, 11):
        for rec in classified[p]:
            if not rec.extensible:
                continue
            m0 = m_zero(rec.basis.tail, p)
            at_m0 = closure_admissible_at(rec.basis.elements, p, m0)
            for m in range(m0, m0 + 9):
                assert closure_admissible_at(rec.basis.elements, p, m) is at_m0

    # pruned enumeration equals the generate-and-filter oracle
    for p in range(3, 9):
        assert list(BasisDFS(p, p - 1)) == naive_p_bases(p)

    # incremental reach updates agree with recomputation from scratch
    for _ in range(1000):
        elements = [1]
        for _ in range(rng.randint(0, 7)):
            elements.append(elements[-1] + rng.randint(1, 11))
        basis = Basis(tuple(elements))
        reach = ReachSet.of(basis)
        new_element = basis.tail + rng.randint(1, 11)
        extended = Basis(basis.elements + (new_element,))
        incremental = extend_reach(reach, basis, new_element)
        scratch = ReachSet.of(extended)
        assert incremental.covered == scratch.covered
        assert incremental.range_n() == scratch.range_n()


def test_criterion_10_depth_two_no_improvement():
    # a second free element never beats the best symmetricisable tail of one
    for p in range(5, 11):
        depth_two = max(elems[-1] - 2 * p for elems, _, sym in classified_leaves(p, 2) if sym)
        assert depth_two == maximal_symmetricisable(p, "plus").tail, p


@pytest.mark.stretch
def test_stretch_census_p15():
    assert enumerate_p_bases(15) == CENSUS[15]
    stats = classify(15)
    assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[15]


@pytest.mark.stretch
def test_stretch_census_p16():
    assert enumerate_p_bases(16) == CENSUS[16]
    stats = classify(16)
    assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[16]


@pytest.mark.stretch
def test_stretch_census_p17():
    stats = classify(17)
    assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[17]


@pytest.mark.stretch
@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", [15, 16, 17])
def test_stretch_maximal_single_bases(p, mode):
    mset = maximal_symmetricisable(p, mode)
    assert (mset.tail, len(mset.bases)) == MAXIMAL_TAIL_TIES[mode][p]
    assert [b.elements for b in mset.bases] == [MAXIMAL_SINGLE[mode][p]]


@pytest.mark.long
@pytest.mark.parametrize("p", [18, 19])
def test_long_census_and_maximal_tails(p):
    stats = classify(p)
    assert (stats.n_p, stats.n_e, stats.n_s) == CLASSIFICATION[p]
    for mode in ("plain", "plus"):
        mset = maximal_symmetricisable(p, mode)
        assert (mset.tail, len(mset.bases)) == MAXIMAL_TAIL_TIES[mode][p], mode


@pytest.mark.long
@pytest.mark.parametrize("mode", ["plain", "plus"])
def test_long_segments_to_p18_k75(mode):
    table = range_table(range(5, 19), 75, mode=mode)
    assert list(best_segments(table).rows) == SEGMENTS_P18_K75[mode]

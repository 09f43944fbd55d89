import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stampbase.basis import (
    Basis,
    PreconditionError,
    basis_range,
    coverage,
    is_symmetric,
)
from stampbase.optimize import maximal_symmetricisable
from stampbase.symmetric import (
    build_symmetric_closure,
    closure_admissible_at,
    closure_profile,
    closure_range,
    is_symmetricisable,
    m_zero,
    symmetricisable_raw,
)

from conftest import classified_leaves
from frozen import COUNTEREXAMPLES, OPTIMAL_CLOSURE_14, SMALL_CLOSURE_10
from oracles import brute_admissible, brute_closure


def origins():
    return st.lists(
        st.integers(min_value=1, max_value=8), min_size=0, max_size=6
    ).map(lambda gaps: Basis(tuple(_cumsum(gaps))))


def _cumsum(gaps):
    elems = [1]
    for g in gaps:
        elems.append(elems[-1] + g)
    return elems


def test_m_zero():
    assert m_zero(8, 6) == 2
    assert m_zero(12, 8) == 2
    assert m_zero(23, 12) == 2
    assert m_zero(9, 5) == 2
    assert m_zero(4, 5) == 1
    with pytest.raises(PreconditionError):
        m_zero(0, 5)


def test_closure_range_formula():
    assert closure_range(8, 6, 4) == 80
    assert closure_range(3, 4, 4) == 44
    assert closure_range(4, 5, 0) == 16


def test_optimal_closure_construction():
    closure = build_symmetric_closure(Basis((1, 3, 4, 5, 8)), 6, 4)
    assert closure.elements.elements == OPTIMAL_CLOSURE_14
    assert closure.elements.k == 14
    assert is_symmetric(closure.elements)
    result = basis_range(closure.elements)
    assert result.admissible and result.n == 80


def test_small_closure_construction():
    closure = build_symmetric_closure(Basis((1, 2, 3)), 4, 4)
    assert closure.elements.elements == SMALL_CLOSURE_10
    result = basis_range(closure.elements)
    assert result.admissible and result.n == 44


@pytest.mark.parametrize("p, j, message", [
    (0, 1, "step must be positive, got 0"),
    (3, -1, "extension count must be >= 0, got -1"),
])
def test_a_closure_needs_a_positive_step_and_a_count_of_at_least_0(p, j, message):
    with pytest.raises(PreconditionError) as err:
        build_symmetric_closure(Basis((1, 2, 3)), p, j)
    assert str(err.value) == message


@settings(max_examples=300)
@given(origins(), st.integers(1, 9), st.integers(0, 5))
def test_closure_matches_literal_assembly(origin, p, j):
    closure = build_symmetric_closure(origin, p, j)
    assert closure.elements.elements == brute_closure(origin.elements, p, j)
    assert is_symmetric(closure.elements)
    assert closure.elements.k == 2 * origin.k + j


@settings(max_examples=300)
@given(origins(), st.integers(1, 9), st.integers(0, 5))
def test_admissible_closure_range_is_formula(origin, p, j):
    closure = build_symmetric_closure(origin, p, j)
    result = basis_range(closure.elements)
    if result.admissible:
        assert result.n == closure_range(origin.tail, p, j)


@pytest.mark.parametrize("elements, p, profile", COUNTEREXAMPLES)
def test_extensible_but_not_symmetricisable(elements, p, profile):
    basis = Basis(elements)
    report = is_symmetricisable(basis, p)
    assert not report.symmetricisable
    assert report.profile == profile
    assert report.m0 == len(profile) - 1
    assert report.k0_witness == 2 * (p - 1) + report.m0


def test_symmetricisable_verdicts():
    report = is_symmetricisable(Basis((1, 3, 4, 5, 8)), 6)
    assert report.symmetricisable
    assert report.m0 == 2 and report.profile == (True, True, True)
    assert report.to_json_dict() == {
        "symmetricisable": True, "m0": 2, "profile": [True, True, True],
    }


def test_symmetricisable_preconditions():
    with pytest.raises(PreconditionError):
        is_symmetricisable(Basis((1, 2, 3)), 6)  # not a p-basis
    with pytest.raises(PreconditionError):
        is_symmetricisable(Basis((1, 3, 4, 7)), 5)  # not extensible
    with pytest.raises(PreconditionError):
        is_symmetricisable(Basis((1,)), 1)  # p-bases start at p = 3


def test_plus_variant():
    # a p-basis with one free element on top goes through the same test
    report = is_symmetricisable(Basis((1, 2, 3, 4, 9)), 5)
    assert report.symmetricisable and report.m0 == 2
    assert report.profile == (True, True, True)
    report = is_symmetricisable(Basis((1, 3, 4, 7, 9)), 5)
    assert report.symmetricisable

    with pytest.raises(PreconditionError):
        is_symmetricisable(Basis((1, 2, 3, 4, 5, 9)), 5)  # p - 1 or p elements
    with pytest.raises(PreconditionError):
        is_symmetricisable(Basis((1, 2, 3, 8, 9)), 5)  # bad prefix


def test_raw_closure_check_matches_profile():
    for elements, p, profile in COUNTEREXAMPLES:
        for m, expected in enumerate(profile):
            assert closure_admissible_at(elements, p, m) is expected


@pytest.mark.parametrize("extra", [0, 1, 2], ids=["plain", "plus", "depth-two"])
@pytest.mark.parametrize("p", range(3, 10))
def test_difference_set_test_matches_the_brute_closure(p, extra):
    for elems, extensible, _ in classified_leaves(p, extra):
        if extensible:
            closure = brute_closure(elems, p, m_zero(elems[-1], p))
            assert symmetricisable_raw(elems, coverage(elems)[1], p) is brute_admissible(closure), elems


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(10, 14))
def test_difference_set_test_matches_the_literal_closure(p, extra):
    for elems, extensible, _ in classified_leaves(p, extra):
        if extensible:
            literal = closure_admissible_at(elems, p, m_zero(elems[-1], p))
            assert symmetricisable_raw(elems, coverage(elems)[1], p) is literal, elems


def built_profile(origin, p):
    """Admissibility of S_0 ... S_{m0}, each closure built as a Basis and ranged."""
    return tuple(basis_range(build_symmetric_closure(origin, p, m).elements).admissible
                 for m in range(m_zero(origin.tail, p) + 1))


@pytest.mark.parametrize("extra", [0, 1], ids=["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 11))
def test_profile_matches_the_built_closures_at_every_extensible_leaf(p, extra):
    for elems, extensible, _ in classified_leaves(p, extra):
        if extensible:
            origin = Basis(elems)
            assert closure_profile(origin, p).profile == built_profile(origin, p), elems


@pytest.mark.parametrize("mode", ["plain", "plus"])
@pytest.mark.parametrize("p", range(5, 15))
def test_profile_matches_the_built_closures_at_every_maximal_basis(p, mode):
    for origin in maximal_symmetricisable(p, mode).bases:
        report = closure_profile(origin, p)
        assert report.profile == built_profile(origin, p), origin
        assert report.symmetricisable is report.profile[-1] is True, origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stampbase import extension
from stampbase.basis import Basis, PreconditionError, basis_range
from stampbase.extension import (
    extend_arithmetic,
    extensible_completion,
    extension_range_identity,
    extension_threshold,
    is_extensible,
    period_bound,
    periodic_scan,
    stohr_sequence,
)

from frozen import PERIODIC_SEEDS, SHARPNESS, STOHR_EXAMPLE
from oracles import brute_extension_profile


def test_extend_arithmetic():
    basis = Basis((1, 3, 4, 7))
    assert extend_arithmetic(basis, 5, 0) == basis
    assert extend_arithmetic(basis, 5, 3).elements == (1, 3, 4, 7, 12, 17, 22)
    with pytest.raises(PreconditionError):
        extend_arithmetic(basis, 0, 1)
    with pytest.raises(PreconditionError):
        extend_arithmetic(basis, 5, -1)


@given(st.integers(1, 400), st.integers(1, 40))
def test_threshold_brackets_double(b0, p):
    k_star = extension_threshold(b0, p)
    assert b0 + k_star * p < 2 * b0 <= b0 + (k_star + 1) * p


@pytest.mark.parametrize(
    "elements, p, s, k_star, checked_i, range_at_i", SHARPNESS
)
def test_threshold_sharpness_examples(elements, p, s, k_star, checked_i, range_at_i):
    basis = Basis(elements)
    report = is_extensible(basis, p)
    assert not report.extensible
    assert report.residues_complete
    assert (report.s, report.k_star) == (s, k_star)
    extended = extend_arithmetic(basis, p, checked_i)
    assert basis_range(extended).n == range_at_i


def test_extensible_verdicts():
    report = is_extensible(Basis((1, 3, 4, 5, 8)), 6)
    assert report.extensible and report.s is None and report.k_star == 1
    assert report.to_json_dict()["s"] == "unbounded"

    # missing residue settles the verdict without stepping past k*
    report = is_extensible(Basis((1, 2, 3)), 5)
    assert not report.extensible
    assert not report.residues_complete
    assert report.s == report.k_star


def test_extensible_matches_brute_force(classified):
    for p in range(3, 8):
        for rec in classified[p]:
            report = is_extensible(rec.basis, p)
            assert report.extensible == rec.extensible
            profile = brute_extension_profile(
                rec.basis.elements, p, report.k_star + 25
            )
            assert report.extensible == all(profile)
            if not report.extensible:
                assert profile[: report.s + 1] == [True] * (report.s + 1)
                assert not profile[report.s + 1]


def test_range_identity_for_extensible_bases():
    assert extension_range_identity(Basis((1, 3, 4, 5, 8)), 6, 15)
    assert extension_range_identity(Basis((1, 2)), 3, 15)
    with pytest.raises(PreconditionError):
        extension_range_identity(Basis((1, 3, 4, 7)), 5, 10)
    with pytest.raises(PreconditionError):
        extension_range_identity(Basis((1, 2, 4)), 5, 10)


def test_range_can_exceed_identity_below_threshold():
    # below 2*b_0 the greedy range may run ahead of the extension terms;
    # the identity is asserted only from the threshold upward
    basis = Basis((1, 2, 5, 7, 10, 11, 18, 21, 24, 27, 28, 29, 34, 38))
    assert basis_range(extend_arithmetic(basis, 15, 0)).n == 59
    assert basis_range(extend_arithmetic(basis, 15, 1)).n == 68
    assert extension_range_identity(basis, 15, 12)


def test_range_identity_continues_the_extensibility_walk(monkeypatch):
    # the checks start at k*, where the extensibility walk stops, so each of A_{j+1}, ...,
    # A_{j+k_max} is stepped to once and the base's coverage is not built again
    basis = Basis((1, 2, 5, 7, 10, 11, 18, 21, 24, 27, 28, 29, 34, 38))
    assert is_extensible(basis, 15).k_star == 2
    calls = {"coverage": 0, "extend_coverage": 0}
    for name in calls:
        step = getattr(extension, name)

        def counted(*args, name=name, step=step):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(extension, name, counted)
    assert extension_range_identity(basis, 15, 12)
    assert calls == {"coverage": 0, "extend_coverage": 12}


def test_stohr_terms():
    seed = Basis(STOHR_EXAMPLE[0])
    seq = stohr_sequence(seed, 6)
    assert seq.terms == STOHR_EXAMPLE[1]
    assert seq.increments == (9, 2, 2, 9, 2, 2)

    seq = stohr_sequence(Basis((1,)), 2)
    assert seq.terms == (3, 5)
    assert stohr_sequence(seed, 0).terms == ()
    with pytest.raises(PreconditionError):
        stohr_sequence(Basis((1, 2, 8)), 3)
    with pytest.raises(PreconditionError):
        stohr_sequence(seed, -1)


def test_the_extension_step_must_be_at_least_2():
    with pytest.raises(PreconditionError) as err:
        is_extensible(Basis((1, 2)), 1)
    assert str(err.value) == "extension step must be at least 2, got 1"


@pytest.mark.parametrize("elements, p, pattern", PERIODIC_SEEDS)
def test_periodic_increments(elements, p, pattern):
    report = periodic_scan(Basis(elements), max_terms=60)
    assert report is not None
    assert report.preperiod == 0
    assert report.pattern == pattern
    assert report.average == p
    assert report.period_sum <= period_bound(report.period_length, p)
    assert report.to_json_dict()["pattern"] == list(pattern)


def test_periodic_scan_window_limits():
    seed = Basis(PERIODIC_SEEDS[0][0])
    assert periodic_scan(seed, max_terms=5) is None
    with pytest.raises(PreconditionError):
        periodic_scan(seed, max_terms=30, verify_periods=1)


def test_period_bound():
    assert period_bound(1, 18) == 19
    assert period_bound(2, 18) == 39
    assert period_bound(3, 22) == 72
    with pytest.raises(PreconditionError):
        period_bound(0, 5)


@pytest.mark.parametrize(
    "elements, p, expected",
    [
        ((1, 3, 4, 7), 5, (1, 3, 4, 7, 9, 12, 17)),
        ((1, 2), 3, (1, 2, 5)),
    ],
)
def test_extensible_completion(elements, p, expected):
    completed = extensible_completion(Basis(elements), p)
    assert completed.elements == expected
    assert basis_range(completed).admissible
    assert is_extensible(completed, p).extensible


def test_completion_needs_residues():
    with pytest.raises(PreconditionError):
        extensible_completion(Basis((1, 2)), 5)

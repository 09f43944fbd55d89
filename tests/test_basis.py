import dataclasses
import inspect
import json
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stampbase
from stampbase.basis import (
    Basis,
    BasisError,
    PreconditionError,
    ReachSet,
    basis_range,
    extend_reach,
    is_p_basis,
    is_symmetric,
    residue_profile,
    symmetrize,
)

from oracles import brute_range


def elements_strategy(max_size=9, max_gap=12):
    """Random valid element tuples: 1 plus strictly positive gaps."""
    return st.lists(
        st.integers(min_value=1, max_value=max_gap), max_size=max_size - 1
    ).map(lambda gaps: tuple(_cumsum(gaps)))


def _cumsum(gaps):
    elems = [1]
    for g in gaps:
        elems.append(elems[-1] + g)
    return elems


@pytest.mark.parametrize(
    "elements, n, admissible",
    [
        ((1, 3, 4, 6, 11), 12, True),
        ((1,), 2, True),
        ((1, 2), 4, True),
        ((1, 3), 4, True),
        ((1, 2, 8), 4, False),
        ((1, 2, 3), 6, True),
        ((1, 3, 4, 7), 8, True),
        ((1, 2, 4, 5, 10, 13), 15, True),
        ((1, 3, 4, 5, 6, 10, 15), 16, True),
    ],
)
def test_range_examples(elements, n, admissible):
    result = basis_range(Basis(elements))
    assert (result.n, result.admissible) == (n, admissible)


@settings(max_examples=300)
@given(elements_strategy())
def test_range_matches_brute_force(elements):
    assert basis_range(Basis(elements)).n == brute_range(elements)


# a string goes through from_json; an element that is no int is an error, never rounded or
# parsed into one
@pytest.mark.parametrize(
    "bad", [(), (2, 3), (1, 3, 3), (1, 4, 2), (1, 1), (1, 3.99), (1, "3"), (True, 2),
            '{"elements": [1, 2.5, 4]}', '{"elements": "1234"}', '{"elements": [1, "3"]}',
            '{"elements": 5}', '{"elements": [1, null]}', '{"elements": [1, 1e400]}',
            '{"elements": {"1": 3}}']
)
def test_invalid_elements_rejected(bad):
    with pytest.raises(BasisError):
        Basis.from_json(bad) if isinstance(bad, str) else Basis(bad)


def test_parse_and_wire_formats():
    basis = Basis.parse("1,3,4,5,8")
    assert basis.elements == (1, 3, 4, 5, 8)
    assert basis.k == 5 and basis.tail == 8
    assert Basis.parse(basis.to_text()) == basis
    assert Basis.from_json(basis.to_json()) == basis
    assert Basis.from_json(json.loads(basis.to_json())) == basis
    assert Basis.parse(" 1, 3 ,4\n") == Basis((1, 3, 4))
    # int() reads "2_0", "\u0663" and "+3" as 20, 3 and 3
    for text in ("1,2,x", "1,2_0", "1,\u0663", "1,+3", "1,-3", "1,,3", ""):
        with pytest.raises(BasisError):
            Basis.parse(text)
    with pytest.raises(BasisError, match=r"^unparseable basis text: part 3 of 3 \(length 1\) is 'x'$"):
        Basis.parse("1,2,x")
    # from CPython 3.11 (and 3.10.7) on, int() converts no more digits than this limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(BasisError, match="^unparseable basis text"):
            Basis.parse("1," + "9" * (limit + 1))
    with pytest.raises(BasisError):
        Basis.from_json('{"numbers": [1, 2]}')


@settings(max_examples=200)
@given(elements_strategy())
def test_text_round_trip(elements):
    basis = Basis(elements)
    assert Basis.parse(basis.to_text()) == basis
    assert Basis.from_json(basis.to_json()) == basis


def test_reach_set_queries():
    reach = ReachSet.of(Basis((1, 3, 4)))
    assert reach.range_n() == 8
    assert reach.contains(7) and reach.contains(8)
    assert not reach.contains(9)
    assert not reach.contains(-1)


def test_extend_reach_matches_from_scratch():
    rng = random.Random(20260815)
    for _ in range(1000):
        elems = [1]
        for _ in range(rng.randrange(1, 8)):
            elems.append(elems[-1] + rng.randrange(1, 10))
        basis = Basis(tuple(elems[:-1]))
        extended = Basis(tuple(elems))
        incremental = extend_reach(ReachSet.of(basis), basis, elems[-1])
        assert incremental == ReachSet.of(extended)


def test_extend_reach_validates_correspondence():
    basis = Basis((1, 3, 4))
    with pytest.raises(BasisError):
        extend_reach(ReachSet.of(Basis((1, 2))), basis, 9)
    with pytest.raises(BasisError):
        extend_reach(ReachSet.of(basis), basis, 4)


def test_residue_profile():
    prof = residue_profile(Basis((1, 3, 4, 5, 6, 10, 15)), 8)
    assert prof.residues == (0, 1, 3, 4, 5, 6, 2, 7)
    assert prof.complete
    assert not residue_profile(Basis((1, 2, 3)), 5).complete
    with pytest.raises(PreconditionError):
        residue_profile(Basis((1, 2)), 1)


@pytest.mark.parametrize(
    "elements, p, verdict",
    [
        ((1, 2), 3, True),
        ((1, 3, 4, 5, 6, 10, 15), 8, True),
        ((1, 3, 4, 7), 5, True),
        ((1, 2, 8), 4, False),  # 8 = 0 mod 4
        ((1, 2, 5), 4, False),  # residue 1 repeats
        ((1, 2), 4, False),  # wrong length
        ((1, 7, 9, 13), 5, False),  # residues complete but inadmissible
    ],
)
def test_is_p_basis(elements, p, verdict):
    assert is_p_basis(Basis(elements), p) is verdict


def test_symmetrize_examples():
    initial = Basis((1, 3, 4, 6, 11))
    even = symmetrize(initial, "even")
    assert even.elements == (1, 3, 4, 6, 11, 16, 18, 19, 21, 22)
    assert is_symmetric(even)
    # reflection does not inherit admissibility: the range stays at 12
    assert basis_range(even).n == basis_range(initial).n == 12
    assert not basis_range(even).admissible

    odd = symmetrize(Basis((1, 2, 4, 5, 10, 13)), "odd")
    assert odd.elements == (1, 2, 4, 5, 10, 13, 18, 19, 21, 22, 23)
    assert basis_range(odd).n == 15
    even2 = symmetrize(Basis((1, 2, 4, 5, 10, 13)), "even")
    assert even2.elements == (1, 2, 4, 5, 10, 13, 16, 21, 22, 24, 25, 26)
    assert basis_range(even2).n == 18

    assert symmetrize(Basis((1,)), "odd").elements == (1,)
    with pytest.raises(PreconditionError):
        symmetrize(initial, "both")


@settings(max_examples=300)
@given(elements_strategy(max_size=7), st.sampled_from(["even", "odd"]))
def test_symmetrize_is_symmetric(elements, parity):
    basis = symmetrize(Basis(elements), parity)
    assert is_symmetric(basis)


@settings(max_examples=300)
@given(elements_strategy(max_size=7), st.sampled_from(["even", "odd"]))
def test_admissible_symmetric_range_is_twice_top(elements, parity):
    basis = symmetrize(Basis(elements), parity)
    result = basis_range(basis)
    if result.admissible:
        assert result.n == 2 * basis.tail


def test_is_symmetric_examples():
    assert is_symmetric(Basis((1, 2, 3, 4)))
    assert is_symmetric(Basis((1,)))
    assert not is_symmetric(Basis((1, 2, 4)))


# the value classes are frozen records; a frozen dataclass on the same fields is the reference
RECORDS = [getattr(stampbase, name) for name in (
    "Basis", "RangeResult", "ReachSet", "ResidueProfile", "ExtensionReport", "StohrSequence",
    "PeriodReport", "MaximalBasisSet", "RangeTable", "BestSegments", "PBasisRecord",
    "PlusBasisRecord", "ClassStats", "RangeComparison", "TailDistribution", "MaximaRecord",
    "SymmetricClosure", "SymmetricisabilityReport",
)]


def _sample(cls):
    """Hashable values for the fields of cls, valid for Basis; another sample differs in each."""
    if cls is Basis:
        return ((1, 3, 4),), ((1, 2),)
    n = len(cls.__annotations__)
    return tuple((i, "v") for i in range(n)), tuple(range(n))


def test_records_are_the_public_value_classes():
    public = [getattr(stampbase, name) for name in stampbase.__all__]
    classes = {value for value in public
               if isinstance(value, type) and not issubclass(value, Exception)}
    assert classes == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_a_frozen_dataclass(cls):
    names = list(cls.__annotations__)
    ref_cls = dataclasses.make_dataclass(
        cls.__name__, [(name, cls.__annotations__[name]) for name in names], frozen=True)
    values, other_values = _sample(cls)
    record, ref = cls(*values), ref_cls(*values)
    assert inspect.signature(cls) == inspect.signature(ref_cls)
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == repr(ref)
    assert cls.__match_args__ == ref_cls.__match_args__ == tuple(names)

    same, other = cls(*values), cls(*other_values)
    assert record == same and not record != same and hash(record) == hash(same) == hash(ref)
    assert record != other and not record == other
    # a same-valued instance of another class is never equal, as a dataclass's is not
    assert record != ref and not record == ref

    for name in (names[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == same
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and repr(copy) == repr(record)


def test_record_values_keep_their_dataclass_behaviour():
    table = stampbase.RangeTable("plain", 10, {5: 7}, {(8, 5): 30})
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)
    for make in (lambda: Basis((1, 1)), lambda: Basis(elements=(1, 1))):
        with pytest.raises(BasisError):
            make()
    # __post_init__ stores the validated tuple, whatever sequence came in
    assert hash(Basis((1, 2))) == hash(Basis(elements=[1, 2])) == hash(((1, 2),))

"""Symmetric closures of extensible bases and the symmetricisability test.

An admissible symmetric basis (a_i + a_{k-i} = a_k throughout) has range
exactly 2*a_k, the best possible for its top element.  Gluing a mirrored
copy of an origin A_r = {1, ..., b_0} onto its arithmetic extension
b_1, ..., b_j produces the symmetric candidate

    S_j = {a_1, ..., a_r, b_1, ..., b_j, c_{r-1}, ..., c_0},
    c_i = b_j + b_0 - a_i,   k = 2r + j,

whose top is b_j + b_0 and which is symmetric by construction.  Whether it
is admissible depends on j only through a threshold: once b_m >= 2*b_0
(at m0 = ceil(b_0 / p)), admissibility of S_m is decided once and for all,
and an extensible origin is called *symmetricisable* when S_{m0} passes.
Below m0 the admissibility of individual S_j can vary freely, so the
profile over j = 0..m0 is reported alongside the verdict.

For a p-basis the origin has r = p - 1 elements; the plus variant mirrors
all r = p elements of a p-basis with one extra free element a_p, and
`is_symmetricisable` applies the same threshold test with b_0 = a_p (the
test is sufficient there).

For an extensible origin O the verdict has a difference-set form, which
`symmetricisable_raw` decides without building S_{m0}: it is admissible
iff every w in [0, b_0) is a difference a - a' of two elements of O ∪ {0}
or lies in (b_0 - a) + pℕ for some a in O.  `closure_admissible_at`
builds the closure literally from raw elements and stays as the
reference; `closure_profile` runs it at each m = 0..m0.
"""

from __future__ import annotations

from .basis import (
    Basis,
    PreconditionError,
    _record,
    coverage,
    is_p_basis,
    range_from_coverage,
)
from .extension import is_extensible, m_zero


def closure_range(b0: int, p: int, j: int) -> int:
    """Range 2*(2*b_0 + j*p) of an admissible mirrored closure."""
    return 2 * (2 * b0 + j * p)


@_record
class SymmetricClosure:
    origin: Basis
    p: int
    j: int
    elements: Basis
    mirrored_tail: tuple[int, ...]


def build_symmetric_closure(origin: Basis, p: int, j: int) -> SymmetricClosure:
    """Mirror an origin around its j-term arithmetic extension."""
    if p < 1:
        raise PreconditionError(f"step must be positive, got {p}")
    if j < 0:
        raise PreconditionError(f"extension count must be >= 0, got {j}")
    b0 = origin.tail
    bj = b0 + j * p
    ext = tuple(b0 + i * p for i in range(1, j + 1))
    with_zero = (0,) + origin.elements
    mirrored = tuple(bj + b0 - a for a in reversed(with_zero[:-1]))
    elements = Basis(origin.elements + ext + mirrored)
    assert elements.k == 2 * origin.k + j
    return SymmetricClosure(
        origin=origin, p=p, j=j, elements=elements, mirrored_tail=mirrored
    )


@_record
class SymmetricisabilityReport:
    """Admissibility profile of the mirrored closures S_0 ... S_{m0}.

    profile[m] records whether S_m is admissible; the verdict is exactly
    profile[m0], and k0_witness is the element count 2r + m0 of the closure
    that decided it.
    """

    symmetricisable: bool
    m0: int
    profile: tuple[bool, ...]
    k0_witness: int

    def to_json_dict(self) -> dict:
        return {
            "symmetricisable": self.symmetricisable,
            "m0": self.m0,
            "profile": list(self.profile),
        }


def closure_profile(origin: Basis, p: int) -> SymmetricisabilityReport:
    """Profile the closures of an origin without any domain checks."""
    m0 = m_zero(origin.tail, p)
    profile = tuple(closure_admissible_at(origin.elements, p, m) for m in range(m0 + 1))
    return SymmetricisabilityReport(
        symmetricisable=profile[m0],
        m0=m0,
        profile=profile,
        k0_witness=2 * origin.k + m0,
    )


def is_symmetricisable(basis: Basis, p: int) -> SymmetricisabilityReport:
    """Decide whether an extensible basis admits an admissible closure.

    The basis is a p-basis, or a p-basis with one free element a_p on top
    (the plus variant): p - 1 or p elements, the first p - 1 a p-basis,
    and the whole basis p-extensible with b_0 its top.  The decision is
    the single admissibility check of S_{m0}; the report carries the full
    profile below the threshold as well, since closures there may pass or
    fail independently of the verdict.
    """
    if p < 3 or basis.k not in (p - 1, p) or not is_p_basis(Basis(basis.elements[: p - 1]), p):
        raise PreconditionError(
            "symmetricisability is defined for a p-basis, alone or with one free element on top"
        )
    if not is_extensible(basis, p).extensible:
        raise PreconditionError("symmetricisability needs an extensible basis")
    return closure_profile(basis, p)


def closure_admissible_at(origin_elements: tuple[int, ...], p: int, m: int) -> bool:
    """Fast path: admissibility of S_m for raw origin elements."""
    b0 = origin_elements[-1]
    bm = b0 + m * p
    ext = tuple(b0 + i * p for i in range(1, m + 1))
    mirrored = tuple(bm + b0 - a for a in reversed((0,) + origin_elements[:-1]))
    elems = origin_elements + ext + mirrored
    cov, _ = coverage(elems)
    return range_from_coverage(cov) >= elems[-1]


def symmetricisable_raw(elems: tuple[int, ...], mask: int, p: int) -> bool:
    """Symmetricisability of an extensible origin, from its elements and element mask.

    Proof of the difference-set form: the origin's extension covers
    1..b_m, so S_m (m = m0) is admissible iff it covers b_m + b_0 - w for
    every w in [0, b_0).  A mirror term c = b_m + b_0 - a (a in O ∪ {0},
    and c = b_m for a = b_0) plus a' in O ∪ {0} lands on w = a - a'.  An
    arithmetic term b_i plus a in O lands on w = (b_0 - a) + (m - i)p.
    Two arithmetic terms land on multiples of p, which a = b_0 gives
    already; two origin elements land at most on 2b_0 <= b_m; and a
    mirror term plus an arithmetic or mirror term lands above b_m + b_0.
    `mirror` holds every b_0 - a copied up its residue class past b_0.
    """
    b0 = elems[-1]
    differences, mirror = mask, 0
    for a in elems:
        differences |= mask >> a
        mirror |= 1 << b0 - a
    shift = p
    while shift < b0:  # after m doublings, the copies b_0 - a + j*p for j < 2^m
        mirror |= mirror << shift
        shift <<= 1
    low = (1 << b0) - 1  # w = 0..b_0 - 1
    return (differences | mirror) & low == low

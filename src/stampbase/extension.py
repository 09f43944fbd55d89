"""Arithmetic extensions of a basis and the extensibility decision procedure.

Appending b_i = b_{i-1} + p repeatedly to a basis A_j with top element b_0
gives the extensions A_{j+1}, A_{j+2}, ...  A_j is *p-extensible* when every
A_{j+i} stays admissible.  Two structural facts drive the decision:

* extensibility forces the residues of {a_0, ..., a_j} to cover all p
  classes mod p (values just below a large b_i can only be generated as
  b_i minus something, which walks the residues), and
* admissibility of the extensions is monotone, and becomes self-sustaining
  once the extension clears 2*b_0: with complete residues, if A_{j+k} is
  admissible at the threshold index k* (the k with b_k < 2*b_0 <= b_{k+1}),
  every later extension is admissible too.

So the whole infinite question collapses to one range check at k*.  The
statistic s records the largest i with A_{j+i} admissible; for a basis that
fails the test, s < k*, and published families show every value of the gap
k* - s is realized, so the threshold cannot be lowered.

Stohr sequences instead append the greedy choice a_{j+1} = n(A_j) + 1.
For extensible bases the greedy increments eventually settle to the exact
period p; in general they settle into longer periodic patterns whose
period sum is structurally bounded, which `periodic_scan` detects.
"""

from __future__ import annotations

from .basis import (
    Basis,
    PreconditionError,
    _coverage_to_gap,
    _record,
    coverage,
    extend_coverage,
    first_gap,
    is_p_basis,
    range_from_coverage,
    residue_profile,
)


def extend_arithmetic(base: Basis, p: int, m: int) -> Basis:
    """A_{j+m}: the basis plus m further terms in steps of p."""
    if p < 1:
        raise PreconditionError(f"step must be positive, got {p}")
    if m < 0:
        raise PreconditionError(f"extension count must be >= 0, got {m}")
    b0 = base.tail
    return Basis(base.elements + tuple(b0 + i * p for i in range(1, m + 1)))


def extension_threshold(b0: int, p: int) -> int:
    """The index k* with b_{k*} < 2*b_0 <= b_{k*+1} for b_i = b_0 + i*p."""
    if p < 1 or b0 < 1:
        raise PreconditionError("threshold needs positive top element and step")
    return (b0 + p - 1) // p - 1


def m_zero(b0: int, p: int) -> int:
    """Smallest m with b_m = b_0 + m*p >= 2*b_0."""
    return extension_threshold(b0, p) + 1


@_record
class ExtensionReport:
    """Verdict of the extensibility test.

    s is the largest i with A_{j+i} admissible; None marks the unbounded
    case (the basis is extensible, so there is no largest i).  When the
    verdict is negative the stepping stops at k_star, so s <= k_star.
    """

    extensible: bool
    k_star: int
    s: int | None
    residues_complete: bool

    def to_json_dict(self) -> dict:
        return {
            "extensible": self.extensible,
            "k_star": self.k_star,
            "s": "unbounded" if self.s is None else self.s,
            "residues_complete": self.residues_complete,
        }


def is_extensible(base: Basis, p: int) -> ExtensionReport:
    """Decide p-extensibility of a basis by one threshold range check.

    Residue coverage mod p is tested first; an incomplete profile already
    settles the verdict.  Otherwise arithmetic extensions are stepped up to
    the threshold index k*, checking admissibility incrementally; reaching
    k* admissible is conclusive.  Admissibility of extensions is monotone
    (a gap below the current top can never be generated later), so the
    first failure fixes s exactly.
    """
    return _extension_walk(base, p)[0]


def _extension_walk(base: Basis, p: int) -> tuple[ExtensionReport, int, int]:
    """`is_extensible`'s report, and the coverage masks of the extension where its walk
    stopped: A_{j+k*}, or else the first inadmissible one."""
    if p < 2:
        raise PreconditionError(f"extension step must be at least 2, got {p}")
    b0 = base.tail
    k_star = extension_threshold(b0, p)
    complete = residue_profile(base, p).complete
    cov, mask = _coverage_to_gap(base.elements)  # no bitmask as wide as the base's gap
    for i in range(k_star + 1):
        if i:
            cov, mask = extend_coverage(cov, mask, b0 + i * p)
        if range_from_coverage(cov) < b0 + i * p:  # A_{j+i} is the first inadmissible one
            return ExtensionReport(False, k_star, i - 1, complete), cov, mask
    # admissible through k*; conclusive when the residues cooperate
    return ExtensionReport(complete, k_star, None if complete else k_star, complete), cov, mask


@_record
class StohrSequence:
    """Greedy continuation terms a_{j+i+1} = n(A_{j+i}) + 1 and their steps."""

    seed: Basis
    terms: tuple[int, ...]
    increments: tuple[int, ...]  # first differences, starting from the seed top


def stohr_sequence(seed: Basis, count: int) -> StohrSequence:
    """Generate `count` greedy continuation terms from an admissible seed."""
    if count < 0:
        raise PreconditionError(f"term count must be >= 0, got {count}")
    cov, mask = _coverage_to_gap(seed.elements)  # no bitmask as wide as the seed's gap
    if range_from_coverage(cov) < seed.tail:
        raise PreconditionError("greedy continuation needs an admissible seed")
    terms = []
    for _ in range(count):  # each term is the first gap n + 1
        terms.append(first_gap(cov))
        cov, mask = extend_coverage(cov, mask, terms[-1])
    increments = tuple(b - a for a, b in zip((seed.tail, *terms), terms))
    return StohrSequence(seed=seed, terms=tuple(terms), increments=increments)


def extension_range_identity(pbasis: Basis, p: int, k_max: int) -> bool:
    """Check n(A_{p-1+k}) = b_{k+1} - 1 for every k <= k_max past the threshold.

    Once the arithmetic extension of an extensible p-basis clears 2*b_0
    (that is, b_{k+1} >= 2*b_0), the range is pinned exactly one short of
    the next term, so consecutive ranges step by p.  Below the threshold
    the range may exceed b_{k+1} - 1; those k are out of scope.
    """
    if not is_p_basis(pbasis, p):
        raise PreconditionError("range identity is stated for p-bases")
    report, cov, mask = _extension_walk(pbasis, p)
    if not report.extensible:
        raise PreconditionError("range identity needs an extensible basis")
    # k* is the first k with b_{k+1} >= 2*b_0, and the walk stopped at A_{j+k*}
    b0, k_star = pbasis.tail, report.k_star
    for k in range(k_star, k_max + 1):
        if k > k_star:
            cov, mask = extend_coverage(cov, mask, b0 + k * p)
        if range_from_coverage(cov) != b0 + (k + 1) * p - 1:
            return False
    return True


@_record
class PeriodReport:
    """Detected repetition in greedy-continuation increments.

    period_sum is the sum K over one period of length period_length; the
    long-run average increment is the exact rational K / period_length.
    The repetition is verified over `verified_periods` consecutive periods
    only, so this is a certificate of observed periodicity, not a proof.
    """

    preperiod: int
    period_length: int
    period_sum: int
    pattern: tuple[int, ...]
    verified_periods: int

    @property
    def average(self) -> Fraction:
        from fractions import Fraction  # only the period scan needs it, not a table's start-up
        return Fraction(self.period_sum, self.period_length)

    def to_json_dict(self) -> dict:
        avg = self.average
        return {
            "preperiod": self.preperiod,
            "period_length": self.period_length,
            "period_sum": self.period_sum,
            "pattern": list(self.pattern),
            "average_num": avg.numerator,
            "average_den": avg.denominator,
            "verified_periods": self.verified_periods,
        }


def periodic_scan(
    seed: Basis, max_terms: int, verify_periods: int = 3
) -> PeriodReport | None:
    """Search greedy-continuation increments for a repeating pattern.

    Generates max_terms terms, then reports the lexicographically smallest
    (preperiod, period_length) whose pattern repeats over verify_periods
    consecutive periods, or None when nothing repeats inside the window.
    """
    if verify_periods < 2:
        raise PreconditionError("period verification needs at least 2 periods")
    inc = stohr_sequence(seed, max_terms).increments
    for pre in range(len(inc)):
        avail = len(inc) - pre
        for n in range(1, avail // verify_periods + 1):
            pattern = inc[pre : pre + n]
            if pattern * verify_periods == inc[pre : pre + n * verify_periods]:
                return PeriodReport(
                    preperiod=pre,
                    period_length=n,
                    period_sum=sum(pattern),
                    pattern=pattern,
                    verified_periods=verify_periods,
                )
    return None


def period_bound(n: int, p: int) -> int:
    """Structural cap n*p + n*(n+1)/2 on the sum of one increment period."""
    if n < 1 or p < 1:
        raise PreconditionError("bound needs positive period length and step")
    return n * p + n * (n + 1) // 2


def extensible_completion(base: Basis, p: int) -> Basis:
    """Fill the gaps of an arithmetic extension to force extensibility.

    The base (complete residues mod p required) is extended arithmetically
    to the first term b_m >= 2*b_0; every value <= b_m that the extension
    cannot generate is adjoined as an element.  The result is admissible by
    construction and extensible because it is admissible at its own
    threshold index.
    """
    if not residue_profile(base, p).complete:
        raise PreconditionError(
            f"completion needs all residues mod {p} present in the base"
        )
    extended = extend_arithmetic(base, p, m_zero(base.tail, p))  # to the first b_m >= 2*b_0
    cov, _ = coverage(extended.elements)
    top = extended.tail
    gaps = tuple(x for x in range(1, top) if not (cov >> x) & 1)
    return Basis(tuple(sorted(extended.elements + gaps)))

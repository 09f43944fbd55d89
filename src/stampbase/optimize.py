"""Extremal tables: best symmetricisable bases and the ranges they reach.

For each p the enumeration yields the symmetricisable records with the
largest tail (plain mode: largest a_{p-1}; plus mode: largest a_p - p,
which makes closures of equal element count comparable across modes).
Mirroring such a record at j arithmetic terms gives a symmetric basis on
k = 2(p-1) + j elements with range exactly 2*(2*tail + j*p) whenever the
closure is admissible: guaranteed at and above the threshold m0, checked
individually below it.  Tabulating those ranges over k and p and taking
the per-k winners yields the segment table of which p is best where; ties
produce overlapping segments at the boundary.
"""

from __future__ import annotations

from .basis import Basis, PreconditionError, _record
from .search import BasisDFS, _fold, _mode_levels
from .symmetric import closure_profile, closure_range, m_zero


@_record
class MaximalBasisSet:
    """All symmetricisable records attaining the maximal tail for one p."""

    p: int
    mode: str
    tail: int
    bases: tuple[Basis, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "mode": self.mode,
            "tail": self.tail,
            "bases": [list(b.elements) for b in self.bases],
        }


def maximal_symmetricisable(
    p: int, mode: str = "plain", node_budget: int | None = None, threads: int = 1
) -> MaximalBasisSet:
    """Symmetricisable bases with the largest tail, ties included.

    The tail is a strictly increasing function of the last element, so
    once a symmetricisable basis is found no leaf with a smaller last
    element can win.  The walk's "maximal" fold classifies the leaves in
    its kernel and keeps the symmetricisable ones with the largest last
    element, in walk order.  That element is the fold's floor: the leaves
    below it are counted but neither built nor classified.  With `threads`
    above 1 each subtree keeps a floor of its own, and the subtrees that
    reach the largest top give the ties, in walk order again.
    """
    total, shift = _mode_levels(p, mode)
    best = _fold(BasisDFS(p, total, constrained=p - 1, node_budget=node_budget), "maximal", threads)
    if not best:
        raise PreconditionError(f"no symmetricisable basis exists for p = {p}")
    bases = tuple(map(Basis, best))
    return MaximalBasisSet(p=p, mode=mode, tail=bases[0].elements[-1] - shift, bases=bases)


@_record
class RangeTable:
    """Grid (k, p) -> range of the best admissible mirrored closure."""

    mode: str
    k_max: int
    tails: dict[int, int]
    entries: dict[tuple[int, int], int]

    def ps(self) -> list[int]:
        return sorted(self.tails)

    def ks(self) -> list[int]:
        return sorted({k for k, _ in self.entries})


def range_table(
    p_list,
    k_max: int,
    mode: str = "plain",
    maxima: dict[int, MaximalBasisSet] | None = None,
    node_budget: int | None = None,
    threads: int = 1,
) -> RangeTable:
    """Closure ranges 2*(2*tail + j*p) at every realizable (k, p).

    A closure on k elements mirrors the records' `levels` elements around
    m = k - 2*levels arithmetic terms, so each entry is
    `closure_range(b_0, p, m)` of the top b_0 = tail + shift that every
    maximal basis shares (levels and shift from `_mode_levels`).  An entry
    appears when any maximal basis has an admissible closure there; below
    the threshold m0 that is read off the profile, above it is automatic.
    """
    tails: dict[int, int] = {}
    entries: dict[tuple[int, int], int] = {}
    for p in p_list:
        levels, shift = _mode_levels(p, mode)
        mset = (maxima or {}).get(p)
        if mset is None:
            mset = maximal_symmetricisable(p, mode, node_budget=node_budget, threads=threads)
        elif (mset.p, mset.mode) != (p, mode) or not mset.bases:
            raise PreconditionError(
                f"maximal set for p={p} is {mset.mode!r} at p={mset.p} (bases: {len(mset.bases)}), "
                f"table wants {mode!r} at p={p} and at least one basis"
            )
        b0 = mset.tail + shift
        if any(basis.tail != b0 for basis in mset.bases):
            raise PreconditionError(
                f"maximal set for p={p} has bases with tops other than tail + {shift} = {b0}"
            )
        tails[p] = mset.tail
        m0 = m_zero(b0, p)
        admissible_m = set()
        for basis in mset.bases:
            profile = closure_profile(basis, p).profile
            admissible_m.update(m for m, ok in enumerate(profile) if ok)
        for k in range(2 * levels, k_max + 1):
            m = k - 2 * levels
            if m >= m0 or m in admissible_m:
                entries[(k, p)] = closure_range(b0, p, m)
    return RangeTable(mode=mode, k_max=k_max, tails=tails, entries=entries)


@_record
class BestSegments:
    """Winning p per k, compressed into runs (ties overlap at boundaries)."""

    mode: str
    rows: tuple[tuple[int, int, int, int], ...]  # (k_min, k_max, range, p)


def best_segments(table: RangeTable) -> BestSegments:
    by_k: dict[int, dict[int, int]] = {}
    for (k, p), value in table.entries.items():
        by_k.setdefault(k, {})[p] = value
    winner_ks: dict[int, list[int]] = {}
    for k, column in by_k.items():
        best = max(column.values())
        for p, value in column.items():
            if value == best:
                winner_ks.setdefault(p, []).append(k)
    rows = []
    for p, ks in winner_ks.items():
        ks.sort()
        start = prev = ks[0]
        for k in ks[1:] + [None]:
            if k is not None and k == prev + 1:
                prev = k
                continue
            rows.append((start, prev, table.entries[(start, p)], p))
            if k is not None:
                start = prev = k
    rows.sort(key=lambda row: (row[0], row[1], row[3]))
    return BestSegments(mode=table.mode, rows=tuple(rows))

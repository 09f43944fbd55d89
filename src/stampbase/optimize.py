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

from dataclasses import dataclass

from .basis import Basis, PreconditionError
from .search import BasisDFS, _mode_levels, classify_raw
from .symmetric import closure_profile


@dataclass(frozen=True)
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
    p: int, mode: str = "plain", node_budget: int | None = None
) -> MaximalBasisSet:
    """Symmetricisable bases with the largest tail, ties included.

    The tail is a strictly increasing function of the last element, so
    once a symmetricisable basis is found no leaf with a smaller last
    element can win: the search floor rises to each new best, and the
    leaves below it are counted but neither built nor classified.
    """
    total, shift = _mode_levels(p, mode)
    dfs = BasisDFS(p, total, constrained=p - 1, node_budget=node_budget)
    best_tail = -1
    best: list[Basis] = []
    for elems in dfs:  # below the floor nothing comes out, so tail >= best_tail
        if not classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)[1]:
            continue
        tail = elems[-1] - shift
        if tail > best_tail:
            best_tail, best = tail, []
            dfs.floor = elems[-1]
        best.append(Basis(elems))
    if best_tail < 0:
        raise PreconditionError(f"no symmetricisable basis exists for p = {p}")
    return MaximalBasisSet(p=p, mode=mode, tail=best_tail, bases=tuple(best))


@dataclass(frozen=True)
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
) -> RangeTable:
    """Closure ranges 2*(2*tail + j*p) at every realizable (k, p).

    j = k - 2(p-1) counts arithmetic terms past the mirrored record (in
    plus mode the two extra mirrored elements absorb two of them).  An
    entry appears when any maximal basis has an admissible closure there;
    below the threshold that is read off the profile, above it is automatic.
    """
    tails: dict[int, int] = {}
    entries: dict[tuple[int, int], int] = {}
    for p in p_list:
        mset = (maxima or {}).get(p)
        if mset is None:
            mset = maximal_symmetricisable(p, mode, node_budget=node_budget)
        elif mset.mode != mode:
            raise PreconditionError(
                f"maximal set for p={p} is {mset.mode!r}, table wants {mode!r}"
            )
        tails[p] = mset.tail
        offset = 0 if mode == "plain" else 2  # m = j - offset
        admissible_j = set()
        m0 = None
        for basis in mset.bases:
            profile = closure_profile(basis, p)
            m0 = profile.m0
            admissible_j.update(
                m + offset for m, ok in enumerate(profile.profile) if ok
            )
        j_threshold = m0 + offset
        for k in range(2 * (p - 1), k_max + 1):
            j = k - 2 * (p - 1)
            if j >= j_threshold or j in admissible_j:
                entries[(k, p)] = 2 * (2 * mset.tail + j * p)
    return RangeTable(mode=mode, k_max=k_max, tails=tails, entries=entries)


@dataclass(frozen=True)
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

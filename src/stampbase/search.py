"""Exhaustive enumeration of p-bases with pruning, classification and records.

A p-basis is an admissible basis of exactly p-1 elements whose residues
mod p hit every nonzero class exactly once.  Elements are chosen in
increasing order; since a value left ungenerated below the current top can
never be generated by later (strictly larger) elements, every element must
satisfy a_{t+1} <= n(A_t) + 1, and conversely that constraint at each step
already guarantees admissibility of the finished basis.  The search tree
is therefore exactly the tree of admissible prefixes with distinct nonzero
residues, and the enumeration visits each p-basis once, in lexicographic
order.

The engine below runs that tree iteratively with an explicit stack, which
makes three facilities cheap:

* a resumable frontier (current prefix plus one next-candidate cursor per
  level) serialized to a small JSON checkpoint,
* deterministic subtree partitioning for data-parallel runs (workers get
  disjoint prefixes in lexicographic order and results merge in order),
* node budgets that abort runaway searches with partial results flagged.

Plus-mode searches reuse the same engine with extra residue-free levels:
a p+-basis carries one free element a_p <= n(A_{p-1}) + 1 on top of a
p-basis, compared against others by the tail a_p - p.
"""

from __future__ import annotations

import bisect
import json
import math
import multiprocessing
import os
from dataclasses import dataclass

from .basis import (
    Basis,
    PreconditionError,
    extend_coverage,
    first_gap,
    range_from_coverage,
)
from .extension import is_extensible
from .symmetric import closure_admissible_at, closure_profile

DEFAULT_NODE_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """The search visited more nodes than the configured budget allows."""

    def __init__(self, visited: int, budget: int, partial=None):
        super().__init__(f"node budget exceeded: visited {visited} > {budget}")
        self.visited = visited
        self.budget = budget
        self.partial = partial  # whatever the caller had gathered, flagged partial


class BasisDFS:
    """Iterative DFS over admissible prefixes with residue bookkeeping.

    Yields element tuples of length `total`.  The first `constrained`
    levels must use distinct nonzero residues mod p; any further levels
    are free (used for the extra elements of plus-mode searches).  After a
    yield, leaf_cov / leaf_mask / leaf_n hold the coverage state of the
    yielded basis so consumers can continue incrementally.

    Every node counts towards `visited`, leaves included, but leaves are
    visited in a loop over the candidates of their parent rather than
    pushed as levels of their own; where one residue is left, those
    candidates form an arithmetic progression with step p.  Setting
    `floor` withholds the leaves whose last element is below it: they are
    counted arithmetically, so `visited` and the node budget still see
    them, but no tuple or coverage is built for them.
    """

    def __init__(
        self,
        p: int,
        total: int,
        constrained: int | None = None,
        state: dict | None = None,
        min_height: int = 1,
        node_budget: int | None = None,
    ):
        if p < 3:
            raise PreconditionError(f"enumeration needs p >= 3, got {p}")
        if total < 1:
            raise PreconditionError(f"need at least one level, got {total}")
        constrained = total if constrained is None else constrained
        if constrained > p - 1:
            raise PreconditionError(
                f"only p - 1 = {p - 1} levels can take distinct nonzero residues, "
                f"not {constrained}"
            )
        self.p = p
        self.total = total
        self.constrained = constrained
        self.min_height = min_height
        self.node_budget = node_budget
        self.floor = 0
        self.visited = 0
        self.leaf_cov = self.leaf_mask = None
        self._elems: list[int] = []
        self._cursors: list[int] = []
        # per level: (coverage, element mask, n + 1, nonzero residues still free)
        self._frames: list[tuple[int, int, int, int]] = []
        if state is None:
            self._elems.append(1)
            self._cursors.append(2)
            self._frames.append(_child(_empty_frame(p), 1, p))
            self.visited = 1
            if node_budget is not None and node_budget < 1:
                raise BudgetExceededError(1, node_budget)
        else:
            self._restore(state)
        self._walker = self._walk()

    @property
    def leaf_n(self) -> int | None:
        """Range of the last yielded leaf."""
        if self.leaf_cov is None:
            return None
        return range_from_coverage(self.leaf_cov)

    def _restore(self, state: dict) -> None:
        """Replay a saved frontier, rejecting any that no walk could reach."""
        p = self.p
        prefix = list(state["prefix"])
        cursors = list(state["cursors"])
        visited = state.get("visited", len(prefix))
        if state.get("p", p) != p:
            raise PreconditionError(f"corrupt state: saved for p={state['p']}, not {p}")
        if len(prefix) != len(cursors):
            raise PreconditionError("corrupt state: prefix/cursor length mismatch")
        if len(prefix) > self.total:
            raise PreconditionError("corrupt state: prefix is deeper than the search")
        if any(type(x) is not int for x in prefix + cursors + [visited]):
            raise PreconditionError("corrupt state: entries must be integers")
        frame, prev = _empty_frame(p), 0
        for level, c in enumerate(prefix):
            _, _, limit, free = frame
            if not prev < c <= limit:
                raise PreconditionError(
                    f"corrupt state: element {c} at level {level} is outside "
                    f"({prev}, n + 1 = {limit}]"
                )
            r = c % p
            if level < self.constrained and not (free >> r) & 1:
                raise PreconditionError(
                    f"corrupt state: element {c} at level {level} repeats "
                    f"residue {r} mod {p} or is divisible by it"
                )
            frame, prev = _child(frame, c, p), c
            self._frames.append(frame)
        # levels below min_height - 1 are never resumed, so their cursors are free
        for level in range(max(self.min_height - 1, 0), len(prefix) - 1):
            if cursors[level] != prefix[level + 1] + 1:
                raise PreconditionError(
                    f"corrupt state: cursor {cursors[level]} at level {level} "
                    f"does not follow element {prefix[level + 1]}"
                )
        if prefix and not prefix[-1] < cursors[-1] <= frame[2] + 1:
            raise PreconditionError(
                f"corrupt state: last cursor {cursors[-1]} is outside "
                f"({prefix[-1]}, n + 2 = {frame[2] + 1}]"
            )
        if visited < len(prefix):
            raise PreconditionError("corrupt state: fewer nodes visited than the prefix holds")
        self._elems[:] = prefix
        self._cursors[:] = cursors
        self.visited = visited

    def state(self) -> dict:
        """Serializable frontier; restoring it resumes exactly here."""
        return {
            "p": self.p,
            "prefix": list(self._elems),
            "cursors": list(self._cursors),
            "visited": self.visited,
        }

    def __iter__(self):
        # the walk itself, so a for loop resumes it with no call per leaf
        return self._walker

    def __next__(self) -> tuple[int, ...]:
        return next(self._walker)

    def _over_budget(self, visited: int) -> BudgetExceededError:
        self.visited = visited = min(visited, self.node_budget + 1)
        return BudgetExceededError(visited, self.node_budget)

    def _walk(self):
        """The DFS proper; `_elems`, `_cursors` and `visited` are current at each yield."""
        p, total, constrained = self.p, self.total, self.constrained
        cap = math.inf if self.node_budget is None else self.node_budget
        elems, cursors, frames = self._elems, self._cursors, self._frames
        min_height, leaf_parent = self.min_height, total - 1
        visited = self.visited
        while elems:
            depth = len(elems)
            cov, mask, limit, free = frames[-1]
            c = cursors[-1]
            if depth == leaf_parent:
                head = tuple(elems)
                if depth >= constrained:
                    cands = range(c, limit + 1)
                elif free & (free - 1) == 0:  # one residue left
                    c += (free.bit_length() - 1 - c) % p
                    cands = range(c, limit + 1, p)
                else:
                    cands = [x for x in range(c, limit + 1) if (free >> (x % p)) & 1]
                i, end = 0, len(cands)
                while i < end:
                    c = cands[i]
                    if c < self.floor:
                        j = bisect.bisect_left(cands, self.floor, i)
                        visited += j - i
                        if visited > cap:
                            raise self._over_budget(visited)
                        i = j
                        continue
                    visited += 1
                    if visited > cap:
                        raise self._over_budget(visited)
                    self.visited = visited
                    cursors[-1] = c + 1
                    self.leaf_cov = cov | (mask << c) | (1 << (2 * c))
                    self.leaf_mask = mask | (1 << c)
                    yield head + (c,)
                    i += 1
            elif depth < total:
                if depth < constrained:
                    # jump to the next candidate whose residue is still free
                    r = c % p
                    above = free >> r
                    if above:
                        c += (above & -above).bit_length() - 1
                    else:
                        c += p - r + (free & -free).bit_length() - 1
                if c <= limit:
                    cursors[-1] = c + 1
                    cov |= (mask << c) | (1 << (2 * c))
                    elems.append(c)
                    cursors.append(c + 1)
                    frames.append((
                        cov,
                        mask | (1 << c),
                        ((~cov) & (cov + 1)).bit_length() - 1,
                        free & ~(1 << (c % p)),
                    ))
                    visited += 1
                    if visited > cap:
                        raise self._over_budget(visited)
                    continue
            else:
                # a leaf pushed as a level: total == 1, or a restored full prefix
                leaf = tuple(elems)
                self.leaf_cov, self.leaf_mask = cov, mask
            elems.pop()
            cursors.pop()
            frames.pop()
            if depth <= min_height:
                elems.clear()
                cursors.clear()
                frames.clear()
            if depth == total:
                self.visited = visited
                yield leaf
        self.visited = visited


def _empty_frame(p: int) -> tuple[int, int, int, int]:
    """The empty prefix: only 0 is covered, so the first element must be 1."""
    return 1, 1, 1, (1 << p) - 2


def _child(frame: tuple[int, int, int, int], c: int, p: int) -> tuple[int, int, int, int]:
    """Frame of a prefix after appending c to the prefix described by `frame`."""
    cov, mask, _, free = frame
    cov, mask = extend_coverage(cov, mask, c)
    return cov, mask, first_gap(cov), free & ~(1 << (c % p))


def subtree_prefixes(p: int, total: int, constrained: int, depth: int) -> list:
    """All valid search prefixes of the given depth, in lexicographic order."""
    depth = max(1, min(depth, total - 1))
    return list(BasisDFS(p, depth, constrained=min(constrained, depth)))


def _subtree_dfs(p, total, constrained, prefix) -> BasisDFS:
    state = {"p": p, "prefix": list(prefix), "cursors": [c + 1 for c in prefix]}
    return BasisDFS(
        p, total, constrained=constrained, state=state, min_height=len(prefix)
    )


def _split_depth(p: int) -> int:
    return max(1, min(4, p - 2))


def classify_raw(elems: tuple[int, ...], cov: int, mask: int, p: int):
    """(extensible, symmetricisable) for a basis with complete residues.

    Arithmetic extensions are checked incrementally up to the threshold
    index; a pass there settles extensibility, and then one mirrored
    closure at the symmetric threshold settles symmetricisability.
    """
    b0 = elems[-1]
    k_star = (b0 + p - 1) // p - 1
    for i in range(1, k_star + 1):
        t = b0 + i * p
        cov, mask = extend_coverage(cov, mask, t)
        if range_from_coverage(cov) < t:
            return False, False
    return True, closure_admissible_at(elems, p, k_star + 1)


@dataclass(frozen=True)
class PBasisRecord:
    basis: Basis
    p: int
    tail: int
    extensible: bool
    symmetricisable: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "basis": list(self.basis.elements),
            "tail": self.tail,
            "extensible": self.extensible,
            "symmetricisable": self.symmetricisable,
        }


@dataclass(frozen=True)
class PlusBasisRecord:
    basis: Basis
    p: int
    a_p: int
    comparison_tail: int
    extensible: bool
    symmetricisable: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "basis": list(self.basis.elements),
            "tail": self.comparison_tail,
            "extensible": self.extensible,
            "symmetricisable": self.symmetricisable,
        }


def iter_p_bases(p: int, node_budget: int | None = None):
    """All p-bases as Basis objects, lexicographically."""
    for elems in BasisDFS(p, p - 1, node_budget=node_budget):
        yield Basis(elems)


def enumerate_p_bases(p: int, visitor=None, node_budget: int | None = None) -> int:
    """Visit every p-basis once in lexicographic order; returns the count."""
    count = 0
    for basis in iter_p_bases(p, node_budget=node_budget):
        count += 1
        if visitor is not None:
            visitor(basis)
    return count


def classify_basis(basis: Basis, p: int) -> PBasisRecord:
    """Classification record for one p-basis via the full decision procedures."""
    report = is_extensible(basis, p)
    symmetricisable = (
        report.extensible and closure_profile(basis, p).symmetricisable
    )
    return PBasisRecord(
        basis=basis,
        p=p,
        tail=basis.tail,
        extensible=report.extensible,
        symmetricisable=symmetricisable,
    )


def iter_classified(p: int, node_budget: int | None = None):
    """PBasisRecord stream over all p-bases (fast incremental classification)."""
    dfs = BasisDFS(p, p - 1, node_budget=node_budget)
    for elems in dfs:
        ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
        yield PBasisRecord(
            basis=Basis(elems),
            p=p,
            tail=elems[-1],
            extensible=ext,
            symmetricisable=sym,
        )


@dataclass(frozen=True)
class ClassStats:
    p: int
    n_p: int
    n_e: int
    n_s: int

    @property
    def pct_e(self) -> float:
        return 100.0 * self.n_e / self.n_p if self.n_p else 0.0

    @property
    def pct_s(self) -> float:
        return 100.0 * self.n_s / self.n_e if self.n_e else 0.0


def _count_classes(dfs: BasisDFS, p: int) -> tuple[int, int, int]:
    n_p = n_e = n_s = 0
    for elems in dfs:
        n_p += 1
        ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
        n_e += ext
        n_s += sym
    return n_p, n_e, n_s


def _classify_subtree(args) -> tuple[int, int, int]:
    p, prefix = args
    return _count_classes(_subtree_dfs(p, p - 1, p - 1, prefix), p)


def _reject_budget_with_threads(threads: int, node_budget: int | None) -> None:
    # each worker would count its own subtree only; one global cap is still open
    if threads > 1 and node_budget is not None:
        raise PreconditionError("a node budget requires a single-threaded run")


def classify(p: int, threads: int = 1, node_budget: int | None = None) -> ClassStats:
    """Counts (n_p, n_e, n_s) of all / extensible / symmetricisable p-bases."""
    _reject_budget_with_threads(threads, node_budget)
    if threads <= 1:
        dfs = BasisDFS(p, p - 1, node_budget=node_budget)
        n_p, n_e, n_s = _count_classes(dfs, p)
        return ClassStats(p=p, n_p=n_p, n_e=n_e, n_s=n_s)
    prefixes = subtree_prefixes(p, p - 1, p - 1, _split_depth(p))
    with multiprocessing.Pool(threads) as pool:
        parts = pool.map(_classify_subtree, [(p, pre) for pre in prefixes])
    n_p = sum(a for a, _, _ in parts)
    n_e = sum(b for _, b, _ in parts)
    n_s = sum(c for _, _, c in parts)
    return ClassStats(p=p, n_p=n_p, n_e=n_e, n_s=n_s)


@dataclass(frozen=True)
class RangeComparison:
    """How ranges of p-bases compare against the yardstick a_{p-1} + p - 1."""

    p: int
    below: int
    equal: int
    above: int


def range_comparison_stats(p: int, node_budget: int | None = None) -> RangeComparison:
    below = equal = above = 0
    dfs = BasisDFS(p, p - 1, node_budget=node_budget)
    for elems in dfs:
        yardstick = elems[-1] + p - 1
        if dfs.leaf_n < yardstick:
            below += 1
        elif dfs.leaf_n == yardstick:
            equal += 1
        else:
            above += 1
    return RangeComparison(p=p, below=below, equal=equal, above=above)


def iter_p_plus(p: int, depth: int = 1, node_budget: int | None = None):
    """PlusBasisRecord stream: p-bases with `depth` extra free elements."""
    dfs = BasisDFS(
        p, p - 1 + depth, constrained=p - 1, node_budget=node_budget
    )
    for elems in dfs:
        ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
        yield PlusBasisRecord(
            basis=Basis(elems),
            p=p,
            a_p=elems[p - 1],
            comparison_tail=elems[-1] - depth * p,
            extensible=ext,
            symmetricisable=sym,
        )


def enumerate_p_plus(p: int, visitor=None) -> int:
    """Visit every p+-basis (one free element) with its classification flags."""
    count = 0
    for record in iter_p_plus(p, depth=1):
        count += 1
        if visitor is not None:
            visitor(record)
    return count


@dataclass(frozen=True)
class DepthSearchResult:
    p: int
    depth: int
    records: tuple[PlusBasisRecord, ...]  # the symmetricisable ones
    max_tail: int | None
    visited: int


def plus_depth_search(
    p: int, depth: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> DepthSearchResult:
    """Search `depth` free elements beyond a p-basis for symmetricisable records.

    Exceeding the node budget aborts with the records gathered so far
    attached to the error as flagged partial results.
    """
    if depth < 1:
        raise PreconditionError(f"depth must be >= 1, got {depth}")
    records = []
    dfs = BasisDFS(p, p - 1 + depth, constrained=p - 1, node_budget=node_budget)
    try:
        for elems in dfs:
            ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
            if sym:
                records.append(
                    PlusBasisRecord(
                        basis=Basis(elems),
                        p=p,
                        a_p=elems[p - 1],
                        comparison_tail=elems[-1] - depth * p,
                        extensible=ext,
                        symmetricisable=sym,
                    )
                )
    except BudgetExceededError as err:
        err.partial = DepthSearchResult(
            p=p,
            depth=depth,
            records=tuple(records),
            max_tail=max((r.comparison_tail for r in records), default=None),
            visited=err.visited,
        )
        raise
    return DepthSearchResult(
        p=p,
        depth=depth,
        records=tuple(records),
        max_tail=max((r.comparison_tail for r in records), default=None),
        visited=dfs.visited,
    )


@dataclass(frozen=True)
class TailDistribution:
    """Per-tail counts (n_p, n_e, n_s) from the smallest possible tail to v1.

    Tails congruent to 0 or 1 mod p cannot occur (the top residue is
    nonzero and residue 1 is taken by a_1), so those rows are zero.
    """

    p: int
    rows: tuple[tuple[int, int, int, int], ...]  # (tail, n_p, n_e, n_s)


def tail_distribution(p: int, node_budget: int | None = None) -> TailDistribution:
    counts: dict[int, list[int]] = {}
    for rec in iter_classified(p, node_budget=node_budget):
        row = counts.setdefault(rec.tail, [0, 0, 0])
        row[0] += 1
        row[1] += rec.extensible
        row[2] += rec.symmetricisable
    v1 = max(counts)
    rows = tuple(
        (tail, *counts.get(tail, (0, 0, 0))) for tail in range(p - 1, v1 + 1)
    )
    return TailDistribution(p=p, rows=rows)


@dataclass(frozen=True)
class MaximaRecord:
    """Largest tails v1 (over all p-bases) and v2 (over extensible ones)."""

    p: int
    v1: int
    v2: int

    @property
    def ratio_v1(self) -> float:
        return self.v1 / self.p

    @property
    def ratio_v2(self) -> float:
        return self.v2 / self.v1


def maxima_record(p: int, node_budget: int | None = None) -> MaximaRecord:
    v1 = v2 = 0
    for rec in iter_classified(p, node_budget=node_budget):
        v1 = max(v1, rec.tail)
        if rec.extensible:
            v2 = max(v2, rec.tail)
    return MaximaRecord(p=p, v1=v1, v2=v2)


# --- streaming enumeration with checkpoints -------------------------------

def save_checkpoint(path: str, state: dict) -> None:
    """Write-new-then-rename so a crash never leaves a torn checkpoint."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"checkpoint {path!r} is not valid JSON") from exc
    for key in ("p", "prefix", "cursors", "visited", "partial_stats"):
        if key not in state:
            raise PreconditionError(f"checkpoint is missing field {key!r}")
    return state


def _record_line(rec_dict: dict) -> str:
    return json.dumps(rec_dict, separators=(",", ":"))


def _plain_record(p, elems, classify_flags, flags) -> dict:
    rec = {"p": p, "basis": list(elems), "tail": elems[-1]}
    if classify_flags:
        rec["extensible"], rec["symmetricisable"] = flags
    return rec


def _plus_record(p, elems, flags) -> dict:
    return {
        "p": p,
        "basis": list(elems),
        "tail": elems[-1] - p,
        "extensible": flags[0],
        "symmetricisable": flags[1],
    }


def _records_subtree(args) -> list[str]:
    p, prefix, mode, classify_flags = args
    total = p - 1 if mode == "plain" else p
    dfs = _subtree_dfs(p, total, p - 1, prefix)
    lines = []
    for elems in dfs:
        if mode == "plus" or classify_flags:
            flags = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
        else:
            flags = None
        if mode == "plain":
            lines.append(_record_line(_plain_record(p, elems, classify_flags, flags)))
        else:
            lines.append(_record_line(_plus_record(p, elems, flags)))
    return lines


def run_enumeration(
    p: int,
    mode: str = "plain",
    classify_records: bool = False,
    out_path: str | None = None,
    out_stream=None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    checkpoint_every: int = 5000,
    threads: int = 1,
    node_budget: int | None = None,
) -> dict:
    """Stream enumeration records as JSONL and return the summary counts.

    Output is byte-identical regardless of thread count or checkpoint
    cadence: parallel subtrees merge in lexicographic order, and a resumed
    run first truncates the record file back to the checkpointed count.
    """
    if mode not in ("plain", "plus"):
        raise PreconditionError(f"mode must be 'plain' or 'plus', got {mode!r}")
    if mode == "plus":
        classify_records = True
    if threads > 1 and checkpoint_path:
        raise PreconditionError("checkpointing requires a single-threaded run")
    _reject_budget_with_threads(threads, node_budget)
    total = p - 1 if mode == "plain" else p

    counts = {"count": 0, "n_e": 0, "n_s": 0}
    state = None
    if resume:
        if not checkpoint_path:
            raise PreconditionError("--resume needs a checkpoint file")
        ckpt = load_checkpoint(checkpoint_path)
        stats = ckpt["partial_stats"]
        if ckpt["p"] != p or stats.get("mode") != mode:
            raise PreconditionError(
                "checkpoint does not match the requested run "
                f"(p={ckpt['p']}, mode={stats.get('mode')!r})"
            )
        if bool(stats.get("classify")) != bool(classify_records):
            raise PreconditionError("checkpoint classify flag does not match")
        counts = {
            "count": stats["count"],
            "n_e": stats.get("n_e", 0),
            "n_s": stats.get("n_s", 0),
        }
        state = {k: ckpt[k] for k in ("p", "prefix", "cursors", "visited")}

    def summary() -> dict:
        out = {"p": p, "mode": mode}
        key = "n_p" if mode == "plain" else "n_plus"
        out[key] = counts["count"]
        if classify_records:
            out["n_e"] = counts["n_e"]
            out["n_s"] = counts["n_s"]
        return out

    def emit_records(write):
        if threads > 1:
            prefixes = subtree_prefixes(p, total, p - 1, _split_depth(p))
            work = [(p, pre, mode, classify_records) for pre in prefixes]
            with multiprocessing.Pool(threads) as pool:
                for lines in pool.imap(_records_subtree, work):
                    for line in lines:
                        write(line)
                        rec = json.loads(line)
                        counts["count"] += 1
                        counts["n_e"] += rec.get("extensible", False)
                        counts["n_s"] += rec.get("symmetricisable", False)
            return

        dfs = BasisDFS(
            p, total, constrained=p - 1, state=state, node_budget=node_budget
        )
        last_ckpt = dfs.visited
        for elems in dfs:
            if mode == "plus" or classify_records:
                flags = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
            else:
                flags = None
            if mode == "plain":
                rec = _plain_record(p, elems, classify_records, flags)
            else:
                rec = _plus_record(p, elems, flags)
            write(_record_line(rec))
            counts["count"] += 1
            if flags is not None:
                counts["n_e"] += flags[0]
                counts["n_s"] += flags[1]
            if checkpoint_path and dfs.visited - last_ckpt >= checkpoint_every:
                _write_ckpt(dfs, checkpoint_path, mode, classify_records, counts)
                last_ckpt = dfs.visited
        # a finished run needs no recovery point, and a stale one would
        # restore as a fresh traversal and duplicate every record
        if checkpoint_path:
            try:
                os.remove(checkpoint_path)
            except FileNotFoundError:
                pass

    if out_path is not None:
        emitted_before = counts["count"]
        lines_kept = []
        if resume and emitted_before:
            with open(out_path, encoding="utf-8") as fh:
                lines_kept = fh.read().splitlines()[:emitted_before]
            if len(lines_kept) < emitted_before:
                raise PreconditionError(
                    "record file is shorter than the checkpoint expects"
                )
        with open(out_path, "w", encoding="utf-8") as fh:
            for line in lines_kept:
                fh.write(line + "\n")

            def write(line):
                fh.write(line + "\n")
                fh.flush()

            emit_records(write)
    else:
        stream = out_stream

        def write(line):
            stream.write(line + "\n")

        emit_records(write)
    return summary()


def _write_ckpt(dfs, path, mode, classify_records, counts) -> None:
    state = dfs.state()
    state["partial_stats"] = {
        "mode": mode,
        "classify": bool(classify_records),
        "count": counts["count"],
        "n_e": counts["n_e"],
        "n_s": counts["n_s"],
    }
    save_checkpoint(path, state)

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

* a resumable frontier serialized to a small JSON checkpoint: the walk
  holds the current prefix and one next candidate, for its deepest level,
  and the checkpoint's per-level cursors are derived from them,
* deterministic subtree partitioning for data-parallel runs (workers get
  disjoint prefixes in lexicographic order and results merge in order),
* node budgets that abort runaway searches.

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
from collections import Counter
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

class BudgetExceededError(RuntimeError):
    """The search visited more nodes than the configured budget allows."""

    def __init__(self, visited: int, budget: int):
        super().__init__(f"node budget exceeded: visited {visited} > {budget}")
        self.visited = visited
        self.budget = budget

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ cannot take
        return type(self), (self.visited, self.budget)


class BasisDFS:
    """Iterative DFS over admissible prefixes with residue bookkeeping.

    Yields element tuples of length `total`.  The first `constrained`
    levels must use distinct nonzero residues mod p; any further levels
    are free (used for the extra elements of plus-mode searches).  After a
    yield, leaf_cov / leaf_mask / leaf_n hold the coverage state of the
    yielded basis so consumers can continue incrementally.

    The walk holds the prefix, one frame per element, and one next
    candidate for the deepest element: every shallower level resumes right
    after the element above it, and `state()` derives its per-level
    cursors from that.  Every node counts towards `visited`, leaves
    included, but leaves are visited in a loop over the candidates of their
    parent rather than pushed as levels of their own; where one residue is
    left, those candidates form an arithmetic progression with step p.
    Where the leaves step by 1 or by p, their parents get no frame either:
    the grandparent counts each one as a child, and puts its element on the
    prefix only while its leaves are yielded, so `state()` reads as if
    every level were pushed.  Setting `floor` withholds the leaves whose
    last element is below it: they are counted arithmetically, so
    `visited` and the node budget still see them, but no tuple or coverage
    is built for them.

    With `min_height` h, the walk ends when it leaves the subtree of its
    first h elements; h must not exceed the depth of the restored prefix.
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
        self._next = 2  # the next candidate of the deepest level on _elems
        # per level: (coverage, element mask, n + 1, nonzero residues still free)
        self._frames: list[tuple[int, int, int, int]] = []
        if state is None:
            self._elems.append(1)
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
        prefix, cursors = state["prefix"], state["cursors"]
        if not (isinstance(prefix, list) and isinstance(cursors, list)):
            raise PreconditionError("corrupt state: prefix and cursors must be lists")
        # every walk starts at the element 1, so no walk saves an empty prefix
        if not prefix:
            raise PreconditionError("corrupt state: empty prefix")
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
        if not prefix[-1] < cursors[-1] <= frame[2] + 1:
            raise PreconditionError(
                f"corrupt state: last cursor {cursors[-1]} is outside "
                f"({prefix[-1]}, n + 2 = {frame[2] + 1}]"
            )
        if visited < len(prefix):
            raise PreconditionError("corrupt state: fewer nodes visited than the prefix holds")
        self._elems[:] = prefix
        self._next = cursors[-1]
        self.visited = visited

    def state(self) -> dict:
        """Serializable frontier; restoring it resumes exactly here."""
        prefix = self._elems  # a level above the deepest resumes after the next one's element
        return {
            "p": self.p,
            "prefix": list(prefix),
            "cursors": [a + 1 for a in prefix[1:]] + [self._next] if prefix else [],
            "visited": self.visited,
        }

    def __iter__(self):
        # the walk itself, so a for loop resumes it with no call per leaf
        return self._walker

    def __next__(self) -> tuple[int, ...]:
        return next(self._walker)

    def _over_budget(self, visited: int, c: int) -> BudgetExceededError:
        self.visited = visited = min(visited, self.node_budget + 1)
        self._next = c
        return BudgetExceededError(visited, self.node_budget)

    def _walk(self):
        """The DFS proper; `_elems`, `_next` and `visited` are current at each yield."""
        p, total, constrained = self.p, self.total, self.constrained
        cap = math.inf if self.node_budget is None else self.node_budget
        elems, frames, visited, c = self._elems, self._frames, self.visited, self._next
        min_height, leaf_parent = self.min_height, total - 1
        # leaves step by 1 on a free level and by p where one residue is left;
        # where they step, a grandparent's children, the leaf parents, get no frame
        step = 1 if constrained < total else p if total == p - 1 else 0
        grandparent = total - 2 if step else 0  # no node has depth 0
        if len(elems) == total:  # only a first node is a leaf on the stack: total == 1, or restored
            self.leaf_cov, self.leaf_mask, _, _ = frames.pop()
            leaf = tuple(elems)
            self._next = c = elems.pop() + 1
            if total <= min_height:
                elems.clear()
            yield leaf
        while elems:
            depth = len(elems)
            cov, mask, limit, free = frames[-1]
            if depth < leaf_parent:
                if depth < constrained:
                    # jump to the next candidate whose residue is still free
                    r = c % p
                    above = free >> r
                    if above:
                        c += (above & -above).bit_length() - 1
                    else:
                        c += p - r + (free & -free).bit_length() - 1
                if c > limit:  # every child is done
                    frames.pop()
                    c = elems.pop() + 1
                    if depth <= min_height:
                        elems.clear()
                    continue
                visited += 1
                cov |= (mask << c) | (1 << (2 * c))
                limit = ((~cov) & (cov + 1)).bit_length() - 1
                free &= ~(1 << (c % p))
                if depth != grandparent:
                    elems.append(c)
                    frames.append((cov, mask | (1 << c), limit, free))
                    c += 1
                    if visited > cap:
                        raise self._over_budget(visited, c)
                    continue
                # a grandparent's child is a leaf parent and gets no frame: one with no leaf
                # at or above the floor is counted with its leaves, and one with such a leaf
                # is on elems while they are yielded
                leaves = _leaf_candidates(c + 1, limit, free, p, step)
                if not leaves or leaves[-1] < self.floor:
                    visited += len(leaves)
                    if visited <= cap:
                        c += 1
                        continue
                elems.append(c)
                mask |= 1 << c
                c += 1
                if visited > cap:
                    raise self._over_budget(visited, c)
            else:
                # a leaf parent with a frame (a restored frontier, leaves that do
                # not step, or total == 2) gives it up and yields like the others
                frames.pop()
                leaves = _leaf_candidates(c, limit, free, p, step)
            head = tuple(elems)
            i, end = 0, len(leaves)
            while i < end:
                leaf = leaves[i]
                if leaf < self.floor:
                    j = bisect.bisect_left(leaves, self.floor, i)
                    visited += j - i
                    if visited > cap:
                        raise self._over_budget(visited, c)
                    i = j
                    continue
                visited += 1
                if visited > cap:
                    raise self._over_budget(visited, c)
                self.visited = visited
                self._next = c = leaf + 1
                self.leaf_cov = cov | (mask << leaf) | (1 << (2 * leaf))
                self.leaf_mask = mask | (1 << leaf)
                yield head + (leaf,)
                i += 1
            c = elems.pop() + 1
            if leaf_parent <= min_height:
                elems.clear()
        self.visited = visited


def _leaf_candidates(c: int, limit: int, free: int, p: int, step: int):
    """A leaf parent's candidates from c up to its limit.

    With a step of 1 (a free level) that is every value, and with a step of
    p the values in the one residue class left.  With a step of 0 the
    residues left in `free` are picked one by one.
    """
    if step:
        return range(c + (free.bit_length() - 1 - c) % step, limit + 1, step)
    return [x for x in range(c, limit + 1) if (free >> (x % p)) & 1]


def _empty_frame(p: int) -> tuple[int, int, int, int]:
    """The empty prefix: only 0 is covered, so the first element must be 1."""
    return 1, 1, 1, (1 << p) - 2


def _child(frame: tuple[int, int, int, int], c: int, p: int) -> tuple[int, int, int, int]:
    """Frame of a prefix after appending c to the prefix described by `frame`."""
    cov, mask, _, free = frame
    cov, mask = extend_coverage(cov, mask, c)
    return cov, mask, first_gap(cov), free & ~(1 << (c % p))


def _mode_levels(p: int, mode: str) -> tuple[int, int]:
    """(levels, tail shift) of a search: a plus basis adds one free element, with tail a_p - p."""
    if mode not in ("plain", "plus"):
        raise PreconditionError(f"mode must be 'plain' or 'plus', got {mode!r}")
    return (p - 1, 0) if mode == "plain" else (p, p)


def subtree_prefixes(p: int, total: int, constrained: int, depth: int) -> list:
    """All valid search prefixes of the given depth, in lexicographic order."""
    depth = max(1, min(depth, total - 1))
    return list(BasisDFS(p, depth, constrained=min(constrained, depth)))


def _subtree_dfs(p, total, constrained, prefix) -> BasisDFS:
    state = {"p": p, "prefix": list(prefix), "cursors": [c + 1 for c in prefix]}
    return BasisDFS(
        p, total, constrained=constrained, state=state, min_height=len(prefix)
    )


def _subtree_fold(args):
    """Pool worker: `fold(dfs, p, *rest)` on the subtree below one prefix."""
    fold, p, total, prefix, *rest = args
    return fold(_subtree_dfs(p, total, p - 1, prefix), p, *rest)


def _pooled(fold, p: int, total: int, threads: int, *rest):
    """`fold(dfs, p, *rest)` on each subtree of the search, run by `threads` workers.

    The results come in the lexicographic order of the subtrees.
    """
    prefixes = subtree_prefixes(p, total, p - 1, max(1, min(4, p - 2)))
    with multiprocessing.Pool(threads) as pool:
        yield from pool.imap(_subtree_fold, [(fold, p, total, pre, *rest) for pre in prefixes])


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


@dataclass(frozen=True)
class PlusBasisRecord:
    basis: Basis
    p: int
    a_p: int
    comparison_tail: int
    extensible: bool
    symmetricisable: bool


def iter_p_bases(p: int, node_budget: int | None = None):
    """All p-bases as Basis objects, lexicographically."""
    for elems in BasisDFS(p, p - 1, node_budget=node_budget):
        yield Basis(elems)


def enumerate_p_bases(p: int, node_budget: int | None = None) -> int:
    """Number of p-bases, counted in one walk without building them."""
    return sum(1 for _ in BasisDFS(p, p - 1, node_budget=node_budget))


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


def _tail_rows(dfs: BasisDFS, p: int) -> Counter:
    """Leaves of the walk per key 3 * tail + extensible + symmetricisable.

    A symmetricisable basis is always extensible, so key % 3 is 0 for
    neither, 1 for extensible only and 2 for both.
    """
    rows = Counter()
    for elems in dfs:
        ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
        rows[3 * elems[-1] + ext + sym] += 1
    return rows


def _tail_counts(p: int, threads: int = 1, node_budget: int | None = None) -> Counter:
    """`_tail_rows` over all p-bases: one walk, or one pooled walk per subtree."""
    _reject_budget_with_threads(threads, node_budget)
    if threads <= 1:
        return _tail_rows(BasisDFS(p, p - 1, node_budget=node_budget), p)
    return sum(_pooled(_tail_rows, p, p - 1, threads), Counter())


def _class_counts(rows: Counter, tails) -> tuple[int, int, int]:
    """(n_p, n_e, n_s) of a `_tail_rows` tally, summed over `tails`."""
    n_s = sum(rows[3 * t + 2] for t in tails)
    n_e = n_s + sum(rows[3 * t + 1] for t in tails)
    return n_e + sum(rows[3 * t] for t in tails), n_e, n_s


def _reject_budget_with_threads(threads: int, node_budget: int | None) -> None:
    # each worker would count its own subtree only; one global cap is still open
    if threads > 1 and node_budget is not None:
        raise PreconditionError("a node budget requires a single-threaded run")


def classify(p: int, threads: int = 1, node_budget: int | None = None) -> ClassStats:
    """Counts (n_p, n_e, n_s) of all / extensible / symmetricisable p-bases."""
    rows = _tail_counts(p, threads, node_budget)
    n_p, n_e, n_s = _class_counts(rows, {key // 3 for key in rows})
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


@dataclass(frozen=True)
class TailDistribution:
    """Per-tail counts (n_p, n_e, n_s) from the smallest possible tail to v1.

    Tails congruent to 0 or 1 mod p cannot occur (the top residue is
    nonzero and residue 1 is taken by a_1), so those rows are zero.
    """

    p: int
    rows: tuple[tuple[int, int, int, int], ...]  # (tail, n_p, n_e, n_s)


def tail_distribution(p: int, node_budget: int | None = None) -> TailDistribution:
    counts = _tail_counts(p, node_budget=node_budget)
    rows = tuple(
        (tail, *_class_counts(counts, (tail,)))
        for tail in range(p - 1, max(counts) // 3 + 1)
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
    rows = _tail_counts(p, node_budget=node_budget)
    v2 = max((key // 3 for key in rows if key % 3), default=0)
    return MaximaRecord(p=p, v1=max(rows, default=0) // 3, v2=v2)


# --- streaming enumeration with checkpoints -------------------------------

_COUNT_KEYS = ("count", "n_e", "n_s")


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
    if not isinstance(state, dict):
        raise PreconditionError(f"checkpoint {path!r} does not hold a JSON object")
    for key in ("p", "prefix", "cursors", "visited", "partial_stats"):
        if key not in state:
            raise PreconditionError(f"checkpoint is missing field {key!r}")
    if not isinstance(state["partial_stats"], dict):
        raise PreconditionError("checkpoint field 'partial_stats' is not an object")
    return state


def _resumed_counts(ckpt: dict, classify_records: bool) -> dict:
    """The checkpoint's record counts, if a run could have reached them."""
    stats = ckpt["partial_stats"]
    counts = {"count": stats.get("count"), "n_e": stats.get("n_e", 0), "n_s": stats.get("n_s", 0)}
    visited = ckpt["visited"]
    if not (
        all(type(v) is int for v in (*counts.values(), visited))
        and 0 <= counts["n_s"] <= counts["n_e"] <= counts["count"] <= visited
        and (classify_records or counts["n_e"] == 0)
    ):
        raise PreconditionError(
            f"corrupt checkpoint counts {counts} after {visited!r} nodes: need "
            "integers 0 <= n_s <= n_e <= count <= visited, and n_e = 0 unless classifying"
        )
    return counts


# the end of a classified record, by extensible + symmetricisable (0, 1 or 2)
_FLAGS = (
    ',"extensible":false,"symmetricisable":false}',
    ',"extensible":true,"symmetricisable":false}',
    ',"extensible":true,"symmetricisable":true}',
)


def _record_lines(dfs: BasisDFS, p: int, mode: str, classify_records: bool, counts: dict):
    """One JSONL line per leaf, newline included; `counts` already includes it when yielded.

    A line holds the bytes of `json.dumps(record, separators=(",", ":"))`
    for the keys p, basis, tail and, when classifying, extensible and
    symmetricisable, but is formatted directly.
    """
    shift = _mode_levels(p, mode)[1]
    head = f'{{"p":{p},"basis":['
    end = "}"
    for elems in dfs:
        if classify_records:
            ext, sym = classify_raw(elems, dfs.leaf_cov, dfs.leaf_mask, p)
            counts["n_e"] += ext
            counts["n_s"] += sym
            end = _FLAGS[ext + sym]  # a symmetricisable basis is extensible
        counts["count"] += 1
        yield f'{head}{",".join(map(str, elems))}],"tail":{elems[-1] - shift}{end}\n'


def _records_subtree(dfs: BasisDFS, p: int, mode: str, classify_records: bool):
    """(record lines, counts) of one subtree, for the parallel emitter."""
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    return list(_record_lines(dfs, p, mode, classify_records, counts)), counts


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
    total, _ = _mode_levels(p, mode)
    if mode == "plus":
        classify_records = True
    if threads > 1 and checkpoint_path:
        raise PreconditionError("checkpointing requires a single-threaded run")
    if checkpoint_path and out_path is None:
        # stdout cannot be cut back to a checkpoint's count, so a resume would repeat records
        raise PreconditionError("checkpointing needs a record file (--out)")
    _reject_budget_with_threads(threads, node_budget)

    counts = dict.fromkeys(_COUNT_KEYS, 0)
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
        counts = _resumed_counts(ckpt, classify_records)
        state = {k: ckpt[k] for k in ("p", "prefix", "cursors", "visited")}
    # built before the record file is opened, so a corrupt frontier leaves it as it was
    dfs = None if threads > 1 else BasisDFS(
        p, total, constrained=p - 1, state=state, node_budget=node_budget
    )

    def emit_records(sink):
        """Write the records, flushing only before each checkpoint and at the end."""
        if dfs is None:
            for lines, part in _pooled(_records_subtree, p, total, threads, mode, classify_records):
                sink.write("".join(lines))
                for key in _COUNT_KEYS:
                    counts[key] += part[key]
            return

        due = dfs.visited + checkpoint_every if checkpoint_path else math.inf
        write = sink.write
        for line in _record_lines(dfs, p, mode, classify_records, counts):
            write(line)
            if dfs.visited >= due:
                sink.flush()  # a checkpoint never counts a line that is not in the file
                frontier = dfs.state()
                frontier["partial_stats"] = {"mode": mode, "classify": bool(classify_records), **counts}
                save_checkpoint(checkpoint_path, frontier)
                due = dfs.visited + checkpoint_every
        # a finished run needs no recovery point, and a stale one would
        # restore as a fresh traversal and duplicate every record; the file
        # gets every record before the recovery point goes
        if checkpoint_path:
            sink.flush()
            try:
                os.remove(checkpoint_path)
            except FileNotFoundError:
                pass

    if out_path is not None:
        # a resumed run keeps the records the checkpoint counts and cuts the file after them
        with open(out_path, "r+" if counts["count"] else "w", encoding="utf-8") as fh:
            for _ in range(counts["count"]):
                if not fh.readline().endswith("\n"):  # missing, or torn by the interruption
                    raise PreconditionError(
                        "record file is shorter than the checkpoint expects"
                    )
            fh.seek(fh.tell())  # a text read runs ahead of tell(), and truncate() would cut there
            fh.truncate()
            emit_records(fh)
    else:
        emit_records(out_stream)  # never checkpointed, so it needs no flush()
    summary = {"p": p, "mode": mode, "n_p" if mode == "plain" else "n_plus": counts["count"]}
    if classify_records:
        summary.update(n_e=counts["n_e"], n_s=counts["n_s"])
    return summary

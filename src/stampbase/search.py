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

The engine below runs that tree in a kernel generated for the shape of
the search, one nested loop per level, which makes three facilities cheap:

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

import json
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, nullcontext, suppress
from itertools import repeat

from .basis import Basis, PreconditionError, _record, extend_coverage, first_gap
from .symmetric import symmetricisable_raw

class BudgetExceededError(RuntimeError):
    """The search visited more nodes than the configured budget allows."""

    def __init__(self, visited: int, budget: int):
        super().__init__(f"node budget exceeded: visited {visited} > {budget}")
        self.visited = visited
        self.budget = budget

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ cannot take
        return type(self), (self.visited, self.budget)


# the end of a record line by extensible + symmetricisable (0, 1 or 2), with and without
# the classification
_ENDS = {
    True: (
        ',"extensible":false,"symmetricisable":false}\n',
        ',"extensible":true,"symmetricisable":false}\n',
        ',"extensible":true,"symmetricisable":true}\n',
    ),
    False: ("}\n",) * 3,
}


class BasisDFS:
    """Iterative DFS over admissible prefixes with residue bookkeeping.

    Yields element tuples of length `total`.  The first `constrained`
    levels must use distinct nonzero residues mod p; any further levels
    are free (used for the extra elements of plus-mode searches).  After a
    yield, leaf_cov / leaf_mask hold the coverage and element mask of the
    yielded basis so consumers can continue incrementally.

    The walk runs in a kernel generated for its shape (see `_kernel`), and
    holds its frontier as one tuple: the prefix, then one less than the
    next candidate for the element after it.  At a yield that tuple is the
    leaf itself.  Every node counts towards `visited`, leaves included.

    With `min_height` h, the walk ends when it leaves the subtree of its
    first h elements; h runs from 1 to the depth of the starting prefix.
    Every walk starts from a checked frontier, a fresh one from the root's
    (the element 1, with 2 as its next child), and a frontier that has
    already visited more nodes than `node_budget` is refused there.  A
    frontier at a leaf restarts at the leaf's parent, with the leaf as the
    next candidate and one node fewer visited, so the kernel visits and
    counts that leaf again; h then runs up to the parent's depth.

    `fold(kind)` runs the walk instead in kernels that gather each leaf into
    one list rather than yield it; `_KINDS` holds the yield walk (None) and
    the "tally", "maximal", "records" and "range" folds.  A walk runs once,
    as one fold or one iteration.  Only a "records" fold keeps its frontier,
    at each pause; after a trip no fold resumes from `state()`, but a
    records run resumes from its last pause.
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
        if total < 2:  # the root would be a leaf, and have no parent to restart at
            raise PreconditionError(f"need at least two levels, got {total}")
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
        self.leaf_cov = self.leaf_mask = self._kind = self._tally = None
        self._ran = False  # set when the walk starts, as a fold or an iteration
        if state is None:
            state = {"prefix": [1], "cursors": [2], "visited": 1}
        prefix, cursor, frames = self._restore(state)
        self._at = (*prefix, cursor - 1)
        self._walker = self._path(prefix, cursor, frames)

    def _restore(self, state: dict) -> tuple[list[int], int, list]:
        """Check a frontier, rejecting any that no walk could reach or the budget forbids."""
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
        # the frame of each prefix[:level] as a kernel takes it, built with the kernels' node
        # step: coverage, element mask, limit n + 2 and the free nonzero residues, doubled
        v = m = 1
        l, f = 2, ((1 << p) - 2) * (1 | 1 << p)
        frames = [(v, m, l, f)]
        for level, c in enumerate(prefix):
            prev = prefix[level - 1] if level else 0
            if not prev < c < l:
                raise PreconditionError(
                    f"corrupt state: element {c} at level {level} is outside "
                    f"({prev}, n + 1 = {l - 1}]"
                )
            r = c % p
            if level < self.constrained and not (f >> r) & 1:
                raise PreconditionError(
                    f"corrupt state: element {c} at level {level} repeats "
                    f"residue {r} mod {p} or is divisible by it"
                )
            v, m = extend_coverage(v, m, c)
            l, f = first_gap(v) + 1, f & ~((1 | 1 << p) << r)
            frames.append((v, m, l, f))
        # levels below min_height - 1 are never resumed, so their cursors are free
        for level in range(max(self.min_height - 1, 0), len(prefix) - 1):
            if cursors[level] != prefix[level + 1] + 1:
                raise PreconditionError(
                    f"corrupt state: cursor {cursors[level]} at level {level} "
                    f"does not follow element {prefix[level + 1]}"
                )
        if not prefix[-1] < cursors[-1] <= l:
            raise PreconditionError(
                f"corrupt state: last cursor {cursors[-1]} is outside "
                f"({prefix[-1]}, n + 2 = {l}]"
            )
        if visited < len(prefix):
            raise PreconditionError("corrupt state: fewer nodes visited than the prefix holds")
        depth = min(len(prefix), self.total - 1)  # a leaf's walk starts at its parent
        if not 1 <= self.min_height <= depth:
            raise PreconditionError(
                f"min_height must be within 1..{depth}, the depth of the starting "
                f"prefix or of a leaf's parent, not {self.min_height}"
            )
        if self.node_budget is not None and visited > self.node_budget:
            raise BudgetExceededError(visited, self.node_budget)
        if depth < len(prefix):  # the kernel visits the leaf again, and counts it back
            self.visited = visited - 1
            return prefix[:-1], prefix[-1], frames
        self.visited = visited
        return prefix, cursors[-1], frames

    def state(self) -> dict:
        """Serializable frontier; restoring it resumes exactly here."""
        at = self._at  # a level above the deepest resumes after the next one's element
        return {
            "p": self.p,
            "prefix": list(at[:-1]),
            "cursors": [a + 1 for a in at[1:]],
            "visited": self.visited,
        }

    def __iter__(self):
        # the walk itself, so a for loop resumes it with no call per leaf
        return self._walker

    def __next__(self) -> tuple[int, ...]:
        return next(self._walker)

    def fold(self, kind: str, ends=_ENDS[True], due=sys.maxsize, pause=None) -> list:
        """Run the whole walk in the kernels of the fold `kind`, and return the list they fill.

        The list is the one `_KINDS[kind]` makes, and holds what that entry
        says.  The "records" fold ends each line in `ends[extensible +
        symmetricisable]`; at the first leaf where `visited` reaches `due`
        it sets the frontier there and calls `pause()`, which returns the
        next due.  A walk that has already run, as a fold or by yielding a
        leaf, is refused: its kernels would start where the last run ended.
        So is a classifying fold on other than p-bases and p+-bases (see `classify_raw`).
        """
        if kind != "range" and not self.constrained == self.p - 1 <= self.total <= self.p:
            raise PreconditionError("a classifying fold walks p - 1 constrained levels of p - 1 "
                                    "or p (p-bases or p+-bases); only a range fold walks any shape")
        if self._ran:
            raise PreconditionError("this walk has already run; build a new BasisDFS")
        self._kind, self._ends, self._due, self._pause = kind, ends, due, pause
        self._tally = _KINDS[kind].new(_tops(self.total))
        next(self._walker, None)  # a fold's kernels yield nothing, so this runs them all
        return self._tally

    def _trip(self, visited: int, prefix: tuple[int, ...]) -> BudgetExceededError:
        """The budget error at node `prefix` or one of its leaves.

        The walk resumes below `prefix`, after the last leaf yielded there, if any.
        """
        at = self._at
        self._at = prefix + (at[-1] if at[:-1] == prefix else prefix[-1],)
        self.visited = visited = min(visited, self.node_budget + 1)
        return BudgetExceededError(visited, self.node_budget)

    def _path(self, prefix: list[int], cursor: int, frames: list):
        """The walk: a kernel finishing each prefix's subtree on the frontier's path, deepest first.

        Each kernel is built when the one before it has ended, so it starts
        from the `visited` that one left, and from the frame `_restore` built.
        """
        self._ran = True
        p, kind = self.p, self._kind
        cap = sys.maxsize if self.node_budget is None else self.node_budget  # no walk gets that far
        for root in range(len(prefix), self.min_height - 1, -1):
            walk = _kernel(p, self.total, self.constrained, root, kind)(
                self, self.visited, cap, cursor, *prefix[1:root], *frames[root])
            if kind is None:  # a fold's kernel has run to its end by now, and yields no leaf
                yield from walk
            if self._at:  # the budget stopped that kernel, and state() resumes it
                return
            cursor = prefix[root - 1] + 1


# CPython compiles at most 20 statically nested blocks (here: loops) in one function
_NESTING = 20
_KERNELS: dict = {}
_NAMES: dict = {}  # (kind, levels, tail shift) -> the globals of the kind's kernels
# the index of the lowest set bit of each x, 0 < x < 2^16: a kernel's residue jump at p <= 16.
# `_kernel` fills it with the first kernel, so that importing the package stays cheap
_LSB: list = []


def _kernel(p: int, total: int, constrained: int, root: int, kind: str | None = None):
    """The generated DFS below a node of `root` elements, compiled once per shape and process.

    It has one nested loop per level, and keeps the coverage, element
    mask, limit n + 2, free residues and element of every level in locals
    (`v`, `m`, `l`, `f` and `c` with the level's index).  The free
    residues are held doubled, f | f << p, so that `f >> c % p` has the
    next free residue from c's on at its lowest bit; at p <= 16 its low p
    bits index `_LSB` for the jump there.  A shape with more
    levels than `_NESTING` walks its top levels here and hands each subtree
    below them to a kernel rooted deeper, through `yield from`, or through
    a call in a fold's kernel, which is a plain function.  A classifying
    leaf test nests one loop more, so every fold counts one more level.
    The globals that `_KINDS[kind].names` adds are built once per kind,
    level count and tail shift, in `_NAMES`, and every kernel of a chain
    or of a walk's path shares them: the records fold's are about p^2
    strings.
    """
    key = (p, total, constrained, root, kind)
    if key not in _KERNELS:
        if not _LSB:
            _LSB.extend(repeat(0, 1 << 16))  # with no temporary as large as the table
            for k in range(1, 16):
                _LSB[1 << k::2 << k] = [k] * (1 << 15 - k)
        shape = (kind, total, p if constrained < total else 0)  # the last is the tail shift
        if shape not in _NAMES:
            _NAMES[shape] = _KINDS[kind].names(range(_tops(total)), shape[2])
        inner = min(root + _NESTING, total - 1) if total - root + bool(kind) > _NESTING else None
        namespace = {"inner": _kernel(p, total, constrained, inner, kind) if inner else None,
                     "search": sys.modules[__name__], "LSB": _LSB, **_NAMES[shape]}
        source = _kernel_source(p, total, constrained, root, inner, kind)
        exec(compile(source, f"<kernel {key}>", "exec"), namespace)
        _KERNELS[key] = namespace["walk"]
    return _KERNELS[key]


def _kernel_source(p: int, total: int, constrained: int, root: int, inner: int | None,
                   kind: str | None = None) -> str:
    """Source of `walk(dfs, visited, cap, start, c1, ..., c<root - 1>, root's frame)`.

    The walk returns `visited`.  One loop emits every level, each a `while`
    loop nested in its parent's, and the leaf level last, where the code
    of the kind takes the place of the node step.  A node c sets its
    element mask first and then its coverage with one shift-or,
    v | m << c: the mask holds bit 0, so that covers c, c + a_i and 2c.
    Its limit l = n + 2 is the bit length of the lowest run of ones in v,
    and a candidate c >= l ends the level.  The level with one free
    residue left, index p - 2 when the first p - 1 levels are constrained,
    steps by p: its parent looks up the first candidate, the next free
    residue after the parent's own in the free set the parent was picked
    from, and only a kernel rooted there jumps, once, from its cursor.  A level sets its `f` only if the
    next level jumps on it, so a kernel may hand an inner one an older
    `f`, which it never reads.  Other leaves step by 1 on a free level
    and are picked like inner nodes on a constrained one.  A leaf test
    checks the bound on b_0 and then, for each of the three elements c_j
    below b_0, that b_0 + c_j - p is covered below b_0: past p, c_j is
    alone in its residue class, so c_j - p is no spread offset of
    `classify_raw`'s window; below p the bit is under b_0 <= n + 1.
    The entry `_KINDS[kind]` gives the rest: the head of a kernel that
    walks the leaves, and the code of a leaf after its test c < l, from
    these names: `p`, `step`, the leaf's element `c` and parent level `q`,
    its tuple `at`, the budget check `trip` and `count`, which counts the
    node first, and the classification as `classify_raw` gives it: `test`,
    the bound on b_0 with the three bit checks and then the window test,
    with `sym`, `symmetricisable_raw` looked up through this module when
    it is called, to run under its last line.
    """
    leaf = total - 1  # the index of a leaf's last element
    one = p - 2 if constrained == p - 1 else None  # the level with one free residue left
    step = p if leaf == one else 1  # on a p-basis leaf, and on a p+-basis one
    free, entry = f"f{root - 1}", _KINDS[kind]

    def upto(k):  # "c1, ..., ck, ", for a tuple display or an argument list
        return "".join(f"c{i}, " for i in range(1, k + 1))

    lines = [f"def walk(dfs, visited, cap, c{root}, {upto(root - 1)}v{root - 1}, m{root - 1}, "
             f"l{root - 1}, {free}):", *(f"    {text}" for text in entry.head if inner is None)]

    def emit(depth, *texts):
        lines.extend("    " * depth + text for text in texts)

    def jump(depth, c, after=None):
        # to the next candidate from c on whose residue is still free, or, given the parent's
        # element `after`, to the next free residue after its own in `free`, its free set
        at, window = (c, (1 << p) - 1) if after is None else (after, (1 << p) - 2)
        if p <= 16:  # the lowest set bit of the p-bit window, which `_LSB` covers
            gap = f"LSB[{free} >> {at} % {p} & {window}]"
        else:
            emit(depth, f"a = {free} >> {at} % {p}{'' if after is None else ' ^ 1'}")
            gap = "(a & -a).bit_length() - 1"
        emit(depth, f"{c} += {gap}" if after is None else f"{c} = {after} + {gap}")

    def trip(k):
        return ["if visited > cap:", f"    raise dfs._trip(visited, (1, {upto(k)}))"]

    if root == one:  # a kernel rooted at the one-residue level jumps from its cursor, once
        jump(1, f"c{root}")
    depth = 1
    for k in range(root, inner or total):  # the leaf, if this kernel walks it, last
        emit(depth, "while True:")
        depth += 1
        if k < constrained and k != one:
            jump(depth, f"c{k}")
        emit(depth, f"if c{k} >= l{k - 1}:", "    break")
        if k == leaf:  # the last level: the kind's leaf code takes the place of the node step
            c, q, at = f"c{k}", k - 1, f"(1, {upto(k)})"
            # the bound is b_0 <= e + p // 2 on a p-basis and b_0 <= e + p on a p+-basis, and
            # each of the three elements c_j below b_0 needs b_0 + c_j - p covered below b_0
            bits = "".join(f" and (v{q} >> {c} + c{j} - {p}) & 1"
                           for j in range(q, max(q - 3, 0), -1))
            test = [f"if {c} <= {f'c{q}' if q else 1} + {p // 2 if step == p else p}{bits}:",
                    f"    s, w = m{q}, {p}", f"    while w < {c}:", "        s |= s << w",
                    "        w <<= 1", f"    w = (1 << ({c} - 1) // {p} * {p} + 1) - 2",
                    f"    if ((v{q} >> {c}) | s) & w == w:"]
            emit(depth, *entry.leaf(
                p=p, step=step, c=c, q=q, at=at, trip=trip(q), count=["visited += 1", *trip(q)],
                test=test, sym=f"search.symmetricisable_raw({at}, m{q} | 1 << {c}, {p})"))
            break
        emit(depth, "visited += 1", f"m{k} = m{k - 1} | 1 << c{k}",
             f"v{k} = v{k - 1} | m{k} << c{k}", f"l{k} = (v{k} ^ (v{k} + 1)).bit_length()")
        if k + 1 < constrained and (k + 1 != one or k + 1 == inner):  # the next level jumps
            emit(depth, f"f{k} = {free} ^ ({1 | 1 << p} << c{k} % {p})")
            free = f"f{k}"
        emit(depth, *trip(k))
        if k + 1 == inner:
            emit(depth, f"visited = {'' if kind else 'yield from '}inner(dfs, visited, cap, "
                        f"c{k} + 1, {upto(k)}v{k}, m{k}, l{k}, {free})")
        elif k + 1 == one:
            jump(depth, f"c{k + 1}", f"c{k}")
        else:
            emit(depth, f"c{k + 1} = c{k} + 1")
    for k in range(depth - 1, 0, -1):
        emit(k + 1, f"c{root + k - 1} += {p if root + k - 1 == one else 1}")
    emit(1, "dfs.visited = visited", "dfs._at = ()", "return visited")
    return "\n".join(lines) + "\n"


def _tops(total: int) -> int:
    """One more than any leaf's top: k = total - 1 elements generate at most k(k + 3)/2 values."""
    return (total - 1) * (total + 2) // 2 + 2


def _maximal_leaf(p, step, c, q, at, trip, count, test, sym) -> list:
    skip = ("visited += n", f"{c} += n") if step == 1 else (  # the leaves below the floor
        f"n = (n + {p - 1}) // {p}", "visited += n", f"{c} += n * {p}")
    return [f"if {c} < floor:", f"    n = (floor if floor < l{q} else l{q}) - {c}",
            *(f"    {text}" for text in (*skip, *trip, "continue")), *count, *test,
            f"        if {sym}:", f"            if {c} > floor:", f"                floor = {c}",
            "                best.clear()", f"            best.append({at})"]


def _records_leaf(p, c, q, at, count, test, sym, **_) -> list:
    basis = "".join(f"{{digits[c{i}]}}" for i in range(1, q + 1))
    line = f'{{{{"p":{p},"basis":[1,{basis}{{tails[{c}]}}{{ends[e]}}'
    return [*count, "e = 0", *test, f"        e = 1 + {sym}", f"out.append(f'{line}')",
            "tally[e] += 1", "if visited >= due:", "    dfs.visited = visited",
            f"    dfs._at = {at}", "    due = dfs._due = dfs._pause()"]


def _summed(lists) -> list:
    return [sum(column) for column in zip(*lists)]


def _top_ties(lists) -> list:
    """The leaves of the lists whose top is the largest, in the lists' order."""
    lists = [leaves for leaves in lists if leaves]
    top = max((leaves[0][-1] for leaves in lists), default=None)
    return [leaf for leaves in lists if leaves[0][-1] == top for leaf in leaves]


# A walk kind: `new(_tops(total))` makes the list its fold fills, `merge` makes one result of
# the lists that folds of consecutive parts of a walk filled, `head` opens a kernel that walks
# the leaves, `leaf` gives a leaf's code from the names `_kernel_source` passes, and
# `names(elements, tail shift)` adds globals to the kind's kernels
_Kind = namedtuple("_Kind", "new merge head leaf names", defaults=(lambda elements, shift: {},))
_KINDS = {
    # yields each leaf, with its coverage and element mask
    None: _Kind(None, None, (), lambda c, q, at, count, **_: [
        *count, "dfs.visited = visited", f"dfs.leaf_mask = m = m{q} | 1 << {c}",
        f"dfs.leaf_cov = v{q} | m << {c}", f"dfs._at = t = {at}", "yield t"]),
    # counts each leaf at 3 * top + e, e = extensible + symmetricisable as in classify_raw
    "tally": _Kind(lambda tops: [0] * (3 * tops), _summed, ("tally = dfs._tally",),
                   lambda c, count, test, sym, **_: [
        *count, "e = 0", *test, f"        e = 1 + {sym}", f"tally[3 * {c} + e] += 1"]),
    # keeps the symmetricisable leaves with the largest top, in walk order; each kernel
    # starts from the best top found so far, its floor, and counts a run below it at once
    "maximal": _Kind(lambda tops: [], _top_ties,
                     ("best = dfs._tally", "floor = best[0][-1] if best else 0"), _maximal_leaf),
    # the JSONL lines and their count by e: a line holds the bytes of `json.dumps(record,
    # separators=(",", ":"))` for the keys p, basis, tail and, when classifying, extensible
    # and symmetricisable, and ends in `ends[e]`, newline included; it takes the text of
    # each element, comma included, and of the top with its tail
    "records": _Kind(lambda tops: [[], [0, 0, 0]], iter,
                     ("out, tally = dfs._tally", "ends, due = dfs._ends, dfs._due"), _records_leaf,
                     lambda elements, shift: {"digits": tuple(f"{a}," for a in elements),
                         "tails": tuple(f'{a}],"tail":{a - shift}' for a in elements)}),
    # counts the leaves with range below, at and above top + p - 1: d = n - (c + p - 1), as
    # n + 2 is the bit length of the lowest run of ones in the leaf's coverage w
    "range": _Kind(lambda tops: [0, 0, 0], _summed, ("tally = dfs._tally",),
                   lambda p, c, q, count, **_: [
        *count, f"w = v{q} | (m{q} | 1 << {c}) << {c}",
        f"d = (w ^ (w + 1)).bit_length() - {c} - {p + 1}", "tally[(d >= 0) + (d > 0)] += 1"]),
}


def _mode_levels(p: int, mode: str) -> tuple[int, int]:
    """(levels, tail shift) of a search: a plus basis adds one free element, with tail a_p - p."""
    if mode not in ("plain", "plus"):
        raise PreconditionError(f"mode must be 'plain' or 'plus', got {mode!r}")
    return (p - 1, 0) if mode == "plain" else (p, p)


def subtree_prefixes(p: int, total: int, constrained: int, depth: int) -> list:
    """All valid search prefixes of the given depth, in lexicographic order."""
    depth = min(depth, total - 1)
    if depth <= 1:  # every walk starts at the element 1, and no walk has one level
        return [(1,)]
    return list(BasisDFS(p, depth, constrained=min(constrained, depth)))


def _subtree_fold(task) -> tuple[list, int]:
    """Pool worker: the fold list of the subtree below a prefix, and its nodes below the prefix."""
    kind, p, total, constrained, budget, prefix, rest = task
    state = {"p": p, "prefix": list(prefix), "cursors": [c + 1 for c in prefix]}
    walk = BasisDFS(p, total, constrained, state, len(prefix), budget)
    return walk.fold(kind, *rest), walk.visited - len(prefix)


_POOLS: dict = {}  # thread count -> the pool of the outermost `_pool` block open for it


@contextmanager
def _pool(threads: int):
    """A pool of `threads` workers, which every `_pool` block inside this one shares.

    The outermost block opens it and closes it at its end.  At one thread
    there is no pool, and multiprocessing stays unimported.
    """
    if threads <= 1 or threads in _POOLS:
        yield _POOLS.get(threads)
        return
    import multiprocessing  # only a pooled fold needs it, so importing the package stays cheap

    with multiprocessing.Pool(threads) as pool:
        _POOLS[threads] = pool
        try:
            yield pool
        finally:
            del _POOLS[threads]


def _fold(walk: BasisDFS, kind: str, threads: int = 1, *rest):
    """`_KINDS[kind].merge` of the lists of the fold `kind` over a walk, in walk order.

    At one thread that is the one list of `walk.fold(kind, *rest)`.  More
    threads split a fresh walk at `subtree_prefixes`, looked up in this
    module when called, and fold each subtree in a worker of `_pool`.
    Their budget verdict is the serial walk's: that walk visits the split
    walk's nodes and each subtree's below its prefix, and over the budget
    the pooled fold raises the error the serial one raises there.
    """
    if threads <= 1:
        return _KINDS[kind].merge([walk.fold(kind, *rest)])
    p, total, constrained, budget = walk.p, walk.total, walk.constrained, walk.node_budget
    depth = max(1, min(4, p - 2))  # at most total - 1, as total >= p - 1
    tasks = [(kind, p, total, constrained, budget, prefix, rest)
             for prefix in subtree_prefixes(p, total, constrained, depth)]
    nodes = 1  # the split walk's, the root alone when it has one level
    if budget is not None and depth > 1:  # walked again, in the kernel subtree_prefixes compiled
        split = BasisDFS(p, depth, constrained=min(constrained, depth))
        for _ in split:
            pass
        nodes = split.visited

    def lists():
        nonlocal nodes
        try:
            with _pool(threads) as pool:
                for folded, below in pool.imap(_subtree_fold, tasks):
                    nodes += below
                    yield folded
        except BudgetExceededError:  # a subtree alone went over, restored or walking
            nodes = budget + 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget + 1, budget)  # the serial walk's error, always

    return _KINDS[kind].merge(lists())


def classify_raw(elems: tuple[int, ...], cov: int, mask: int, p: int):
    """(extensible, symmetricisable) for an admissible basis with complete residues.

    Extensibility is one mask test.  Appending t_i = b_0 + i*p for
    i = 1..k*, with top b_0 and threshold k* = floor((b_0 - 1) / p), keeps
    the basis admissible at every step iff each offset y = 1..k*·p is
    covered: b_0 + y is a sum of two elements already (bit y of
    cov >> b_0), or b_0 + y = t_j + a with j >= 1 and a an element or 0,
    that is y = a + j*p.  A sum t_i + t_j is above b_0 + k*·p, and an
    offset up to i*p needs no t_j beyond t_i, so passing at k* passes every
    step.  After m doublings `spread` is the OR of mask << j*p for
    j = 0..2^m - 1, every element copied up its residue class; the copies
    with j > k* start at (k* + 1)·p >= b_0, above the offsets tested.
    One comparison before the mask test rejects many bases.  Let x be the
    top of the p-basis (b_0 itself for a plain one) and e the element
    below b_0.  If x > p, the offset y = x - p <= k*·p lies in x's residue
    class below every element of it, and y is no element, so b_0 + y must
    be a sum of two elements below b_0: b_0 + x - p <= 2e, that is
    b_0 <= e + floor(p/2) for a plain basis and b_0 <= e + p for a plus
    basis.  If x < p, the bound holds anyway, as b_0 <= n + 1 <= 2e + 1
    for the elements below b_0.  Then `symmetricisable_raw` settles
    symmetricisability.
    """
    b0 = elems[-1]
    if b0 + elems[p - 2] - p > 2 * elems[-2]:
        return False, False
    k_star = (b0 - 1) // p
    spread, shift = mask, p
    while shift < b0:  # until 2^m > k*
        spread |= spread << shift
        shift <<= 1
    window = (1 << (k_star * p + 1)) - 2  # the offsets 1..k*·p
    if ((cov >> b0) | spread) & window != window:
        return False, False
    return True, symmetricisable_raw(elems, mask, p)


@_record
class PBasisRecord:
    basis: Basis
    p: int
    tail: int
    extensible: bool
    symmetricisable: bool


@_record
class PlusBasisRecord:
    basis: Basis
    p: int
    a_p: int
    comparison_tail: int
    extensible: bool
    symmetricisable: bool


def enumerate_p_bases(p: int, *, node_budget: int | None = None, threads: int = 1) -> int:
    """Number of p-bases: the total of the range fold, whose leaf step is the cheapest."""
    return sum(_fold(BasisDFS(p, p - 1, node_budget=node_budget), "range", threads))


@_record
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


def _tail_counts(p: int, *, node_budget: int | None = None, threads: int = 1) -> list:
    """The "tally" fold over all p-bases.

    It counts each p-basis at 3 * tail + extensible + symmetricisable; a
    symmetricisable basis is always extensible, so index % 3 is 0 for
    neither, 1 for extensible only and 2 for both.
    """
    return _fold(BasisDFS(p, p - 1, node_budget=node_budget), "tally", threads)


def _class_counts(rows: list) -> tuple[int, int, int]:
    """(n_p, n_e, n_s) of a `_tail_counts` tally, or of a slice of it from a multiple of 3."""
    n_s = sum(rows[2::3])
    n_e = n_s + sum(rows[1::3])
    return n_e + sum(rows[0::3]), n_e, n_s


def classify(p: int, *, node_budget: int | None = None, threads: int = 1) -> ClassStats:
    """Counts (n_p, n_e, n_s) of all / extensible / symmetricisable p-bases."""
    return ClassStats(p, *_class_counts(_tail_counts(p, node_budget=node_budget, threads=threads)))


@_record
class RangeComparison:
    """How ranges of p-bases compare against the yardstick a_{p-1} + p - 1."""

    p: int
    below: int
    equal: int
    above: int


def range_comparison_stats(p: int, *, node_budget: int | None = None,
                           threads: int = 1) -> RangeComparison:
    return RangeComparison(p, *_fold(BasisDFS(p, p - 1, node_budget=node_budget), "range", threads))


@_record
class TailDistribution:
    """Per-tail counts (n_p, n_e, n_s) from the smallest possible tail to v1.

    Tails congruent to 0 or 1 mod p cannot occur (the top residue is
    nonzero and residue 1 is taken by a_1), so those rows are zero.
    """

    p: int
    rows: tuple[tuple[int, int, int, int], ...]  # (tail, n_p, n_e, n_s)


def tail_distribution(p: int, *, node_budget: int | None = None,
                      threads: int = 1) -> TailDistribution:
    counts = _tail_counts(p, node_budget=node_budget, threads=threads)
    rows = tuple(
        (tail, *_class_counts(counts[3 * tail:3 * tail + 3]))
        for tail in range(p - 1, max(i for i, n in enumerate(counts) if n) // 3 + 1)
    )
    return TailDistribution(p=p, rows=rows)


@_record
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


def maxima_record(p: int, *, node_budget: int | None = None, threads: int = 1) -> MaximaRecord:
    rows = _tail_counts(p, node_budget=node_budget, threads=threads)
    v1 = max((i for i, n in enumerate(rows) if n), default=0) // 3
    v2 = max((i // 3 for i, n in enumerate(rows) if n and i % 3), default=0)
    return MaximaRecord(p=p, v1=v1, v2=v2)


# --- streaming enumeration with checkpoints -------------------------------

# nodes between a serial stream's writes, and by default between its checkpoints (see the README)
_WRITE_EVERY = 5000
_CHECKPOINT_EVERY = 50000


def save_checkpoint(path: str, state: dict) -> None:
    """Write-new-then-rename, with an fsync, so a crash never leaves a torn checkpoint.

    The record file is only flushed before it, so the pair survives a crash of
    the process; after a power loss the file can lack lines the checkpoint
    counts, and a resume exits 2.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str, p: int, mode: str, classify_records: bool) -> tuple[dict, dict]:
    """(frontier, record counts) of a checkpoint, if a run of this p, mode and flag wrote it."""
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
    stats = state["partial_stats"]
    if not isinstance(stats, dict):
        raise PreconditionError("checkpoint field 'partial_stats' is not an object")
    if state["p"] != p or stats.get("mode") != mode:
        raise PreconditionError(
            "checkpoint does not match the requested run "
            f"(p={state['p']}, mode={stats.get('mode')!r})"
        )
    if bool(stats.get("classify")) != bool(classify_records):
        raise PreconditionError("checkpoint classify flag does not match")
    counts = {"count": stats.get("count"), "n_e": stats.get("n_e", 0), "n_s": stats.get("n_s", 0)}
    visited = state["visited"]
    if not (
        all(type(v) is int for v in (*counts.values(), visited))
        and 0 <= counts["n_s"] <= counts["n_e"] <= counts["count"] <= visited
        and (classify_records or counts["n_e"] == 0)
    ):
        raise PreconditionError(
            f"corrupt checkpoint counts {counts} after {visited!r} nodes: need "
            "integers 0 <= n_s <= n_e <= count <= visited, and n_e = 0 unless classifying"
        )
    return {k: state[k] for k in ("p", "prefix", "cursors", "visited")}, counts


def run_enumeration(
    p: int,
    mode: str = "plain",
    classify_records: bool = False,
    out_path: str | None = None,
    out_stream=None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    checkpoint_every: int = _CHECKPOINT_EVERY,
    threads: int = 1,
    node_budget: int | None = None,
) -> dict:
    """Stream enumeration records as JSONL and return the summary counts.

    Output is byte-identical regardless of thread count or checkpoint
    cadence: parallel subtrees merge in lexicographic order, and a resumed
    run first truncates the record file back to the checkpointed count.
    A serial run writes its records at least every `_WRITE_EVERY` nodes, at
    each checkpoint, every `checkpoint_every` nodes, and at the end.
    """
    total, _ = _mode_levels(p, mode)
    if mode == "plus":
        classify_records = True
    if threads > 1 and (checkpoint_path or node_budget is not None):
        # a record stream that can stop part way runs serially, so it stops where one walk does
        raise PreconditionError("a checkpoint or a node budget requires a single-threaded run")
    if out_path is None and out_stream is None:
        raise PreconditionError("the records need a file (out_path) or a stream (out_stream)")
    if checkpoint_path and out_path is None:
        # stdout cannot be cut back to a checkpoint's count, so a resume would repeat records
        raise PreconditionError("checkpointing needs a record file (--out)")
    if checkpoint_path and os.path.realpath(out_path) in {
            os.path.realpath(checkpoint_path + end) for end in ("", ".tmp")}:
        # each would overwrite the other, and a finished run removes the checkpoint
        raise PreconditionError(
            f"record file {out_path!r} is the checkpoint {checkpoint_path!r} or its temporary")

    if resume and not checkpoint_path:
        raise PreconditionError("--resume needs a checkpoint file")
    state, counts = (
        load_checkpoint(checkpoint_path, p, mode, classify_records) if resume
        else (None, {"count": 0, "n_e": 0, "n_s": 0})
    )
    # built before the record file is opened, so a bad p, a corrupt frontier, or one already
    # over the budget, leaves it as it was; a pooled run checks p here and walks the subtrees
    dfs = BasisDFS(p, total, constrained=p - 1, state=state, node_budget=node_budget)

    # a resumed run keeps the records the checkpoint counts and cuts the file after them
    with (open(out_path, "r+" if counts["count"] else "w", encoding="utf-8")
          if out_path is not None else nullcontext(out_stream)) as sink:
        if counts["count"]:  # only a resume counts records, and it has a record file
            for _ in range(counts["count"]):
                if not sink.readline().endswith("\n"):  # missing, or torn by the interruption
                    raise PreconditionError("record file is shorter than the checkpoint expects")
            sink.seek(sink.tell())  # a text read runs ahead of tell(), where truncate() would cut
            sink.truncate()

        def drain(records):
            """Write a records fold's pending lines; their counts move into `counts`."""
            lines, tally = records
            sink.write("".join(lines))
            lines.clear()
            counts["count"] += sum(tally)
            if classify_records:  # a symmetricisable basis is extensible
                counts["n_e"] += tally[1] + tally[2]
                counts["n_s"] += tally[2]
            tally[:] = (0, 0, 0)

        # the file is flushed only before each checkpoint and at the end
        checkpoint_due = dfs.visited + checkpoint_every

        def pause():  # at the leaf where dfs.state() now stands; returns the next pause
            nonlocal checkpoint_due
            drain(dfs._tally)
            if dfs.visited >= checkpoint_due:
                checkpoint_due = dfs.visited + checkpoint_every
                if checkpoint_path:
                    sink.flush()  # a checkpoint never counts a line that is not in the file
                    save_checkpoint(checkpoint_path, {**dfs.state(), "partial_stats": {
                        "mode": mode, "classify": bool(classify_records), **counts}})
            return min(dfs.visited + _WRITE_EVERY, checkpoint_due)

        # only the walk in this process can call back, so only one thread pauses
        hooks = (min(dfs.visited + _WRITE_EVERY, checkpoint_due), pause) if threads <= 1 else ()
        try:
            for records in _fold(dfs, "records", threads, _ENDS[classify_records], *hooks):
                drain(records)
        finally:
            if dfs._tally is not None:  # a serial walk's lines since its last pause, after a trip too
                drain(dfs._tally)
        # a finished run needs no recovery point, and a stale one would
        # restore as a fresh traversal and duplicate every record; the file
        # gets every record before the recovery point goes
        if checkpoint_path:
            sink.flush()
            with suppress(FileNotFoundError):
                os.remove(checkpoint_path)
    summary = {"p": p, "mode": mode, "n_p" if mode == "plain" else "n_plus": counts["count"]}
    if classify_records:
        summary.update(n_e=counts["n_e"], n_s=counts["n_s"])
    return summary

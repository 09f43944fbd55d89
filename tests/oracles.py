"""Brute-force reference implementations used to validate the fast paths.

Everything here favours obviousness over speed: ranges come from a literal
set of pairwise sums, the basis generator enumerates whole residue-class
products bounded only by a crude count-of-sums cap, and extension checks
rebuild each extended basis from scratch.
"""

import itertools
from collections import Counter


def brute_range(elements) -> int:
    """Largest n with 1..n all expressible as a sum of at most two elements."""
    elems = (0,) + tuple(elements)
    sums = {a + b for a in elems for b in elems}
    n = 0
    while n + 1 in sums:
        n += 1
    return n


def brute_coverage(elements) -> int:
    """Bitmask with bit x set for every sum x of at most two elements, 0 included."""
    elems = (0,) + tuple(elements)
    return sum({1 << a + b for a in elems for b in elems})


def brute_admissible(elements) -> bool:
    return brute_range(elements) >= max(elements)


def naive_p_bases(p: int):
    """Every p-basis from first principles, as sorted element tuples.

    A basis on k elements generates at most k*(k+3)/2 distinct values, so
    an admissible one fits inside 1..that cap.  Enumerate one element per
    nonzero residue class from that window and filter.
    """
    k = p - 1
    cap = k * (k + 3) // 2
    classes = [
        [x for x in range(1, cap + 1) if x % p == r] for r in range(1, p)
    ]
    found = []
    for combo in itertools.product(*classes):
        elems = tuple(sorted(combo))
        if elems[0] != 1:
            continue
        if brute_range(elems) >= elems[-1]:
            found.append(elems)
    return sorted(found)


def arith_extended(elements, p: int, m: int):
    b0 = elements[-1]
    return tuple(elements) + tuple(b0 + i * p for i in range(1, m + 1))


def brute_extension_profile(elements, p: int, horizon: int):
    """Admissibility of A_{j+i} for every i = 0..horizon, from scratch."""
    return [
        brute_admissible(arith_extended(elements, p, i))
        for i in range(horizon + 1)
    ]


def brute_closure(origin, p: int, m: int):
    """Mirrored closure S_m of an origin, assembled literally."""
    b0 = origin[-1]
    bm = b0 + m * p
    ext = [b0 + i * p for i in range(1, m + 1)]
    mirror = [bm + b0 - a for a in (0,) + tuple(origin[:-1])]
    return tuple(sorted(tuple(origin) + tuple(ext) + tuple(mirror)))



def brute_segments(entries) -> list:
    """Best-p segment rows of a {(k, p): range} grid, from the definition.

    A cell wins when its range is the largest in its k column, ties
    included.  Each row is a maximal run k_min..k_max of consecutive k
    that one p wins, with the range at k_min; rows sort by (k_min, k_max, p).
    """
    column = {}
    for (k, _), value in entries.items():
        column.setdefault(k, []).append(value)
    winners = {cell for cell, value in entries.items() if value == max(column[cell[0]])}
    rows = []
    for k, p in winners:
        if (k - 1, p) in winners:
            continue  # inside a run that starts lower
        end = k
        while (end + 1, p) in winners:
            end += 1
        rows.append((k, end, entries[k, p], p))
    return sorted(rows, key=lambda row: (row[0], row[1], row[3]))

def search_nodes(p: int, total: int, constrained: int):
    """Every node of the p-basis search tree, in depth-first order, by plain recursion.

    A node is a prefix 1 = a_1 < ... < a_t in which each element is at
    most n(previous prefix) + 1, and the first `constrained` elements have
    distinct nonzero residues mod p.  Children come in increasing order,
    and the tree stops at `total` elements.
    """
    nodes = []

    def grow(prefix):
        nodes.append(tuple(prefix))
        if len(prefix) == total:
            return
        residues = {a % p for a in prefix}
        for c in range(prefix[-1] + 1, brute_range(prefix) + 2):
            if len(prefix) < constrained and (c % p == 0 or c % p in residues):
                continue
            grow(prefix + [c])

    grow([1])
    return nodes


def search_tree(p: int, total: int, constrained: int):
    """Leaves (the nodes with `total` elements, in lexicographic order) and node count."""
    nodes = search_nodes(p, total, constrained)
    return [n for n in nodes if len(n) == total], len(nodes)


def node_liveness(p: int) -> dict:
    """Every node of the plain p-basis tree, in depth-first order, mapped to whether it is live.

    A node is live if an extensible leaf lies below it, the leaf itself
    included: each arithmetic extension A_{j+i}, i = 0..k* with
    k* = floor((b_0 - 1) / p), is admissible, rebuilt from scratch.  Every
    other node is dead.
    """
    nodes = search_nodes(p, p - 1, p - 1)
    live = set()
    for node in nodes:
        if len(node) == p - 1 and all(brute_extension_profile(node, p, (node[-1] - 1) // p)):
            live.update(node[:depth] for depth in range(1, p))
    return {node: node in live for node in nodes}


def dead_roots(liveness: dict) -> Counter:
    """The dead nodes whose parent is live, counted by depth (the number of elements).

    A search that cut exactly there would visit the live nodes and these.
    """
    return Counter(len(node) for node, live in liveness.items()
                   if not live and liveness.get(node[:-1]))

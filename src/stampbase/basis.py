"""Core representation for 2-stamp additive bases and their coverage.

A basis A_k = {1, a_2, ..., a_k} is a strictly increasing tuple of positive
integers with a_1 = 1 and an implicit a_0 = 0.  A value x > 0 is *generated*
when x = a_i or x = a_i + a_j (repetition allowed).  The range n(A_k) is the
largest n such that every value 1..n is generated, and A_k is *admissible*
when n(A_k) >= a_k, i.e. coverage reaches the top element without a gap.

Coverage lives in one big-int bitmask (bit x set iff x is generated), so
appending a new top element b is a single shift-or.  No pairwise sum can
exceed 2*a_k, which bounds every mask structurally; the first cleared bit
above zero locates the range.
"""

from __future__ import annotations

import json


class BasisError(ValueError):
    """Structurally invalid basis: non-integer, unsorted, duplicated, or not starting at 1."""


class PreconditionError(ValueError):
    """An operation was applied to a basis outside its stated domain."""


def _record(cls):
    """Make a class a frozen record of its annotated fields, as dataclass(frozen=True) did.

    One compiled `__init__` takes the fields in order, by position or keyword, then
    runs `__post_init__` if the class has one.  Repr, equality and hash go by field
    values, equal only within one class; assignment and deletion raise AttributeError.
    """
    names = tuple(cls.__annotations__)
    body = "".join(f"\n _set(self, {name!r}, {name})" for name in names)
    post_init = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_set": object.__setattr__, "__name__": cls.__module__}
    exec(f"def __init__(self, {', '.join(names)}):{body}{post_init}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__.__annotations__ = {**cls.__annotations__, "return": None}

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return values(self) == values(other) if same else NotImplemented

    def refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls.__match_args__, cls.__repr__ = names, __repr__
    cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def coverage(elements) -> tuple[int, int]:
    """Return (covered, element_mask) bitmasks for an element sequence.

    element_mask has bit a set for every element plus bit 0 for the implicit
    a_0; covered has bit x set for every generated x (including 0).
    """
    mask = 1
    for a in elements:
        mask |= 1 << a
    cov = mask
    for a in elements:
        cov |= mask << a
    return cov, mask


def extend_coverage(cov: int, mask: int, b: int) -> tuple[int, int]:
    """Coverage masks after appending a new top element b (b above all others)."""
    return cov | (mask << b) | (1 << (2 * b)), mask | (1 << b)


def first_gap(cov: int) -> int:
    """Smallest x >= 0 whose bit is cleared; bit 0 is always set, so >= 1."""
    return ((~cov) & (cov + 1)).bit_length() - 1


def range_from_coverage(cov: int) -> int:
    return first_gap(cov) - 1


def _validated(elements) -> tuple[int, ...]:
    elems = tuple(elements)
    for a in elems:  # int() would round 2.5 down and read "3" as 3
        if type(a) is not int:
            raise BasisError(f"elements must be integers, got {a!r}")
    if not elems:
        raise BasisError("basis needs at least one element")
    if elems[0] != 1:
        raise BasisError(f"basis must start with 1, got {elems[0]}")
    for a, b in zip(elems, elems[1:]):
        if b <= a:
            raise BasisError(f"elements must be strictly increasing: {a} then {b}")
    return elems


@_record
class Basis:
    """Strictly increasing positive integers a_1 = 1 < a_2 < ... < a_k."""

    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", _validated(self.elements))

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def tail(self) -> int:
        return self.elements[-1]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @classmethod
    def parse(cls, text: str) -> "Basis":
        """Parse the comma-separated wire format, e.g. "1,3,4,5,8".

        Each part is ASCII digits, with whitespace around them allowed: no
        sign, underscore or other script's digit, which `int` would take.
        An error names the first bad part by position and length and quotes
        at most 20 of its characters, however long the text.
        """
        parts = [part.strip() for part in text.split(",")]
        elements = []
        for position, part in enumerate(parts, 1):
            try:
                if not (part.isascii() and part.isdigit()):
                    raise ValueError
                elements.append(int(part))
            except ValueError:  # or more digits than int() converts, sys.get_int_max_str_digits()
                shown = repr(part[:20]) + ("..." if len(part) > 20 else "")
                raise BasisError(f"unparseable basis text: part {position} of {len(parts)} "
                                 f"(length {len(part)}) is {shown}") from None
        return cls(tuple(elements))

    def to_text(self) -> str:
        return ",".join(str(a) for a in self.elements)

    @classmethod
    def from_json(cls, src) -> "Basis":
        """Accept either a JSON string or an already-decoded object."""
        obj = json.loads(src) if isinstance(src, (str, bytes)) else src
        if not isinstance(obj, dict) or not isinstance(obj.get("elements"), list):
            raise BasisError("basis JSON must be an object with an 'elements' array")
        return cls(tuple(obj["elements"]))

    def to_json(self) -> str:
        return json.dumps({"elements": list(self.elements)})


@_record
class RangeResult:
    n: int
    admissible: bool


@_record
class ReachSet:
    """Coverage snapshot for a basis: which sums of at most two elements exist.

    limit bounds the meaningful bit positions (2 * top element); bits above
    it are structurally zero.
    """

    limit: int
    element_mask: int
    covered: int

    @classmethod
    def of(cls, basis: Basis) -> "ReachSet":
        cov, mask = coverage(basis.elements)
        return cls(limit=2 * basis.tail, element_mask=mask, covered=cov)

    def contains(self, x: int) -> bool:
        return 0 <= x <= self.limit and bool((self.covered >> x) & 1)

    def range_n(self) -> int:
        return range_from_coverage(self.covered)


def basis_range(basis: Basis) -> RangeResult:
    """Range n(A_k) plus the admissibility verdict n >= a_k.

    The coverage grows element by element and stops at the first element
    above n + 1: every later element, and every sum with one, is larger
    than that gap, so n is final there, and no bitmask spans the gap.
    """
    cov = mask = 1
    for a in basis.elements:
        if a > first_gap(cov):
            break
        cov, mask = extend_coverage(cov, mask, a)
    n = range_from_coverage(cov)
    return RangeResult(n=n, admissible=n >= basis.tail)


def extend_reach(reach: ReachSet, basis: Basis, new_element: int) -> ReachSet:
    """Reach of basis + {new_element} computed incrementally from `reach`.

    `reach` must be the coverage of `basis` and new_element must exceed its
    top element; the update is one shift-or instead of a full rebuild.
    """
    expected_mask = 1
    for a in basis.elements:
        expected_mask |= 1 << a
    if reach.element_mask != expected_mask:
        raise BasisError("reach does not correspond to the given basis")
    if new_element <= basis.tail:
        raise BasisError(
            f"new element {new_element} must exceed current top {basis.tail}"
        )
    cov, mask = extend_coverage(reach.covered, reach.element_mask, new_element)
    return ReachSet(limit=2 * new_element, element_mask=mask, covered=cov)


@_record
class ResidueProfile:
    """Residues of a_0, a_1, ..., a_k mod p in positional order."""

    residues: tuple[int, ...]
    complete: bool


def residue_profile(basis: Basis, p: int) -> ResidueProfile:
    """Residues mod p of the basis including the implicit a_0 = 0."""
    if p < 2:
        raise PreconditionError(f"modulus must be at least 2, got {p}")
    residues = (0,) + tuple(a % p for a in basis.elements)
    return ResidueProfile(residues=residues, complete=len(set(residues)) == p)


def is_p_basis(basis: Basis, p: int) -> bool:
    """Exactly p-1 elements, one from each nonzero residue class mod p, admissible."""
    if p < 3:
        raise PreconditionError(f"p-basis test needs p >= 3, got {p}")
    if basis.k != p - 1:
        return False
    residues = {a % p for a in basis.elements}
    if 0 in residues or len(residues) != p - 1:
        return False
    return basis_range(basis).admissible


def is_symmetric(basis: Basis) -> bool:
    """Whether a_i + a_{k-i} = a_k for all i, counting the implicit a_0 = 0."""
    e = (0,) + basis.elements
    k = basis.k
    return all(e[i] + e[k - i] == e[k] for i in range(1, k))


def symmetrize(initial: Basis, parity: str) -> Basis:
    """Reflect an initial segment A_j into a symmetric basis.

    parity "even" yields k = 2j with top 2*a_j; parity "odd" yields
    k = 2j - 1 with top a_j + a_{j-1}.  The odd construction on a single
    element degenerates to {1} (documented, not an error).
    """
    elems = initial.elements
    j = len(elems)
    with_zero = (0,) + elems
    if parity == "even":
        top = 2 * elems[-1]
        mirrored = tuple(top - a for a in reversed(with_zero[:j]))
    elif parity == "odd":
        if j == 1:
            return Basis((1,))
        top = elems[-1] + elems[-2]
        mirrored = tuple(top - a for a in reversed(with_zero[: j - 1]))
    else:
        raise PreconditionError(f"parity must be 'even' or 'odd', got {parity!r}")
    return Basis(elems + mirrored)

"""Integer partitions and their elementary combinatorics.

A partition is stored as a tuple of weakly decreasing positive parts.
Trailing zeros are stripped at construction and indexing past the last
part reads 0, so structural equality coincides with mathematical
equality.  All arithmetic is exact.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator
from functools import total_ordering
from itertools import repeat


class GrammarError(ValueError):
    """Partition or skew-diagram text that does not match the input grammar."""


# error messages quote at most this many characters of an offending input
_ECHO_LIMIT = 60


def _echo(text: str) -> str:
    """`text` as an error message quotes it: past `_ECHO_LIMIT` characters, cut and marked."""
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


@total_ordering
class Partition:
    """Weakly decreasing sequence of positive integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = list(parts)
        while ps and ps[-1] == 0:
            ps.pop()
        # ints weakly decreasing down to a positive last part, checked in
        # C-level passes; the walk only words a refusal
        valid = all(map(isinstance, ps, repeat(int))) and (not ps or ps[-1] > 0)
        if not (valid and all(map(operator.ge, ps, ps[1:]))):
            for i, p in enumerate(ps):
                if not isinstance(p, int) or p <= 0:
                    raise ValueError(f"partition parts must be positive integers, got {_echo(str(ps))}")
                if i > 0 and ps[i - 1] < p:
                    raise ValueError(f"partition parts must be weakly decreasing, got {_echo(str(ps))}")
        self._parts = tuple(ps)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Adopt a tuple the caller knows to be positive and weakly decreasing."""
        p = object.__new__(cls)
        p._parts = parts
        return p

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        # reads past the end return 0; negative indices have no meaning here
        if i < 0:
            raise IndexError("partition parts are indexed from 0")
        return self._parts[i] if i < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __lt__(self, other: "Partition") -> bool:
        # tuple order equals lexicographic order on zero-padded parts
        return self._parts < other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return format_partition(self)


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram: column heights become row lengths."""
    if not p:
        return Partition()
    return Partition(sum(1 for x in p if x > j) for j in range(p[0]))


def contains(mu: Partition, lam: Partition) -> bool:
    """True if the diagram of mu fits inside the diagram of lam."""
    # parts are positive, so no part of mu fits past the end of lam
    m, n = mu._parts, lam._parts
    return len(m) <= len(n) and all(map(operator.le, m, n))


def durfee(p: Partition) -> int:
    """Side of the largest square contained in the diagram."""
    d = 0
    while p[d] >= d + 1:
        d += 1
    return d


def principal_hook_lengths(p: Partition) -> Partition:
    """Hook lengths of the diagonal boxes, a strictly decreasing partition."""
    conj = conjugate(p)
    return Partition(p[i] + conj[i] - 2 * i - 1 for i in range(durfee(p)))


def first_hook_strip(p: Partition) -> Partition:
    """Remove the first row and first column of the diagram."""
    if not p:
        raise ValueError("cannot strip the empty partition")
    return Partition(x - 1 for x in p.parts[1:] if x > 1)


def from_frobenius(arms: Iterable[int], legs: Iterable[int]) -> Partition:
    """Partition with the given diagonal arm and leg lengths."""
    arms = tuple(arms)
    legs = tuple(legs)
    if len(arms) != len(legs):
        raise ValueError("arm and leg sequences differ in length")
    d = len(arms)
    for seq in (arms, legs):
        for i in range(d):
            if seq[i] < 0 or (i > 0 and seq[i - 1] <= seq[i]):
                raise ValueError(f"Frobenius coordinates must strictly decrease, got {seq}")
    rows = [arms[i] + i + 1 for i in range(d)]
    depth = legs[0] + 1 if d else 0
    # row r below the diagonal holds the j with legs[j] + j >= r; that bound
    # weakly decreases in j, so those j are a prefix that shrinks as r grows
    j = d
    for r in range(d, depth):
        while legs[j - 1] + j - 1 < r:
            j -= 1
        rows.append(j)
    return Partition(rows)


# Most parts one partition text may hold, and the largest part: the diagram
# fits in a MAX_PARTS square.  Both are checked before any ``b^e`` is
# expanded, so that input like ``1^100000000`` is refused without allocating.
MAX_PARTS = 10_000

# the common text: plain numbers of at most five ASCII digits, which int()
# reads with no per-token pattern, and the caps check once the list is made
_PLAIN = re.compile(r"[0-9]{1,5}(?:,[0-9]{1,5})*")
# one token of any text: leading zeros outside the groups, which start with
# a digit other than 0 so that a long run of zeros does not backtrack
# quadratically; ASCII digits only, as int() also reads other decimal digits
_TOKEN = re.compile(r"0*([1-9][0-9]*|0)(?:\^0*([1-9][0-9]*|0))?")
_DIGITS = len(str(MAX_PARTS))


def parse_partition(text: str) -> Partition:
    """Parse comma separated parts with optional exponents, e.g. ``10^2,8,5^3``.

    Whitespace is ignored everywhere; an empty string is the empty partition.
    More than `MAX_PARTS` parts in total, or a part above `MAX_PARTS`, is a
    grammar error.
    """
    compact = "".join(text.split())
    if not compact:
        return Partition()
    if _PLAIN.fullmatch(compact):
        parts = list(map(int, compact.split(",")))
        if len(parts) <= MAX_PARTS and max(parts) <= MAX_PARTS:
            return Partition(parts)
    return Partition(_token_parts(compact))


def _token_parts(compact: str) -> list[int]:
    """The parts of text that is not plain numbers under the caps, token by token.

    That is text with exponents or with a number of more than five digits,
    leading zeros among them, or text to refuse: its first bad token names
    the refusal.
    """
    parts: list[int] = []
    for token in compact.split(","):
        m = _TOKEN.fullmatch(token)
        if not m:
            raise GrammarError(f"bad partition token {_echo(repr(token))}")
        b, e = m.groups(default="1")
        # more digits than MAX_PARTS has is past it, and int() never reads
        # them: past 4 300 digits int() refuses, and its time grows with them
        base = int(b) if len(b) <= _DIGITS else MAX_PARTS + 1
        exp = int(e) if len(e) <= _DIGITS else MAX_PARTS + 1
        if base > MAX_PARTS:
            raise GrammarError(f"a part may be at most {MAX_PARTS}")
        if not exp:
            raise GrammarError(f"exponent must be positive in {_echo(repr(token))}")
        if len(parts) + exp > MAX_PARTS:
            raise GrammarError(f"a partition may have at most {MAX_PARTS} parts")
        parts.extend([base] * exp)
    return parts


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition; repeated parts are written with exponents."""
    return _format_parts(p.parts)


def _format_parts(parts: tuple[int, ...]) -> str:
    """`format_partition` from a parts tuple, with no `Partition` made."""
    out = []
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        out.append(f"{parts[i]}^{j - i}" if j - i > 1 else str(parts[i]))
        i = j
    return ",".join(out)


def partitions_in_box(k: int, l: int) -> Iterator[Partition]:
    """All partitions with first part at most k and at most l parts: the subpartitions of k^l."""
    return subpartitions(Partition((max(k, 0),) * l))


def subpartitions(p: Partition) -> Iterator[Partition]:
    """All partitions contained in p, the empty partition included.

    Each prefix is yielded before its extensions, and a row's values in
    descending order.  The walk keeps its own stack, so a partition of
    `MAX_PARTS` parts needs no recursion that deep.
    """
    parts = p.parts
    stack = [()]
    while stack:
        sub = stack.pop()
        yield Partition._trusted(sub)
        i = len(sub)
        if i < len(parts):
            top = min(parts[i], sub[-1]) if sub else parts[i]
            # pushed ascending, so the largest value is popped first
            stack.extend([sub + (v,) for v in range(1, top + 1)])

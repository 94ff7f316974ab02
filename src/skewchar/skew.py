"""Skew diagrams: nested partition pairs and their row-span operations.

Diagrams are compared structurally on (outer, inner); translates of each
other normalize to the same representative, which is how semantic equality
of shapes is expressed.  Every operation here reads the row spans
(inner_i, outer_i] of `SkewDiagram.spans` and builds its result with
`_from_spans`; box sets only enter through `skew_from_boxes`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import zip_longest

from .partitions import (
    GrammarError,
    Partition,
    conjugate,
    contains,
    format_partition,
    parse_partition,
)


_EMPTY = Partition()


class SkewDiagram:
    """The boxes of `outer` outside `inner`; immutable, equal and hashed on (outer, inner)."""

    __slots__ = ("outer", "inner")
    __match_args__ = ("outer", "inner")

    outer: Partition
    inner: Partition

    def __init__(self, outer: Partition, inner: Partition = _EMPTY) -> None:
        if not contains(inner, outer):
            raise ValueError("inner not contained in outer")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.outer, self.inner) == (other.outer, other.inner)

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(outer={self.outer!r}, inner={self.inner!r})"

    def __reduce__(self):
        # copy and pickle call the constructor; the slots take no setattr
        return self.__class__, (self.outer, self.inner)

    @property
    def size(self) -> int:
        return self.outer.weight - self.inner.weight

    @property
    def num_rows(self) -> int:
        return self.outer.length

    @property
    def num_cols(self) -> int:
        return self.outer[0] if self.outer else 0

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Occupied columns (inner_i, outer_i] of rows 1..num_rows; inner is padded with 0."""
        # from a list: a tuple built from an iterator is resized and leaves blocks on the free lists
        return tuple(list(zip_longest(self.inner.parts, self.outer.parts, fillvalue=0)))

    def row_lengths(self) -> list[int]:
        return [b - a for a, b in self.spans if b > a]

    def column_heights(self) -> list[int]:
        co, ci = conjugate(self.outer), conjugate(self.inner)
        return [co[j] - ci[j] for j in range(self.num_cols) if co[j] > ci[j]]

    def __str__(self) -> str:
        return format_skew(self)


def _from_spans(spans: Sequence[tuple[int, int]]) -> SkewDiagram:
    """Canonical diagram of the row spans (a, b], top row first.

    Empty rows at the top and bottom are dropped and the leftmost box moves
    to column 1; an empty row pinned between occupied ones keeps the outer
    width of the row below.  The constructors raise ValueError on any span
    list that is not a skew shape.
    """
    filled = [i for i, (a, b) in enumerate(spans) if a < b]
    if not filled:
        return SkewDiagram(_EMPTY, _EMPTY)
    shift = min(spans[i][0] for i in filled)
    outer: list[int] = []
    inner: list[int] = []
    for a, b in reversed(spans[filled[0] : filled[-1] + 1]):
        if a == b:
            a = b = outer[-1] + shift
        outer.append(b - shift)
        inner.append(a - shift)
    return SkewDiagram(Partition(outer[::-1]), Partition(inner[::-1]))


def skew_from_boxes(boxes: Iterable[tuple[int, int]]) -> SkewDiagram:
    """Canonical skew diagram of a box set, translated against row 1 / column 1.

    Raises ValueError if the boxes are not a translate of any skew shape.
    """
    rows: dict[int, set[int]] = {}
    for r, c in boxes:
        rows.setdefault(r, set()).add(c)
    spans = []
    for r in range(min(rows, default=1), max(rows, default=0) + 1):
        cols = rows.get(r, ())
        # a row without boxes gives the empty span (0, 0]
        lo, hi = min(cols, default=1), max(cols, default=0)
        if hi - lo + 1 != len(cols):
            raise ValueError("boxes do not form a skew diagram")
        spans.append((lo - 1, hi))
    try:
        return _from_spans(spans)
    except ValueError:
        raise ValueError("boxes do not form a skew diagram") from None


def normalize(a: SkewDiagram) -> SkewDiagram:
    """Canonical representative of a under translation."""
    return _from_spans(a.spans)


def rotate180(a: SkewDiagram) -> SkewDiagram:
    """Half-turn of the diagram, restated as a canonical outer/inner pair."""
    w = a.num_cols
    return _from_spans([(w - b, w - a) for a, b in reversed(a.spans)])


def box_components(boxes: Iterable[tuple[int, int]]) -> list[set[tuple[int, int]]]:
    """Edge-connected groups of a box set, in no particular order (a flood fill)."""
    remaining = set(boxes)
    groups = []
    while remaining:
        frontier = [remaining.pop()]
        group = set(frontier)
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    group.add(nb)
                    frontier.append(nb)
        groups.append(group)
    return groups


def components(a: SkewDiagram) -> list[SkewDiagram]:
    """Maximal box groups sharing no row or column, topmost group first.

    For skew shapes these are exactly the edge-connected components: runs
    of rows, each row starting left of the end of the row below it.
    """
    spans = a.spans
    cuts = [0] + [i for i in range(1, len(spans)) if spans[i - 1][0] >= spans[i][1]] + [len(spans)]
    # an empty row is cut off on both sides and gives an empty piece
    pieces = (_from_spans(spans[i:j]) for i, j in zip(cuts, cuts[1:]))
    return [p for p in pieces if p.outer]


def embed_disjoint(alpha: Partition, beta: Partition) -> SkewDiagram:
    """One canonical diagram decomposing into alpha (northeast) and beta (southwest)."""
    if not beta:
        return SkewDiagram(alpha, _EMPTY)
    if not alpha:
        return SkewDiagram(beta, _EMPTY)
    w = beta[0]
    outer = Partition([w + x for x in alpha] + list(beta.parts))
    inner = Partition([w] * alpha.length)
    return SkewDiagram(outer, inner)


def translate(a: SkewDiagram, down: int = 0, right: int = 0) -> SkewDiagram:
    """Field-different representative of the same diagram, shifted down/right."""
    if down < 0 or right < 0:
        raise ValueError("translation must move down and right")
    if not a.outer:
        return a
    pad = a.outer[0] + right
    outer = [pad] * down + [x + right for x in a.outer]
    inner = [pad] * down + [lo + right for lo, _ in a.spans]
    return SkewDiagram(Partition(outer), Partition(inner))


def parse_skew(text: str) -> SkewDiagram:
    """Parse ``outer/inner``; the inner partition may be absent."""
    compact = "".join(text.split())
    if compact.count("/") > 1:
        raise GrammarError("more than one '/' in skew diagram")
    outer_text, _, inner_text = compact.partition("/")
    return SkewDiagram(parse_partition(outer_text), parse_partition(inner_text))


def format_skew(a: SkewDiagram) -> str:
    if not a.inner:
        return format_partition(a.outer)
    return f"{format_partition(a.outer)}/{format_partition(a.inner)}"

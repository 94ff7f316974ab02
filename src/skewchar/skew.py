"""Skew diagrams: nested partition pairs and their row-span operations.

Diagrams are compared structurally on (outer, inner); translates of each
other normalize to the same representative, which is how semantic equality
of shapes is expressed.  Every operation here works on the row spans
(inner_i, outer_i]; box sets only enter through `skew_from_boxes` and leave
through `SkewDiagram.boxes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partitions import (
    GrammarError,
    Partition,
    conjugate,
    contains,
    format_partition,
    parse_partition,
)


_EMPTY = Partition()


@dataclass(frozen=True)
class SkewDiagram:
    outer: Partition
    inner: Partition = _EMPTY

    def __post_init__(self) -> None:
        if not contains(self.inner, self.outer):
            raise ValueError("inner not contained in outer")

    @property
    def size(self) -> int:
        return self.outer.weight - self.inner.weight

    @property
    def num_rows(self) -> int:
        return self.outer.length

    @property
    def num_cols(self) -> int:
        return self.outer[0] if self.outer else 0

    def row_span(self, i: int) -> tuple[int, int]:
        """Occupied columns (a, b] of 1-based row i."""
        return self.inner[i - 1], self.outer[i - 1]

    def boxes(self) -> list[tuple[int, int]]:
        """The (row, col) boxes, row by row; the inverse of `skew_from_boxes`."""
        return [(i, j) for i, (a, b) in enumerate(_spans(self), 1) for j in range(a + 1, b + 1)]

    def row_lengths(self) -> list[int]:
        return [b - a for a, b in _spans(self) if b > a]

    def column_heights(self) -> list[int]:
        co, ci = conjugate(self.outer), conjugate(self.inner)
        return [co[j] - ci[j] for j in range(self.num_cols) if co[j] > ci[j]]

    def __str__(self) -> str:
        return format_skew(self)


def _spans(a: SkewDiagram) -> list[tuple[int, int]]:
    return [a.row_span(i) for i in range(1, a.num_rows + 1)]


def _from_spans(spans: list[tuple[int, int]]) -> SkewDiagram:
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
    return _from_spans(_spans(a))


def rotate180(a: SkewDiagram) -> SkewDiagram:
    """Half-turn of the diagram, restated as a canonical outer/inner pair."""
    w = a.num_cols
    return _from_spans([(w - b, w - a) for a, b in reversed(_spans(a))])


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
    spans = _spans(a)
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
    inner = [pad] * down + [a.inner[i] + right for i in range(a.outer.length)]
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

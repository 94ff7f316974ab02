"""Skew diagrams: nested partition pairs and their box-set operations.

Diagrams are compared structurally on (outer, inner); translates of each
other normalize to the same representative, which is how semantic equality
of shapes is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .partitions import (
    GrammarError,
    Partition,
    conjugate,
    contains,
    format_partition,
    parse_partition,
)


class Box(NamedTuple):
    row: int
    col: int


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

    def boxes(self) -> list[Box]:
        out = []
        for i in range(1, self.num_rows + 1):
            a, b = self.row_span(i)
            out.extend(Box(i, j) for j in range(a + 1, b + 1))
        return out

    def contains_box(self, row: int, col: int) -> bool:
        if not 1 <= row <= self.num_rows:
            return False
        a, b = self.row_span(row)
        return a < col <= b

    def row_lengths(self) -> list[int]:
        spans = (self.row_span(i) for i in range(1, self.num_rows + 1))
        return [b - a for a, b in spans if b > a]

    def column_heights(self) -> list[int]:
        co, ci = conjugate(self.outer), conjugate(self.inner)
        return [co[j] - ci[j] for j in range(self.num_cols) if co[j] > ci[j]]

    def __str__(self) -> str:
        return format_skew(self)


def skew_from_boxes(boxes: Iterable[tuple[int, int]]) -> SkewDiagram:
    """Canonical skew diagram of a box set, translated against row 1 / column 1.

    Raises ValueError if the boxes are not a translate of any skew shape.
    """
    boxset = {(r, c) for r, c in boxes}
    if not boxset:
        return SkewDiagram(_EMPTY, _EMPTY)
    dr = 1 - min(r for r, _ in boxset)
    dc = 1 - min(c for _, c in boxset)
    shifted = {(r + dr, c + dc) for r, c in boxset}
    nrows = max(r for r, _ in shifted)
    rows: dict[int, list[int]] = {}
    for r, c in shifted:
        rows.setdefault(r, []).append(c)
    outer = [0] * nrows
    inner = [0] * nrows
    for i in range(nrows, 0, -1):
        cols = rows.get(i)
        if cols is None:
            # an empty row pinned between occupied ones; keep it empty at
            # the least width compatible with the row below
            outer[i - 1] = inner[i - 1] = outer[i]
            continue
        cols.sort()
        if cols[-1] - cols[0] + 1 != len(cols):
            raise ValueError("boxes do not form a skew diagram")
        inner[i - 1] = cols[0] - 1
        outer[i - 1] = cols[-1]
    try:
        result = SkewDiagram(Partition(outer), Partition(inner))
    except ValueError:
        raise ValueError("boxes do not form a skew diagram") from None
    if set(result.boxes()) != shifted:
        raise ValueError("boxes do not form a skew diagram")
    return result


def normalize(a: SkewDiagram) -> SkewDiagram:
    """Canonical representative of a under translation."""
    return skew_from_boxes(a.boxes())


def rotate180(a: SkewDiagram) -> SkewDiagram:
    """Half-turn of the box set, restated as a canonical outer/inner pair."""
    bs = a.boxes()
    if not bs:
        return SkewDiagram(_EMPTY, _EMPTY)
    rmax = max(b.row for b in bs)
    cmax = max(b.col for b in bs)
    return skew_from_boxes((rmax + 1 - r, cmax + 1 - c) for r, c in bs)


def box_components(boxes: Iterable[tuple[int, int]]) -> list[set[tuple[int, int]]]:
    """Edge-connected groups of a box set, in no particular order."""
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

    For skew shapes these are exactly the edge-connected components.
    """
    return [skew_from_boxes(g) for g in sorted(box_components(a.boxes()), key=min)]


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

"""ASCII rendering of skew diagrams and their ribbon labelings."""

from __future__ import annotations

from .ribbons import RibbonLabeling, nw_labeling
from .skew import Box, SkewDiagram

_SYMBOLS = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_plain(a: SkewDiagram) -> str:
    """One line per row, inner boxes as ':' and skew boxes as '#'."""
    lines = []
    for i in range(1, a.num_rows + 1):
        lo, hi = a.row_span(i)
        lines.append(":" * lo + "#" * (hi - lo))
    return "".join(line + "\n" for line in lines)


def _label_grid(labeling: RibbonLabeling) -> str:
    """`render_labels` of the labeled diagram, from a labeling already made."""
    a, depth = labeling.diagram, len(labeling.profiles)
    if depth > len(_SYMBOLS):
        raise ValueError("too many ribbon layers to render")
    lines = []
    for i in range(1, a.num_rows + 1):
        lo, hi = a.row_span(i)
        symbols = (_SYMBOLS[labeling.labels[Box(i, j)] - 1] for j in range(lo + 1, hi + 1))
        lines.append(":" * lo + "".join(symbols))
    if depth >= 10:
        lines.extend(f"{_SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1))
    return "".join(line + "\n" for line in lines)


def render_labels(a: SkewDiagram) -> str:
    """Like render_plain but each box shows its northwest ribbon index.

    Indices above 9 are rendered as letters and explained in a legend
    below the grid.
    """
    return _label_grid(nw_labeling(a))


def render(a: SkewDiagram, mode: str = "plain") -> str:
    if mode == "plain":
        return render_plain(a)
    if mode == "labels":
        return render_labels(a)
    raise ValueError(f"unknown render mode {mode!r}")

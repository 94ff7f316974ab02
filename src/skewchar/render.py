"""ASCII rendering of skew diagrams and their ribbon labelings."""

from __future__ import annotations

from .ribbons import RibbonLabeling, nw_labeling
from .skew import SkewDiagram

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
    rows = enumerate(labeling.rows)
    if depth <= len(_SYMBOLS):
        lines = [":" * a.inner[i] + "".join([_SYMBOLS[v - 1] for v in row]) for i, row in rows]
        lines.extend(f"{_SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1))
    else:
        # one symbol per label no longer suffices: decimal cells of one width
        width = len(str(depth))
        lines = [
            " ".join([":".rjust(width)] * a.inner[i] + [str(v).rjust(width) for v in row])
            for i, row in rows
        ]
    return "".join(line + "\n" for line in lines)


def render_labels(a: SkewDiagram) -> str:
    """Like render_plain but each box shows its northwest ribbon index.

    Indices above 9 are rendered as letters and explained in a legend
    below the grid.  Past 61 layers, more than there are symbols, every
    index is shown as a decimal number instead: the boxes and the inner
    boxes (':') are right-aligned to one width and separated by spaces,
    with no legend.
    """
    return _label_grid(nw_labeling(a))


def render(a: SkewDiagram, mode: str = "plain") -> str:
    if mode == "plain":
        return render_plain(a)
    if mode == "labels":
        return render_labels(a)
    raise ValueError(f"unknown render mode {mode!r}")

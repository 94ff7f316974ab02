"""ASCII rendering of skew diagrams and their ribbon labelings."""

from __future__ import annotations

from .ribbons import _label_rows
from .skew import SkewDiagram

_SYMBOLS = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_plain(a: SkewDiagram) -> str:
    """One line per row, inner boxes as ':' and skew boxes as '#'."""
    lines = [":" * lo + "#" * (hi - lo) for lo, hi in a.spans]
    return "".join(line + "\n" for line in lines)


def _label_grid(a: SkewDiagram, rows: list[list[int]]) -> str:
    """`render_labels` of the diagram, from its label rows already made."""
    # labels weakly increase along a row, so its last one is its largest
    depth = max((row[-1] for row in rows if row), default=0)
    if depth <= len(_SYMBOLS):
        lines = [
            ":" * lo + "".join([_SYMBOLS[v - 1] for v in row])
            for (lo, _), row in zip(a.spans, rows)
        ]
        lines.extend(f"{_SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1))
    else:
        # one symbol per label no longer suffices: decimal cells of one width
        width = len(str(depth))
        lines = [
            " ".join([":".rjust(width)] * lo + [str(v).rjust(width) for v in row])
            for (lo, _), row in zip(a.spans, rows)
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
    return _label_grid(a, _label_rows(a))


def render(a: SkewDiagram, mode: str = "plain") -> str:
    if mode == "plain":
        return render_plain(a)
    if mode == "labels":
        return render_labels(a)
    raise ValueError(f"unknown render mode {mode!r}")

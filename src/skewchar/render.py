"""ASCII rendering of skew diagrams and their ribbon labelings."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import ribbons
from .skew import SkewDiagram

_SYMBOLS = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# each label's symbol to the next label's; past the last symbol, a character
# that is no symbol, which then stays as it is: labels weakly increase along
# a row, so a row with a label past the symbols ends in it
_PAST = "~"
_NEXT = str.maketrans(_SYMBOLS, _SYMBOLS[1:] + _PAST)


def render_plain(a: SkewDiagram) -> str:
    """One line per row, inner boxes as ':' and skew boxes as '#'."""
    lines = [":" * lo + "#" * (hi - lo) for lo, hi in a.spans]
    return "".join(line + "\n" for line in lines)


def _symbol_rows(a: SkewDiagram) -> Iterator[str]:
    """`ribbons._label_rows` with each label as one symbol, label 1 as "1".

    `_NEXT` maps the symbol of each label to the symbol of the next one,
    so each row is one C-level pass over the row above.
    """
    above = ""
    plo = a.num_cols
    for lo, hi in a.spans:
        n = max(0, hi - plo - 1)
        above = "1" * (hi - lo - n) + above[:n].translate(_NEXT)
        plo = lo
        yield above


def _label_grid(a: SkewDiagram, rows: Iterable[list[int]], depth: int) -> str:
    """`render_labels` of a diagram of `depth` layers, more than there are symbols, from its label rows.

    One symbol per label no longer suffices: decimal cells of one width,
    cells[v] for label v and cells[0] for an inner box.  `rows` may be an
    iterator: each row is drawn as it comes.
    """
    width = len(str(depth))
    cells = [":".rjust(width)] + [str(v).rjust(width) for v in range(1, depth + 1)]
    lines = [
        " ".join([cells[0]] * lo + list(map(cells.__getitem__, row)))
        for (lo, _), row in zip(a.spans, rows)
    ]
    lines.append("")
    return "\n".join(lines)


def render_labels(a: SkewDiagram) -> str:
    """Like render_plain but each box shows its northwest ribbon index.

    Indices above 9 are rendered as letters and explained in a legend
    below the grid.  Past 61 layers, more than there are symbols, every
    index is shown as a decimal number instead: the boxes and the inner
    boxes (':') are right-aligned to one width and separated by spaces,
    with no legend.
    """
    lines = [":" * lo + row for (lo, _), row in zip(a.spans, _symbol_rows(a))]
    # each row's last symbol is its largest label; an inner box ends none
    ends = {line[-1] for line in lines}
    if _PAST not in ends:
        depth = max(map(_SYMBOLS.find, ends), default=-1) + 1
        lines.extend(f"{_SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1))
        lines.append("")
        return "\n".join(lines)
    del lines  # not held while the decimal grid is drawn
    depth = max(row[-1] for row in ribbons._label_rows(a) if row)
    return _label_grid(a, ribbons._label_rows(a), depth)


def render(a: SkewDiagram, mode: str = "plain") -> str:
    if mode == "plain":
        return render_plain(a)
    if mode == "labels":
        return render_labels(a)
    raise ValueError(f"unknown render mode {mode!r}")

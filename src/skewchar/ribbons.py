"""Northwest ribbon decomposition of skew diagrams.

The ribbon index of a box is the length of the maximal diagonal run of
boxes reaching it from the northwest.  On a connected diagram this
reproduces the layers of the border traversal that starts in the lowest
leftmost box; on a disconnected one it is the union of the components'
layers.  Layer sizes are weakly decreasing; a violation is an internal
error, not an input error.

Lemma: labels weakly increase along every row and down every column.
Let (i, j) have label v, so (i - t, j - t) lies in the diagram for t < v.
In a skew shape, boxes (r, c) and (r + 1, c + 1) force (r, c + 1) and
(r + 1, c).  So if (i, j + 1) is a box, induction on t puts every
(i - t, j + 1 - t), t < v, in the diagram, and (i, j + 1) has label at
least v; the same argument serves (i + 1, j).

Hence a layer meets each row and each column in one run, and it holds no
2 x 2 block, since (r, c) and (r + 1, c + 1) carry different labels.  So
consecutive rows of one of its ribbons (edge-connected pieces) share
exactly one column, a ribbon over r rows and c columns has r + c - 1
boxes, and two ribbons share no row or column.  Summed over a layer of
`size` boxes that meets `rows` rows and `cols` columns:

    k = rows + cols - size,  arm = size - rows,  leg = size - cols.

`nw_labeling` counts, per layer, the boxes, the rows met (boxes whose left
neighbour carries another label) and the columns met (the same for the
upper neighbour) in one pass over the rows, whose label lists it keeps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .partitions import Partition
from .skew import SkewDiagram, normalize


@dataclass(frozen=True)
class RibbonProfile:
    """Shape data of one northwest ribbon layer."""

    index: int
    size: int
    k: int
    arm: int
    leg: int


@dataclass(eq=False)
class RibbonLabeling:
    """Northwest ribbon indices, row by row, with derived layer data."""

    diagram: SkewDiagram
    rows: list[list[int]]  # rows[i - 1]: row i's labels from column inner_i + 1 on, [] if empty
    pi_nw: Partition
    profiles: tuple[RibbonProfile, ...]


def nw_labeling(a: SkewDiagram) -> RibbonLabeling:
    """Label every box with its northwest ribbon index."""
    rows: list[list[int]] = []
    counts: list[list[int]] = []  # per layer: boxes, rows met, columns met
    above: list[int] = []  # labels of the row above, from column plo + 1 on
    plo = a.num_cols  # row 0 is empty at full width
    for i in range(1, a.num_rows + 1):
        lo, hi = a.row_span(i)
        # lo <= plo and hi <= plo + len(above): exactly the boxes right of
        # column plo + 1 have a northwest neighbour
        row = [1] * (min(hi, plo + 1) - lo) + [v + 1 for v in above[: max(0, hi - plo - 1)]]
        for j, v in enumerate(row, lo + 1):
            if v > len(counts):
                counts.append([0, 0, 0])
            layer = counts[v - 1]
            layer[0] += 1
            layer[1] += j == lo + 1 or v != row[j - lo - 2]
            layer[2] += j <= plo or v != above[j - plo - 1]
        rows.append(row)
        above, plo = row, lo
    sizes = [n for n, _, _ in counts]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError(f"northwest ribbon sizes are not weakly decreasing: {sizes}")
    # from a list: a generator's tuple is resized and leaves blocks on the free lists
    profiles = tuple([
        RibbonProfile(index=level, size=n, k=r + c - n, arm=n - r, leg=n - c)
        for level, (n, r, c) in enumerate(counts, 1)
    ])
    for p in profiles:
        if p.k < 1 or p.arm < 0 or p.leg < 0:
            raise AssertionError(f"inconsistent ribbon layer {p}")
    return RibbonLabeling(a, rows, Partition(sizes), profiles)


def pi_nw(a: SkewDiagram) -> Partition:
    """Northwest ribbon length partition: the i-th part is the size of layer i."""
    return nw_labeling(a).pi_nw


def ribbon_profile(a: SkewDiagram, i: int) -> RibbonProfile:
    """Profile of the i-th layer (1-based)."""
    profiles = nw_labeling(a).profiles
    if not 1 <= i <= len(profiles):
        raise ValueError(f"ribbon index {i} out of range 1..{len(profiles)}")
    return profiles[i - 1]


def strip_nw_ribbons(a: SkewDiagram, t: int) -> SkewDiagram:
    """Remove the first t northwest ribbons and normalize what remains."""
    labeling = nw_labeling(a)
    if not 0 <= t <= len(labeling.profiles):
        raise ValueError(f"cannot strip {t} ribbons from {len(labeling.profiles)} layers")
    # labels weakly increase along a row (the Lemma): the stripped boxes are a prefix
    inner = Partition(a.inner[i] + bisect_right(row, t) for i, row in enumerate(labeling.rows))
    return normalize(SkewDiagram(a.outer, inner))

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

No box needs a label to find these counts.  With rows (inner_i, outer_i],
box (i, j) has label at least v exactly when (i - t, j - t) lies in the
diagram for every t < v.  The bound inner_{i-t} + t strictly increases
with t and j <= outer_i keeps every outer bound, so the boxes labeled v or
more form the skew shape A_v with rows

    (inner_{i-v+1} + v - 1, outer_i],  i >= v.

Layer v is A_v minus A_{v+1}, so its size is |A_v| - |A_{v+1}|.  It meets
exactly the nonempty rows of A_v: the leftmost box of such a row is
labeled v, since inner_{i-v} >= inner_{i-v+1} (or i = v).  It meets
exactly the nonempty columns of A_v, by the same argument on the topmost
box.  Both ends of the rows of A_v weakly decrease downward, so the next
nonempty row below a row (a, b] covers its columns up to its own end b',
and the row adds b - max(a, b') new columns.  A row of A_v is nonempty
only if outer_i >= v, so `nw_layers` visits no more rows in all than the
outer partition has boxes, and stops at the first empty A_v.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .partitions import Partition
from .skew import SkewDiagram, _from_spans


# shape data of one northwest ribbon layer
RibbonProfile = namedtuple("RibbonProfile", "index size k arm leg")
# northwest ribbon indices, row by row, with derived layer data; rows[i - 1]:
# row i's labels from column spans[i - 1][0] + 1 on
RibbonLabeling = namedtuple("RibbonLabeling", "diagram rows pi_nw profiles")


def nw_layers(a: SkewDiagram) -> tuple[Partition, tuple[RibbonProfile, ...]]:
    """pi_nw and the layer profiles, from the rows of each A_v; no box is labeled."""
    outer = a.outer.parts
    inner = a.inner.parts + (0,) * (len(outer) - a.inner.length)
    counts: list[tuple[int, int, int]] = []  # per A_v: boxes, nonempty rows, nonempty columns
    m = len(outer)  # rows 1..m have outer_i >= v
    for v in range(1, m + 1):
        while m and outer[m - 1] < v:
            m -= 1
        boxes = rows = cols = below = 0
        shift = v - 1
        # bottom up, rows v..m of A_v: inner_{i-v+1} + v - 1 against outer_i
        for lo, hi in zip(reversed(inner[: m - shift]), reversed(outer[shift:m])):
            lo += shift
            if lo < hi:
                boxes += hi - lo
                rows += 1
                cols += hi - (lo if lo > below else below)
                below = hi
        if not boxes:
            break
        counts.append((boxes, rows, cols))
    sizes = [n - nxt for (n, _, _), (nxt, _, _) in zip(counts, counts[1:] + [(0, 0, 0)])]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError(f"northwest ribbon sizes are not weakly decreasing: {sizes}")
    # from a list: a generator's tuple is resized and leaves blocks on the free lists
    profiles = tuple([
        RibbonProfile(index=level, size=n, k=r + c - n, arm=n - r, leg=n - c)
        for level, (n, (_, r, c)) in enumerate(zip(sizes, counts), 1)
    ])
    for p in profiles:
        if p.k < 1 or p.arm < 0 or p.leg < 0:
            raise AssertionError(f"inconsistent ribbon layer {p}")
    return Partition(sizes), profiles


def _label_rows(a: SkewDiagram) -> Iterator[list[int]]:
    """The northwest ribbon index of every box, row by row, as `RibbonLabeling.rows`."""
    above: list[int] = []  # labels of the row above, from column plo + 1 on
    plo = a.num_cols  # row 0 is empty at full width
    for lo, hi in a.spans:
        # lo <= plo and hi <= plo + len(above): exactly the boxes right of
        # column plo + 1 have a northwest neighbour
        above = [1] * (min(hi, plo + 1) - lo) + [v + 1 for v in above[: max(0, hi - plo - 1)]]
        plo = lo
        yield above


def nw_labeling(a: SkewDiagram) -> RibbonLabeling:
    """Label every box with its northwest ribbon index."""
    return RibbonLabeling(a, list(_label_rows(a)), *nw_layers(a))


def pi_nw(a: SkewDiagram) -> Partition:
    """Northwest ribbon length partition: the i-th part is the size of layer i."""
    return nw_layers(a)[0]


def ribbon_profile(a: SkewDiagram, i: int) -> RibbonProfile:
    """Profile of the i-th layer (1-based)."""
    profiles = nw_layers(a)[1]
    if not 1 <= i <= len(profiles):
        raise ValueError(f"ribbon index {i} out of range 1..{len(profiles)}")
    return profiles[i - 1]


def strip_nw_ribbons(a: SkewDiagram, t: int) -> SkewDiagram:
    """Remove the first t northwest ribbons and normalize what remains: A_{t+1}."""
    # t layers exist iff A_t has a box: row i >= t of A_t is (inner_{i-t+1} + t - 1, outer_i]
    spans = a.spans
    if t < 0 or (t and not any(lo + t - 1 < hi for (lo, _), (_, hi) in zip(spans, spans[t - 1 :]))):
        raise ValueError(f"cannot strip {t} ribbons from {len(nw_layers(a)[1])} layers")
    # row i > t of A_{t+1} is (min(outer_i, inner_{i-t} + t), outer_i]; rows up to t are empty
    return _from_spans([(min(hi, lo + t), hi) for (lo, _), (_, hi) in zip(spans, spans[t:])])

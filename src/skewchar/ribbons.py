"""Northwest ribbon decomposition of skew diagrams.

The ribbon index of a box is the length of the maximal diagonal run of
boxes reaching it from the northwest.  On a connected diagram this
reproduces the layers of the border traversal that starts in the lowest
leftmost box; on a disconnected one it is the union of the components'
layers.  Layer sizes are weakly decreasing; a violation is an internal
error, not an input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition
from .skew import Box, SkewDiagram, box_components, skew_from_boxes


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
    """Per-box northwest ribbon indices with derived layer data."""

    diagram: SkewDiagram
    labels: dict[Box, int]
    pi_nw: Partition
    profiles: tuple[RibbonProfile, ...]


def nw_labeling(a: SkewDiagram) -> RibbonLabeling:
    """Label every box with its northwest ribbon index."""
    labels: dict[Box, int] = {}
    layers: list[list[Box]] = []
    for box in a.boxes():
        # the northwest neighbour comes earlier in row order, so v <= len(layers) + 1
        v = labels.get(Box(box.row - 1, box.col - 1), 0) + 1
        labels[box] = v
        if v > len(layers):
            layers.append([])
        layers[v - 1].append(box)
    sizes = [len(layer) for layer in layers]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError(f"northwest ribbon sizes are not weakly decreasing: {sizes}")
    profiles = []
    for level, layer in enumerate(layers, 1):
        k = len(box_components(layer))
        ncols = len({c for _, c in layer})
        nrows = len({r for r, _ in layer})
        profile = RibbonProfile(
            index=level, size=len(layer), k=k, arm=ncols - k, leg=nrows - k
        )
        if profile.size != profile.arm + profile.leg + profile.k:
            raise AssertionError(f"inconsistent ribbon layer {profile}")
        profiles.append(profile)
    return RibbonLabeling(a, labels, Partition(sizes), tuple(profiles))


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
    return skew_from_boxes(b for b, v in labeling.labels.items() if v > t)

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewchar import (
    Partition,
    SkewDiagram,
    add_partitions,
    components,
    first_hook_strip,
    nw_labeling,
    pi_nw,
    principal_hook_lengths,
    render_labels,
    ribbon_profile,
    strip_nw_ribbons,
)

from helpers import (
    P,
    SD,
    flood_fill_profiles,
    label_grid_by_labels,
    label_map,
    random_partition,
    random_skew,
    strip_by_labels,
)

RIBBON_PAIR = (SD((10, 10, 8, 8, 8, 8, 5, 5), (5, 5, 5, 5)), SD((10, 10, 10, 10, 8, 8, 3, 3), (5, 5, 5, 5)))


class TestLabeling:
    def test_partition_labels_are_principal_hooks(self):
        rng = random.Random(31)
        for _ in range(40):
            lam = random_partition(rng, 7, 7)
            a = SkewDiagram(lam)
            assert pi_nw(a) == principal_hook_lengths(lam)

    def test_example_pair(self):
        for a in RIBBON_PAIR:
            labeling = nw_labeling(a)
            assert labeling.pi_nw == P(17, 15, 8, 2)
            assert labeling.profiles[2].k == 2

    def test_k_profile(self):
        a = SD((8, 8, 7, 4, 3, 3), (4, 3, 2))
        assert [p.k for p in nw_labeling(a).profiles] == [1, 3, 2]

    def test_recurrence_and_first_layer(self):
        rng = random.Random(32)
        for _ in range(60):
            a = random_skew(rng)
            labels = label_map(nw_labeling(a))
            for (r, c), v in labels.items():
                northwest = labels.get((r - 1, c - 1))
                assert (v == 1) == (northwest is None)
                if v > 1:
                    assert northwest == v - 1


class TestPiNw:
    def test_goldens(self):
        assert pi_nw(SD((10, 10, 10, 10, 8, 8, 3, 3), (5, 5, 5, 5))) == P(17, 15, 8, 2)
        assert pi_nw(SD((), ())) == Partition()
        assert pi_nw(SD((2, 2), (1,))) == P(3)

    def test_component_additivity(self):
        rng = random.Random(33)
        for _ in range(40):
            a = random_skew(rng)
            total = Partition()
            for comp in components(a):
                total = add_partitions(total, pi_nw(comp))
            assert total == pi_nw(a)


class TestProfiles:
    def test_layer_three_splits(self):
        assert ribbon_profile(RIBBON_PAIR[0], 3).k == 2

    def test_l_tromino(self):
        prof = ribbon_profile(SD((2, 2), (1,)), 1)
        assert (prof.arm, prof.leg, prof.k) == (1, 1, 1)

    def test_hooks(self):
        for r, s in ((4, 2), (1, 0), (3, 3)):
            hook = SD((r,) + (1,) * s)
            prof = ribbon_profile(hook, 1)
            assert (prof.arm, prof.leg, prof.k) == (r - 1, s, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ribbon_profile(SD((2, 2), (1,)), 2)

    def test_arm_leg_k_arithmetic(self):
        rng = random.Random(34)
        for _ in range(60):
            a = random_skew(rng)
            for prof in nw_labeling(a).profiles:
                assert prof.size == prof.arm + prof.leg + prof.k
                assert prof.k >= 1


class TestStrip:
    def test_worked_example(self):
        a = SD((8, 8, 7, 4, 3, 3), (4, 3, 2))
        assert strip_nw_ribbons(a, 1) == SD((7, 6, 3, 2, 2), (4, 3, 2))

    def test_partition_strip_matches_hook_strip(self):
        rng = random.Random(35)
        for _ in range(40):
            lam = random_partition(rng, 6, 6)
            if not lam:
                continue
            assert strip_nw_ribbons(SkewDiagram(lam), 1) == SkewDiagram(first_hook_strip(lam))

    def test_full_strip_empties(self):
        rng = random.Random(36)
        for _ in range(20):
            a = random_skew(rng)
            assert strip_nw_ribbons(a, pi_nw(a).length).size == 0

    def test_tail_property(self):
        rng = random.Random(37)
        for _ in range(40):
            a = random_skew(rng)
            full = pi_nw(a)
            level0 = nw_labeling(a).profiles
            for t in range(full.length + 1):
                assert pi_nw(strip_nw_ribbons(a, t)) == Partition(full.parts[t:])
                stripped = nw_labeling(strip_nw_ribbons(a, t)).profiles
                shape = [(p.size, p.k, p.arm, p.leg) for p in stripped]
                assert shape == [(p.size, p.k, p.arm, p.leg) for p in level0[t:]]
                assert [p.index for p in stripped] == [p.index - t for p in level0[t:]]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            strip_nw_ribbons(SD((2, 2), (1,)), 2)


def _random_rows(rng: random.Random, rows: int, cols: int) -> SkewDiagram:
    """Random diagram in a rows x cols frame; some rows empty, often disconnected."""
    outer = sorted((rng.randint(1, cols) for _ in range(rows)), reverse=True)
    inner: list[int] = []
    for x in outer:
        cap = min([x] + inner[-1:])
        inner.append(cap if rng.random() < 0.15 else rng.randint(0, cap))
    return SD(outer, [y for y in inner if y])


@st.composite
def skew_diagrams(draw):
    outer = sorted(draw(st.lists(st.integers(1, 12), max_size=9)), reverse=True)
    inner: list[int] = []
    for x in outer:
        inner.append(draw(st.integers(0, min([x] + inner[-1:]))))
    return SD(outer, [y for y in inner if y])


class TestCountingPass:
    """`nw_labeling` counts rows and columns met; the reference flood-fills each layer.

    Stripping and the label grid, which read the labeling's rows, are
    pinned to their former code on the reference's box -> label map.
    """

    def _assert_matches_reference(self, a):
        labeling = nw_labeling(a)
        labels, sizes, profiles = flood_fill_profiles(a)
        assert label_map(labeling) == labels
        assert list(labeling.pi_nw.parts) == sizes
        assert labeling.profiles == profiles
        for t in range(len(sizes) + 1):
            assert strip_nw_ribbons(a, t) == strip_by_labels(labels, t)
        assert render_labels(a) == label_grid_by_labels(a, labels)

    def test_matches_flood_fill_on_random_diagrams(self):
        rng = random.Random(38)
        shapes = {"empty middle row": 0, "disconnected": 0}
        randoms = [_random_rows(rng, rng.randint(1, 9), rng.randint(1, 12)) for _ in range(2000)]
        for a in [SD((), ()), SD((3, 3), (3, 3)), SD((4, 1, 1), (4,))] + randoms:
            self._assert_matches_reference(a)
            spans = [a.row_span(i) for i in range(1, a.num_rows + 1)]
            shapes["empty middle row"] += any(lo == hi for lo, hi in spans[1:-1])
            shapes["disconnected"] += len(components(a)) > 1
        assert min(shapes.values()) >= 100, shapes

    def test_matches_flood_fill_on_large_bands(self):
        rng = random.Random(39)
        for rows, cols in ((40, 60), (50, 50), (60, 45)):
            outer = sorted((rng.randint(cols // 2, cols) for _ in range(rows)), reverse=True)
            inner = sorted((rng.randint(0, cols // 3) for _ in range(rows)), reverse=True)
            a = SD(outer, inner)
            assert a.size >= 1000
            self._assert_matches_reference(a)

    @given(skew_diagrams())
    def test_labels_weakly_increase_along_rows_and_columns(self, a):
        labels = label_map(nw_labeling(a))
        for (r, c), v in labels.items():
            assert labels.get((r, c + 1), v) >= v
            assert labels.get((r + 1, c), v) >= v

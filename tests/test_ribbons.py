import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewchar import (
    Partition,
    SkewDiagram,
    components,
    first_hook_strip,
    max_durfee_product,
    max_durfee_special_skew,
    max_hl_characters,
    min_durfee,
    necessary_conditions,
    nw_labeling,
    nw_layers,
    pi_nw,
    principal_hook_lengths,
    render_labels,
    ribbon_profile,
    strip_nw_ribbons,
)
from skewchar import ribbons
from skewchar.ribbons import RibbonProfile

from helpers import (
    P,
    SD,
    add_partitions,
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

    def test_pinned_empty_rows_match_the_labels(self):
        # row 2 of each diagram is empty, between two occupied rows
        for a in (SD((3, 2, 1), (2, 2)), SD((6, 5, 3, 3, 2), (5, 5, 1)), SD((4, 2, 2, 1), (2, 2))):
            assert a.spans[1][0] == a.spans[1][1]
            labels = label_map(nw_labeling(a))
            for t in range(pi_nw(a).length + 1):
                assert strip_nw_ribbons(a, t) == strip_by_labels(labels, t)

    def test_builds_only_its_result(self, monkeypatch):
        a = SD((8, 8, 7, 4, 3, 3), (4, 3, 2))
        made = []
        check = SkewDiagram.__init__

        def counted(diagram, *args, **kwargs):
            made.append(diagram)
            check(diagram, *args, **kwargs)

        monkeypatch.setattr(SkewDiagram, "__init__", counted)
        stripped = strip_nw_ribbons(a, 2)
        assert len(made) == 1 and made[0] is stripped

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            strip_nw_ribbons(SD((2, 2), (1,)), 2)

    def test_valid_strip_computes_no_layers(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return original(a)

        original = ribbons.nw_layers
        monkeypatch.setattr(ribbons, "nw_layers", counting)
        a = SD((8, 8, 7, 4, 3, 3), (4, 3, 2))
        for t in range(4):
            strip_nw_ribbons(a, t)
        assert calls == []
        # only the refusal names the depth
        with pytest.raises(ValueError, match=r"^cannot strip 4 ribbons from 3 layers$"):
            strip_nw_ribbons(a, 4)
        assert calls == [a]

    def test_validity_is_the_layer_count(self):
        rng = random.Random(38)
        for _ in range(300):
            a = _random_rows(rng, rng.randint(1, 7), rng.randint(1, 7))
            depth = len(nw_layers(a)[1])
            for t in range(-1, depth + 3):
                try:
                    strip_nw_ribbons(a, t)
                except ValueError as exc:
                    assert str(exc) == f"cannot strip {t} ribbons from {depth} layers"
                    assert not 0 <= t <= depth, (a, t)
                else:
                    assert 0 <= t <= depth, (a, t)


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
    """`nw_layers` reads every layer off the diagonal lengths; the reference labels every box.

    The reference flood-fills each layer of its box -> label map.  The
    labels of `nw_labeling`, stripping (A_{t+1} from the spans) and the
    label grid are pinned to the reference's map as well.
    """

    def _assert_matches_reference(self, a):
        labeling = nw_labeling(a)
        labels, sizes, profiles = flood_fill_profiles(a)
        assert nw_layers(a) == (Partition(sizes), profiles)
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
            spans = a.spans
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

    def test_matches_flood_fill_on_a_tall_shape(self):
        # 30 layers over 630 rows; 600 rows lie in no layer past the first
        a = SD((30,) * 30 + (1,) * 600)
        assert pi_nw(a).length == 30
        self._assert_matches_reference(a)

    @given(skew_diagrams())
    def test_labels_weakly_increase_along_rows_and_columns(self, a):
        labels = label_map(nw_labeling(a))
        for (r, c), v in labels.items():
            assert labels.get((r, c + 1), v) >= v
            assert labels.get((r + 1, c), v) >= v


class TestDiagonalLengths:
    """Layer v holds one box of each diagonal of length v or more: closed forms at 10^4 rows or columns."""

    def test_square_layers_in_closed_form(self):
        # layer v of n^n is the hook of the box (v, v): 2(n - v) + 1 boxes
        n = 10_000
        pi, profiles = nw_layers(SD((n,) * n))
        assert pi.parts == tuple(2 * (n - v) + 1 for v in range(1, n + 1))
        assert profiles == tuple(RibbonProfile(v, 2 * (n - v) + 1, 1, n - v, n - v) for v in range(1, n + 1))

    def test_a_row_and_a_column_are_one_layer(self):
        n = 10_000
        assert nw_layers(SD((n,))) == (P(n), (RibbonProfile(1, n, 1, n - 1, 0),))
        assert nw_layers(SD((1,) * n)) == (P(n), (RibbonProfile(1, n, 1, 0, n - 1),))


def test_layer_data_label_no_box(monkeypatch):
    """Every reader of layer data works from the spans, not from `nw_labeling`."""
    a, b = RIBBON_PAIR
    framed = SD((3, 3, 2), (1, 1))
    calls = [
        lambda: pi_nw(a),
        lambda: ribbon_profile(a, 3),
        lambda: necessary_conditions(a, b),
        lambda: max_hl_characters(a),
        lambda: min_durfee(a),
        lambda: max_durfee_product(P(5, 5, 3, 3, 2), P(4, 3, 1, 1)),
        lambda: max_durfee_product(P(5, 5, 3, 3, 2), P(4, 3, 1, 1), exhaustive=True),
        lambda: max_durfee_special_skew(framed),
        lambda: max_durfee_special_skew(framed, exhaustive=True),
        lambda: strip_nw_ribbons(a, 2),
    ]
    expected = [call() for call in calls]

    def refused(a):
        raise AssertionError("a box was labeled")

    monkeypatch.setattr(ribbons, "nw_labeling", refused)
    assert [call() for call in calls] == expected

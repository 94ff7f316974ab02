import random

import pytest

from skewchar import (
    Partition,
    SkewDiagram,
    add_partitions,
    components,
    first_hook_strip,
    nw_labeling,
    pi_nw,
    principal_hook_lengths,
    ribbon_profile,
    strip_nw_ribbons,
)

from helpers import P, SD, random_partition, random_skew

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
            labels = nw_labeling(a).labels
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

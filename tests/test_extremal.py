import random

import pytest

from skewchar import (
    MAX_WITNESSES,
    Partition,
    RibbonProfile,
    SkewDiagram,
    TooManyWitnesses,
    associated_diagram,
    decompose_skew,
    durfee,
    embed_disjoint,
    gamma_partition,
    hl_of_skew,
    max_hl_characters,
    min_durfee,
    nw_labeling,
    nw_layers,
    pi_max,
    pi_min,
    principal_hook_lengths,
)
from skewchar import extremal

from helpers import P, SD, add_partitions, random_partition, random_skew


class TestHlOfSkew:
    def test_partition_case(self):
        rng = random.Random(41)
        for _ in range(30):
            lam = random_partition(rng, 6, 6)
            assert hl_of_skew(SkewDiagram(lam)) == principal_hook_lengths(lam)

    def test_example_two_one(self):
        assert hl_of_skew(SD((10, 10, 8, 8, 8, 8, 5, 5), (5, 5, 5, 5))) == P(17, 15, 8, 2)

    def test_disjoint_sum_rule(self):
        rng = random.Random(42)
        for _ in range(30):
            a = random_partition(rng, 5, 4)
            b = random_partition(rng, 5, 4)
            expected = add_partitions(principal_hook_lengths(a), principal_hook_lengths(b))
            assert hl_of_skew(embed_disjoint(a, b)) == expected


class TestGamma:
    def test_worked_example(self):
        assert gamma_partition(SD((8, 8, 7, 4, 3, 3), (4, 3, 2))) == P(8, 6, 3, 2, 1, 1)

    def test_partition_is_its_own_gamma(self):
        rng = random.Random(43)
        for _ in range(30):
            lam = random_partition(rng, 6, 6)
            assert gamma_partition(SkewDiagram(lam)) == lam

    def test_associated_diagram_gamma(self):
        _, a = associated_diagram(P(5, 5, 3, 3, 2), P(4, 3, 1, 1))
        assert gamma_partition(a) == P(9, 9, 9, 6, 5, 4, 3, 3, 3)


class TestMaxHlCharacters:
    def test_worked_example_exact(self):
        report = max_hl_characters(SD((8, 8, 7, 4, 3, 3), (4, 3, 2)))
        got = [(w.nu, w.mult) for w in report.witnesses]
        assert got == [
            (P(8, 8, 4, 2, 1, 1), 1),
            (P(8, 8, 3, 3, 1, 1), 1),
            (P(8, 7, 4, 2, 2, 1), 2),
            (P(8, 7, 3, 3, 2, 1), 2),
            (P(8, 6, 4, 2, 2, 2), 1),
            (P(8, 6, 3, 3, 2, 2), 1),
        ]
        assert report.distinct_count == 6
        assert report.min_durfee == 3

    def test_partition_single_witness(self):
        rng = random.Random(44)
        for _ in range(20):
            lam = random_partition(rng, 6, 6)
            report = max_hl_characters(SkewDiagram(lam))
            assert [(w.nu, w.mult) for w in report.witnesses] == [(lam, 1)]

    def test_product_of_partitions(self):
        a, b = P(5, 5, 4, 4, 3, 1), P(5, 3, 3, 2, 1, 1)
        report = max_hl_characters(embed_disjoint(a, b))
        assert report.hl == P(20, 11, 5, 1)
        assert len(report.witnesses) == 8
        assert all(w.mult == 1 for w in report.witnesses)
        ks = [p.k for p in nw_labeling(embed_disjoint(a, b)).profiles]
        assert ks == [2, 2, 2, 1]  # doubled up to min(d(a), d(b)) = 3

    def test_product_k_profile_specialization(self):
        rng = random.Random(50)
        for _ in range(30):
            a = random_partition(rng, 5, 4)
            b = random_partition(rng, 5, 4)
            shared = min(durfee(a), durfee(b))
            pair = embed_disjoint(a, b)
            ks = [p.k for p in nw_labeling(pair).profiles]
            assert ks == [2] * shared + [1] * (len(ks) - shared)
            report = max_hl_characters(pair)
            assert report.distinct_count == 2**shared
            assert all(w.mult == 1 for w in report.witnesses)

    def test_witness_structure(self):
        rng = random.Random(45)
        for _ in range(40):
            a = random_skew(rng)
            report = max_hl_characters(a)
            assert len({w.nu for w in report.witnesses}) == report.distinct_count
            total = 1
            for p in nw_labeling(a).profiles:
                total *= 2 ** (p.k - 1)
            assert sum(w.mult for w in report.witnesses) == total
            for w in report.witnesses:
                assert principal_hook_lengths(w.nu) == report.hl
                assert durfee(w.nu) == report.hl.length
            # gamma is the componentwise intersection of all witnesses
            width = max((w.nu.length for w in report.witnesses), default=0)
            meet = Partition(min(w.nu[i] for w in report.witnesses) for i in range(width))
            assert meet == report.gamma


    def test_witness_limit(self, monkeypatch):
        # n x n squares side by side: n layers of 2 ribbons, 2^n witnesses
        squares = lambda n: SD((2 * n,) * n + (n,) * n, (n,) * n)
        report = max_hl_characters(squares(16))
        assert len(report.witnesses) == report.distinct_count == 2**16 <= MAX_WITNESSES
        frobenius_calls = []
        original = extremal.from_frobenius

        def counting(arms, legs):
            frobenius_calls.append(arms)
            return original(arms, legs)

        monkeypatch.setattr(extremal, "from_frobenius", counting)
        with pytest.raises(TooManyWitnesses, match=f"^{2**17} witnesses, more than {MAX_WITNESSES}$"):
            max_hl_characters(squares(17))
        assert len(frobenius_calls) == 1  # gamma, and no witness

    def test_count_past_the_str_limit_is_clipped(self, monkeypatch):
        # 1 000 layers of 10^5 ribbons: a 5 001-digit count, which str() refuses
        a = SD((3, 3), (1,))
        hl, _ = nw_layers(a)
        profiles = tuple(RibbonProfile(i, 1, 10**5, 999 - i, 999 - i) for i in range(1000))
        monkeypatch.setattr(extremal, "nw_layers", lambda diagram: (hl, profiles))
        with pytest.raises(TooManyWitnesses, match=f"^1{'0' * 59}\\.\\.\\. witnesses, more than {MAX_WITNESSES}$"):
            max_hl_characters(a)


class TestOracleAgreement:
    def test_small_instances(self):
        rng = random.Random(46)
        for _ in range(80):
            a = random_skew(rng, 6, 6, 12)
            cs = decompose_skew(a)
            best = max(principal_hook_lengths(nu) for nu in cs.support())
            subset = {nu: m for nu, m in cs.items() if principal_hook_lengths(nu) == best}
            report = max_hl_characters(a)
            assert report.hl == best
            assert {w.nu: w.mult for w in report.witnesses} == subset
            assert min_durfee(a) == min(durfee(nu) for nu in cs.support())
            support = cs.support()
            assert pi_max(a) == support[0] and cs[support[0]] == 1
            assert pi_min(a) == support[-1] and cs[support[-1]] == 1


class TestMinDurfee:
    def test_goldens(self):
        assert min_durfee(SD((10, 10, 8, 8, 8, 8, 5, 5), (5, 5, 5, 5))) == 4
        rng = random.Random(47)
        for _ in range(20):
            lam = random_partition(rng, 6, 6)
            assert min_durfee(SkewDiagram(lam)) == durfee(lam)

    def test_disjoint_case(self):
        rng = random.Random(48)
        for _ in range(20):
            a = random_partition(rng, 5, 4)
            b = random_partition(rng, 5, 4)
            assert min_durfee(embed_disjoint(a, b)) == max(durfee(a), durfee(b))


class TestPiMinMax:
    def test_goldens(self):
        tromino = SD((2, 2), (1,))
        assert pi_min(tromino) == pi_max(tromino) == P(2, 1)
        pair = embed_disjoint(P(1), P(1))
        assert pi_min(pair) == P(1, 1) and pi_max(pair) == P(2)

    def test_partition_case(self):
        rng = random.Random(49)
        for _ in range(20):
            lam = random_partition(rng, 6, 6)
            a = SkewDiagram(lam)
            assert pi_min(a) == pi_max(a) == lam

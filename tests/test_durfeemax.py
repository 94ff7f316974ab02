import random

import pytest

from skewchar import (
    CharacterSum,
    Partition,
    TooManyFillings,
    associated_diagram,
    complement,
    decompose_skew,
    durfee,
    embed_disjoint,
    max_durfee_product,
    max_durfee_special_skew,
    min_durfee,
    nw_layers,
    outer_product,
    verify_complementation,
)
from skewchar import durfeemax, lr

from helpers import P, SD, random_partition, random_subpartition


class TestComplement:
    def test_examples(self):
        assert complement(P(1), 2, 2) == P(2, 1)
        assert complement(P(9, 9, 9, 9, 5, 4, 3, 3, 3), 9, 9) == P(6, 6, 6, 5, 4)
        assert complement(Partition(), 3, 2) == P(3, 3)

    def test_involution_and_weight(self):
        rng = random.Random(51)
        for _ in range(50):
            k, l = rng.randint(1, 6), rng.randint(1, 6)
            nu = random_subpartition(rng, Partition([k] * l))
            inv = complement(nu, k, l)
            assert complement(inv, k, l) == nu
            assert nu.weight + inv.weight == k * l

    def test_does_not_fit(self):
        with pytest.raises(ValueError, match="box sides must be positive"):
            complement(P(1), 0, 3)
        with pytest.raises(ValueError):
            complement(P(3), 2, 4)
        with pytest.raises(ValueError):
            complement(P(1, 1, 1), 4, 2)


class TestAssociatedDiagram:
    def test_worked_example(self):
        m, a = associated_diagram(P(5, 5, 3, 3, 2), P(4, 3, 1, 1))
        assert m == 9
        assert a == SD((9, 9, 9, 9, 7, 6, 6, 4, 4), (4, 3, 1, 1))
        assert a.size == 81 - 18 - 9

    def test_two_boxes(self):
        m, a = associated_diagram(P(1), P(1))
        assert m == 2 and a == SD((2, 1), (1,))

    def test_degenerate(self):
        # size arithmetic |A| = m*m - |alpha| - |beta| forces the empty diagram
        m, a = associated_diagram(P(1), Partition())
        assert m == 1 and a.size == 0
        report = max_durfee_product(P(1), Partition())
        assert report.max_durfee == 1
        assert [(w.nu_inverse, w.mult) for w in report.witnesses] == [(P(1), 1)]
        with pytest.raises(ValueError):
            associated_diagram(Partition(), Partition())


class TestMaxDurfeeProduct:
    def test_worked_example(self):
        report = max_durfee_product(P(5, 5, 3, 3, 2), P(4, 3, 1, 1))
        assert report.m == 9 and report.max_durfee == 4 and not report.exhaustive
        assert [(w.nu_inverse, w.mult) for w in report.witnesses] == [
            (P(6, 6, 6, 5, 4), 1),
            (P(6, 6, 5, 5, 4, 1), 3),
            (P(6, 5, 5, 5, 4, 2), 3),
            (P(5, 5, 5, 5, 4, 3), 1),
        ]

    def test_tiny_cases(self):
        assert max_durfee_product(P(1), P(1)).max_durfee == 1
        assert max_durfee_product(P(2, 1), P(2, 1)).max_durfee == 2

    def test_oracle_agreement(self):
        rng = random.Random(52)
        for _ in range(40):
            a = random_partition(rng, 4, 3)
            b = random_partition(rng, 4, 3)
            if not a and not b:
                continue
            report = max_durfee_product(a, b)
            full = outer_product(a, b)
            assert report.max_durfee == max(durfee(nu) for nu in full.support())
            for w in report.witnesses:
                assert full[w.nu_inverse] == w.mult
            assert min_durfee(embed_disjoint(a, b)) <= report.max_durfee

    def test_labels_associated_diagram_once(self, monkeypatch):
        from skewchar import extremal

        calls = []

        def counting(a):
            calls.append(a)
            return nw_layers(a)

        monkeypatch.setattr(extremal, "nw_layers", counting)
        for exhaustive in (False, True):
            calls.clear()
            report = max_durfee_product(P(5, 5, 3, 3, 2), P(4, 3, 1, 1), exhaustive=exhaustive)
            assert calls == [report.associated]

    def test_exhaustive_lists_no_max_hl_witnesses(self, monkeypatch):
        # the prod(k) max-hl witnesses are the certified answer only
        product = max_durfee_product(P(3, 2), P(2, 2, 1)).max_durfee
        special = max_durfee_special_skew(SD((3, 3, 2), (1, 1))).max_durfee

        def refuse(a):
            raise AssertionError("max-hl witnesses listed")

        monkeypatch.setattr(durfeemax, "max_hl_characters", refuse)
        assert max_durfee_product(P(3, 2), P(2, 2, 1), exhaustive=True).max_durfee == product
        assert max_durfee_special_skew(SD((3, 3, 2), (1, 1)), exhaustive=True).max_durfee == special

    def test_exhaustive_lists_every_attainer(self):
        report = max_durfee_product(P(2, 1), P(2, 1), exhaustive=True)
        full = outer_product(P(2, 1), P(2, 1))
        expected = {nu: m for nu, m in full.items() if durfee(nu) == report.max_durfee}
        assert {w.nu_inverse: w.mult for w in report.witnesses} == expected
        assert report.exhaustive

    def test_exhaustive_keeps_the_filling_limit(self, monkeypatch):
        # the product's expansion is the oracle's, bounded as the oracle is
        a, b = P(5, 5, 3, 3, 2), P(4, 3, 1, 1)
        fillings = outer_product(a, b).total_multiplicity()
        monkeypatch.setattr(lr, "MAX_FILLINGS", fillings)
        assert max_durfee_product(a, b, exhaustive=True).exhaustive
        monkeypatch.setattr(lr, "MAX_FILLINGS", fillings - 1)
        with pytest.raises(TooManyFillings, match=f"^more than {fillings - 1} LR fillings$"):
            max_durfee_product(a, b, exhaustive=True)
        assert not max_durfee_product(a, b).exhaustive


class TestMaxDurfeeSpecialSkew:
    def test_spot_checks(self):
        assert max_durfee_special_skew(SD((2, 2), (1,))).max_durfee == 1
        assert max_durfee_special_skew(SD((3, 3, 2), (1, 1))).max_durfee == 2
        for l in range(1, 5):
            assert max_durfee_special_skew(SD((l,) * l)).max_durfee == l

    def test_oracle_agreement(self):
        for a in (SD((2, 2), (1,)), SD((3, 3, 2), (1, 1)), SD((4, 4, 4, 3), (2, 2)), SD((3, 3, 3), (2, 1))):
            report = max_durfee_special_skew(a)
            cs = decompose_skew(a)
            assert report.max_durfee == max(durfee(nu) for nu in cs.support())
            for w in report.witnesses:
                assert cs[w.nu_inverse] == w.mult
            assert len(report.witnesses) >= 1

    def test_witness_count_bound(self):
        a = SD((3, 3, 2), (1, 1))
        report = max_durfee_special_skew(a)
        lam_inv = complement(a.outer, 3, 3)
        assert len(report.witnesses) >= 2 ** min(durfee(a.inner), durfee(lam_inv))
        assert all(w.mult == 1 for w in report.witnesses)

    @pytest.mark.parametrize(
        "outer, inner, clause",
        [
            ((3, 3), (), "outer width"),
            ((4, 2, 2), (1,), "outer width"),
            ((3, 2, 2), (1, 1), "repeat its first part"),
            ((3, 3, 1), (2,), "inner width"),
        ],
    )
    def test_precondition_diagnostics(self, outer, inner, clause):
        with pytest.raises(ValueError, match=clause):
            max_durfee_special_skew(SD(outer, inner))


class TestComplementationIdentity:
    def test_examples(self):
        assert verify_complementation(P(1), P(2, 2), 2, 2)
        assert verify_complementation(Partition(), P(3, 3), 3, 2)
        assert verify_complementation(P(1, 1), P(3, 3, 2), 3, 3)

    @pytest.mark.parametrize(
        "change",
        [lambda terms: terms[:-1], lambda terms: [(nu, m + 1) for nu, m in terms]],
        ids=["dropped-term", "wrong-multiplicity"],
    )
    def test_a_wrong_product_side_fails(self, monkeypatch, change):
        assert verify_complementation(P(1), P(3, 2, 1), 3, 3)
        original = durfeemax.schubert_product

        def changed(*args):
            cs = original(*args)
            return CharacterSum(cs.weight, dict(change(cs.items())))

        monkeypatch.setattr(durfeemax, "schubert_product", changed)
        assert not verify_complementation(P(1), P(3, 2, 1), 3, 3)

    def test_a_term_outside_the_box_raises(self, monkeypatch):
        original = durfeemax.decompose_skew

        def widened(a):
            cs = original(a)
            return CharacterSum(cs.weight, {**dict(cs.items()), Partition([cs.weight]): 1})

        monkeypatch.setattr(durfeemax, "decompose_skew", widened)
        with pytest.raises(ValueError, match=r"^partition 5 does not fit inside \(3\^3\)$"):
            verify_complementation(P(1), P(3, 2, 1), 3, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_complementation(P(3), P(2, 2), 2, 2)
        with pytest.raises(ValueError):
            verify_complementation(P(1), P(3, 3), 2, 2)

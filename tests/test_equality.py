import random
from collections import defaultdict

import pytest

from skewchar import (
    Partition,
    SkewDiagram,
    check_equality,
    components,
    decompose_skew,
    embed_disjoint,
    equality,
    full_equality,
    lr,
    necessary_conditions,
    normalize,
    parse_skew,
    ribbons,
    rotate180,
    skew,
    translate,
)

from helpers import P, SD, per_level_conditions, random_skew

PAIR_A = parse_skew("10^2,8^4,5^2 / 5^4")
PAIR_B = parse_skew("10^4,8^2,3^2 / 5^4")


class TestStructural:
    def test_self_comparison_passes(self):
        rng = random.Random(61)
        for _ in range(20):
            a = random_skew(rng)
            report = necessary_conditions(a, a)
            assert report.passed
            assert all(r.pi_nw_equal and r.k_equal and r.armleg_equal for r in report.levels)

    def test_worked_pair_passes_every_level(self):
        report = necessary_conditions(PAIR_A, PAIR_B)
        assert report.passed
        assert len(report.levels) == 5  # levels 0..4
        assert all(r.pi_nw_equal and r.k_equal and r.armleg_equal for r in report.levels)

    def test_row_versus_column_pair_fails_arm_leg(self):
        report = necessary_conditions(SD((2,)), SD((1, 1)))
        assert not report.passed
        assert report.fail_level == 0
        assert report.fail_condition == "arm_leg"
        assert report.levels[0].pi_nw_equal  # both have pi_nw = (2)
        assert report.levels[0].k_equal

    def test_different_pi_nw_fails_first(self):
        report = necessary_conditions(SD((2, 2)), SD((4,)))
        assert not report.passed
        assert report.fail_condition == "pi_nw"
        assert report.fail_level == 0

    def test_matches_per_level_reference(self, monkeypatch):
        calls = []
        layers = equality.nw_layers

        def counted(d):
            calls.append(d)
            return layers(d)

        monkeypatch.setattr(equality, "nw_layers", counted)
        rng = random.Random(65)
        pairs = [(PAIR_A, PAIR_B)]
        while len(pairs) < 150:
            a, b = random_skew(rng), random_skew(rng)
            if a.size == b.size:
                pairs.append((a, b))
        # pi_nw (7, 4, 2) and (7, 5, 1): the first layers agree, deeper ones do not
        pairs.append((SD((5, 4, 4)), SD((5, 5, 3))))
        for _ in range(40):
            a = random_skew(rng)
            pairs.append((a, rotate180(a)))
            pairs.append((a, translate(a, rng.randint(0, 3), rng.randint(0, 3))))
        with monkeypatch.context() as m:
            # neither strips nor builds a canonical diagram
            m.setattr(ribbons, "strip_nw_ribbons", None)
            m.setattr(skew, "_from_spans", None)
            m.setattr(skew, "skew_from_boxes", None)
            reports = []
            for a, b in pairs:
                calls.clear()
                reports.append(necessary_conditions(a, b))
                assert calls == [a, b]
        assert any(not r.passed for r in reports) and any(r.passed for r in reports)
        for (a, b), report in zip(pairs, reports):
            assert report == per_level_conditions(a, b)

    def test_symmetry(self):
        rng = random.Random(62)
        for _ in range(20):
            a, b = random_skew(rng), random_skew(rng)
            one = necessary_conditions(a, b)
            two = necessary_conditions(b, a)
            assert one.passed == two.passed
            assert (one.fail_level, one.fail_condition) == (two.fail_level, two.fail_condition)


class TestFullEquality:
    def test_stripped_pair_differs(self):
        equal, disc = full_equality(parse_skew("4^4,3^2 / 3^4"), parse_skew("4^2,2^2,1^2 / 1^4"))
        assert not equal
        assert disc.partition == P(4, 3, 2, 1)
        assert (disc.mult_a, disc.mult_b) == (0, 1)

    def test_rotation_and_translation_are_equal(self):
        rng = random.Random(63)
        for _ in range(15):
            a = random_skew(rng)
            assert full_equality(a, rotate180(a)) == (True, None)
            assert full_equality(a, translate(a, 1, 2)) == (True, None)

    def test_copies_need_no_expansion(self, monkeypatch):
        def no_expansion(_):
            raise AssertionError("full expansion of a copy")

        monkeypatch.setattr(lr, "decompose_skew", no_expansion)
        staircase = parse_skew("13,12,11,10,9,8,7,6,5,4,3,2,1 / 6,5,4,3,2,1")
        rng = random.Random(65)
        cases = [staircase, SD((), ()), SD((3, 1), (3, 1))] + [random_skew(rng) for _ in range(15)]
        for a in cases:
            assert full_equality(a, a) == (True, None)
            assert full_equality(a, translate(a, 2, 1)) == (True, None)
            assert full_equality(translate(a, 1, 0), rotate180(a)) == (True, None)
        # any other pair is still expanded
        with pytest.raises(AssertionError):
            full_equality(PAIR_A, PAIR_B)
        with pytest.raises(AssertionError):
            full_equality(SD((3, 1)), SD((2, 1, 1)))

    def test_same_components_need_no_expansion(self, monkeypatch):
        def no_expansion(_):
            raise AssertionError("full expansion of equal components")

        monkeypatch.setattr(lr, "decompose_skew", no_expansion)
        for alpha, beta in ((P(2), P(1)), (P(3, 1), P(2, 2)), (P(4, 2, 1), P(3))):
            pair = (embed_disjoint(alpha, beta), embed_disjoint(beta, alpha))
            assert pair[0] != pair[1]
            assert full_equality(*pair) == (True, None)
        # components 2,1 / 4,2/1 / 1 from the top; below: 1 / 2,1 / 4,3/2,
        # reordered with the middle one turned
        a = parse_skew("7,6,5,3,1 / 5,5,2,1")
        b = parse_skew("7,6,5,4,3 / 6,4,4,2")
        assert normalize(a) != normalize(b) and normalize(a) != rotate180(b)
        assert full_equality(a, b) == (True, None)
        assert full_equality(rotate180(b), translate(a, 3, 2)) == (True, None)

    def test_component_check_is_sound(self):
        # every normalized diagram of at most 6 boxes in a 6 x 6 frame, built
        # from the bottom row up: the bottom row starts in column 1, each row
        # above starts and ends no further left, and an empty row sits at the
        # outer width of the row below it
        def spans_from(spans, left):
            a0, b0 = spans[-1]
            if a0 < b0:
                yield spans
            if len(spans) == 6:
                return
            if a0 < b0 and len(spans) < 5:
                yield from spans_from(spans + [(b0, b0)], left)
            for b in range(b0, 7):
                for a in range(max(a0, b - left), b):
                    yield from spans_from(spans + [(a, b)], left - (b - a))

        groups = defaultdict(list)
        for b in range(1, 7):
            for spans in spans_from([(0, b)], 6 - b):
                outer = Partition(hi for _, hi in reversed(spans))
                d = SkewDiagram(outer, Partition(lo for lo, _ in reversed(spans)))
                assert normalize(d) == d
                groups[repr(equality._component_key(d))].append(d)
        assert sum(len(g) > 1 for g in groups.values()) > 100
        for group in groups.values():
            first = decompose_skew(group[0])
            assert all(decompose_skew(d) == first for d in group[1:])

    def test_equal_characters_decided_by_expansion(self, monkeypatch):
        # connected, not half-turns of each other, yet of equal characters:
        # only the two expansions can tell
        a, b = parse_skew("4,3,2,1/2"), parse_skew("4,3,2,1/1^2")
        assert components(a) == [a] and components(b) == [b]
        assert normalize(rotate180(a)) != normalize(b)
        calls = []

        def counting(d):
            calls.append(d)
            return decompose_skew(d)

        monkeypatch.setattr(lr, "decompose_skew", counting)
        assert full_equality(a, b) == (True, None)
        assert calls == [a, b]

    def test_worked_pair_unequal_with_discrepancy(self):
        equal, disc = full_equality(PAIR_A, PAIR_B)
        assert not equal
        # lex-largest differing constituent, verified against direct enumeration
        assert disc.partition == P(10, 10, 8, 7, 4, 3)
        assert (disc.mult_a, disc.mult_b) == (0, 1)

    def test_symmetric_verdict(self):
        equal_ab, _ = full_equality(PAIR_A, PAIR_B)
        equal_ba, _ = full_equality(PAIR_B, PAIR_A)
        assert equal_ab == equal_ba is False


class TestSoundness:
    def test_full_equal_implies_structural_pass(self):
        rng = random.Random(64)
        seen_equal = 0
        for _ in range(60):
            a, b = random_skew(rng, 5, 5, 9), random_skew(rng, 5, 5, 9)
            equal, _ = full_equality(a, b)
            if equal:
                seen_equal += 1
                assert necessary_conditions(a, b).passed
        # rotations guarantee some equal pairs even if random collisions are rare
        for _ in range(10):
            a = random_skew(rng, 5, 5, 9)
            assert necessary_conditions(a, rotate180(a)).passed


class TestCheckEquality:
    def test_full_skipped_after_structural_failure(self):
        report = check_equality(SD((2,)), SD((1, 1)), full=True)
        assert not report.passed and report.full is None

    def test_json_mirror(self):
        report = check_equality(PAIR_A, PAIR_B, full=True)
        payload = report.to_json_dict()
        assert payload["structural_verdict"] == "pass"
        assert payload["full_check"]["equal"] is False
        assert payload["full_check"]["first_discrepancy"]["partition"] == [10, 10, 8, 7, 4, 3]
        assert len(payload["levels"]) == 5

    def test_json_failure_shape(self):
        payload = check_equality(SD((2,)), SD((1, 1)), full=True).to_json_dict()
        assert payload["structural_verdict"] == {"fail": {"level": 0, "condition": "arm_leg"}}
        assert payload["full_check"] is None

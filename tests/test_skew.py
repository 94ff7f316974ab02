import random

import pytest

from skewchar import (
    Partition,
    SkewDiagram,
    components,
    embed_disjoint,
    format_skew,
    full_equality,
    normalize,
    nw_labeling,
    parse_skew,
    rotate180,
    skew,
    skew_from_boxes,
    strip_nw_ribbons,
    translate,
)

from helpers import (
    P,
    SD,
    boxes,
    components_by_boxes,
    label_map,
    normalize_by_boxes,
    random_skew,
    rotate180_by_boxes,
    strip_by_labels,
)


def random_skew_with_empty_rows(rng: random.Random) -> SkewDiagram:
    """Random diagram, often with empty rows at the top or pinned between others."""
    outer = sorted((rng.randint(0, 8) for _ in range(rng.randint(0, 8))), reverse=True)
    inner, cap = [], 8
    for x in outer:
        cap = min(x, cap) if rng.random() < 0.2 else rng.randint(0, min(x, cap))
        inner.append(cap)
    return SkewDiagram(Partition(outer), Partition(inner))


class TestConstruction:
    def test_nesting_enforced(self):
        with pytest.raises(ValueError, match="inner not contained in outer"):
            SD((2, 2), (3,))

    def test_size_and_boxes(self):
        a = SD((3, 1), (1,))
        assert a.size == 3
        assert boxes(a) == [(1, 2), (1, 3), (2, 1)]

    def test_row_and_column_lengths(self):
        a = SD((3, 3, 1), (1, 1))
        assert a.row_lengths() == [2, 2, 1]
        assert a.column_heights() == [1, 2, 2]


class TestSpans:
    def test_examples(self):
        assert SD((), ()).spans == ()
        assert SD((3, 3), (3, 3)).spans == ((3, 3), (3, 3))
        # an inner partition shorter than the outer one reads 0 past its end
        assert SD((4, 2, 1), (1,)).spans == ((1, 4), (0, 2), (0, 1))
        # the second row is empty, pinned between two occupied rows
        assert parse_skew("3,2,1/2,2").spans == ((2, 3), (2, 2), (0, 1))

    def test_rows_of_random_diagrams(self):
        rng = random.Random(15)
        for _ in range(300):
            a = random_skew_with_empty_rows(rng)
            assert len(a.spans) == a.num_rows
            assert [hi for _, hi in a.spans] == list(a.outer.parts)
            assert [lo for lo, _ in a.spans if lo] == list(a.inner.parts)
            assert sum(hi - lo for lo, hi in a.spans) == a.size


class TestNormalize:
    def test_already_canonical(self):
        a = SD((3, 1), (1,))
        assert normalize(a) == a

    def test_drops_padding(self):
        assert normalize(SD((4, 2, 1), (2, 1, 1))) == SD((3, 1), (1,))

    def test_empty_middle_row_preserved(self):
        a = SD((4, 2, 2), (2, 2, 1))
        b = normalize(a)
        assert b.size == a.size == 3
        assert normalize(b) == b

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_skew(rng)
            n = normalize(a)
            assert normalize(n) == n
            assert n.size == a.size

    def test_translates_identified(self):
        rng = random.Random(8)
        for _ in range(50):
            a = normalize(random_skew(rng))
            moved = translate(a, down=rng.randint(0, 3), right=rng.randint(0, 3))
            assert normalize(moved) == a

    def test_translate_only_down_and_right(self):
        a = SD((3, 1), (1,))
        for down, right in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="translation must move down and right"):
                translate(a, down, right)


class TestRotate180:
    def test_l_tromino(self):
        assert rotate180(SD((2, 1))) == SD((2, 2), (1,))
        assert rotate180(SD((2, 2), (1,))) == SD((2, 1))

    def test_single_box(self):
        assert rotate180(SD((1,))) == SD((1,))

    def test_double_rotation_is_normalize(self):
        rng = random.Random(9)
        for _ in range(50):
            a = random_skew(rng)
            assert rotate180(rotate180(a)) == normalize(a)
            assert rotate180(a).size == a.size


class TestComponents:
    def test_two_pieces(self):
        assert components(SD((3, 1), (1,))) == [SD((2,)), SD((1,))]

    def test_connected(self):
        assert components(SD((2, 2), (1,))) == [SD((2, 2), (1,))]

    def test_three_pieces(self):
        got = components(SD((7, 6, 3, 2, 2), (4, 3, 2)))
        assert got == [SD((4, 3), (1,)), SD((1,)), SD((2, 2))]
        assert {format_skew(c) for c in got} == {"4,3/1", "1", "2^2"}

    def test_box_conservation(self):
        rng = random.Random(10)
        for _ in range(50):
            a = random_skew(rng)
            comps = components(a)
            assert sum(c.size for c in comps) == a.size
            if len(comps) == 1:
                assert comps[0] == normalize(a)


class TestEmptyRows:
    # rows: empty top, (2, 4], empty pinned, (0, 1]; columns 1-2 empty above row 4
    A = parse_skew("4,4,2,1/4,2,2")

    def test_normalize(self):
        assert normalize(self.A) == parse_skew("4,1,1/2,1")
        assert normalize(parse_skew("5,5,4/5,3,3")) == SD((2, 1))

    def test_rotate180(self):
        assert rotate180(self.A) == parse_skew("4,2,2/3,2")
        assert rotate180(parse_skew("5,5,4/5,3,3")) == SD((2, 2), (1,))

    def test_components(self):
        assert components(self.A) == [SD((2,)), SD((1,))]
        got = components(parse_skew("6,6,5,2,2,1/6,4,3,2,1"))
        assert got == [SD((3, 2), (1,)), SD((1,)), SD((1,))]

    def test_empty_diagram(self):
        empty = SD((), ())
        for a in (empty, SD((3, 3), (3, 3))):
            assert normalize(a) == rotate180(a) == empty
            assert components(a) == []

    def test_matches_box_set_references(self):
        rng = random.Random(14)
        seen_top = seen_pinned = 0
        for _ in range(2000):
            a = random_skew_with_empty_rows(rng)
            filled = [i for i in range(1, a.num_rows + 1) if a.outer[i - 1] > a.inner[i - 1]]
            if filled:
                seen_top += filled[0] > 1
                seen_pinned += len(filled) < filled[-1] - filled[0] + 1
            assert normalize(a) == normalize_by_boxes(a)
            assert rotate180(a) == rotate180_by_boxes(a)
            assert components(a) == components_by_boxes(a)
            labels = label_map(nw_labeling(a))
            for t in range(len(nw_labeling(a).profiles) + 1):
                assert strip_nw_ribbons(a, t) == strip_by_labels(labels, t)
        assert seen_top > 50 and seen_pinned > 50

    def test_no_box_sets(self, monkeypatch):
        def no_boxes(*_):
            raise AssertionError("box set built")

        a = parse_skew("6,6,5,2,2,1/6,4,3,2,1")
        expected = (normalize(a), rotate180(a), components(a), strip_nw_ribbons(a, 1))
        monkeypatch.setattr(skew, "box_components", no_boxes)
        monkeypatch.setattr(skew, "skew_from_boxes", no_boxes)
        assert (normalize(a), rotate180(a), components(a), strip_nw_ribbons(a, 1)) == expected
        assert full_equality(a, translate(a, 2, 1)) == (True, None)


class TestEmbedDisjoint:
    def test_examples(self):
        assert embed_disjoint(P(2), P(1)) == SD((3, 1), (1,))
        assert embed_disjoint(P(1), P(1)) == SD((2, 1), (1,))
        assert embed_disjoint(P(2, 2), P(1)) == SD((3, 3, 1), (1, 1))

    def test_components_recovered(self):
        e = embed_disjoint(P(2, 2), P(1))
        assert components(e) == [SD((2, 2)), SD((1,))]

    def test_degenerate(self):
        assert embed_disjoint(P(2, 1), Partition()) == SD((2, 1))
        assert embed_disjoint(Partition(), P(2, 1)) == SD((2, 1))
        assert embed_disjoint(Partition(), Partition()).size == 0

    def test_sizes(self):
        rng = random.Random(11)
        for _ in range(30):
            a = Partition(sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 4))), reverse=True))
            b = Partition(sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 4))), reverse=True))
            assert embed_disjoint(a, b).size == a.weight + b.weight


class TestBoxSets:
    def test_rejects_non_skew(self):
        message = "boxes do not form a skew diagram"
        with pytest.raises(ValueError, match=message):
            skew_from_boxes([(1, 1), (1, 3)])  # gap in a row
        with pytest.raises(ValueError, match=message):
            skew_from_boxes([(1, 1), (2, 2)])  # inner corner unsupported
        with pytest.raises(ValueError, match=message):
            skew_from_boxes([(1, 1), (3, 2)])  # lower row reaches further right

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(50):
            a = normalize(random_skew(rng))
            assert skew_from_boxes(boxes(a)) == a


class TestGrammar:
    @pytest.mark.parametrize(
        "text, outer, inner",
        [
            ("8^2,7,4,3^2 / 4,3,2", (8, 8, 7, 4, 3, 3), (4, 3, 2)),
            ("3,1/1", (3, 1), (1,)),
            ("3,1/", (3, 1), ()),
            ("3,1", (3, 1), ()),
            ("", (), ()),
        ],
    )
    def test_parse(self, text, outer, inner):
        assert parse_skew(text) == SD(outer, inner)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            a = random_skew(rng)
            assert parse_skew(format_skew(a)) == a

import gc
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from skewchar import (
    CharacterSum,
    Partition,
    SkewDiagram,
    TooManyFillings,
    brute_decompose,
    components,
    decompose_skew,
    embed_disjoint,
    enumerate_lr_fillings,
    first_hook_strip,
    lr_coefficient,
    normalize,
    outer_product,
    parse_skew,
    rotate180,
    schubert_product,
    translate,
    verify_complementation,
)
from skewchar import lr

from helpers import (
    P,
    SD,
    is_lattice_word,
    is_lr_tableau,
    partitions_of_weight_in_box,
    random_partition,
    random_skew,
    random_subpartition,
    recursive_lr_fillings,
    reverse_row_word_boxes,
    row_by_row_decompose,
)


class TestLatticeWord:
    @pytest.mark.parametrize(
        "word, ok",
        [((1, 2, 1), True), ((2,), False), ((1, 2, 2), False), ((), True), ((1, 1, 2, 2), True)],
    )
    def test_values(self, word, ok):
        assert is_lattice_word(word) is ok

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_lattice_word((1, 0))


class TestEnumerate:
    def test_classic_two_fillings(self):
        a = SD((3, 2, 1), (2, 1))
        fillings = list(enumerate_lr_fillings(a, P(2, 1)))
        assert len(fillings) == 2
        for word in fillings:
            assert is_lr_tableau(a, word)
            assert sorted(Counter(word).items()) == [(1, 2), (2, 1)]

    def test_empty_shape_single_filling(self):
        assert list(enumerate_lr_fillings(SD((3, 1), (3, 1)), Partition())) == [()]

    def test_impossible_content(self):
        assert list(enumerate_lr_fillings(SD((2, 2), (1,)), P(1, 1, 1))) == []

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_lr_fillings(SD((2, 2), (1,)), P(2, 2)))

    def test_every_filling_valid_on_randoms(self):
        rng = random.Random(21)
        for _ in range(40):
            a = random_skew(rng, 5, 5, 9)
            seen = set()
            for nu in brute_decompose(a):
                for word in enumerate_lr_fillings(a, nu):
                    assert is_lr_tableau(a, word)
                    assert word not in seen
                    seen.add(word)

    def test_same_fillings_in_same_order_as_recursive_search(self):
        rng = random.Random(23)
        for _ in range(60):
            a = random_skew(rng, 6, 6, 11)
            boxes = reverse_row_word_boxes(a)
            for nu in brute_decompose(a):
                expected = []
                for filling in recursive_lr_fillings(a, nu):
                    assert [box for box, _ in filling] == boxes
                    expected.append(tuple(v for _, v in filling))
                assert list(enumerate_lr_fillings(a, nu)) == expected

    def test_any_content_is_every_content_in_turn(self):
        # with no content: the fillings of each content in turn, interleaved
        rng = random.Random(24)
        for _ in range(40):
            a = random_skew(rng, 5, 5, 9)
            words = list(enumerate_lr_fillings(a))
            assert len(set(words)) == len(words)
            for nu in partitions_of_weight_in_box(a.size, a.size, a.size):
                of_nu = [w for w in words if Counter(w) == Counter(dict(enumerate(nu.parts, 1)))]
                assert of_nu == list(enumerate_lr_fillings(a, nu))
        assert list(enumerate_lr_fillings(SD((3, 1), (3, 1)))) == [()]

    def test_shape_longer_than_recursion_limit(self):
        # 1100 boxes: the search must not take a stack frame per box
        a = SD((1650, 550), (1100,))
        (word,) = enumerate_lr_fillings(a, P(1100))
        assert a.size == 1100 and set(word) == {1}
        assert is_lr_tableau(a, word)


class TestCoefficient:
    def test_classic(self):
        assert lr_coefficient(P(3, 2, 1), P(2, 1), P(2, 1)) == 2

    def test_identity(self):
        for lam in (Partition(), P(1), P(4, 2, 1)):
            assert lr_coefficient(lam, lam, Partition()) == 1

    def test_multiplicity_two_instance(self):
        assert lr_coefficient(P(8, 8, 7, 4, 3, 3), P(4, 3, 2), P(8, 7, 4, 2, 2, 1)) == 2

    def test_zero_cases(self):
        assert lr_coefficient(P(2, 2), P(3), P(1)) == 0
        assert lr_coefficient(P(2, 2), P(1), P(1)) == 0


class TestCharacterSum:
    def test_term_order_is_lex_descending(self):
        cs = CharacterSum(3, {P(1, 1, 1): 1, P(3): 1, P(2, 1): 2})
        assert [nu for nu, _ in cs.items()] == [P(3), P(2, 1), P(1, 1, 1)]
        cs = CharacterSum(6, {P(2, 2, 1, 1): 1, P(2, 2, 2): 3, P(3, 1, 1, 1): 1, P(6): 2})
        assert cs.support() == sorted(cs.support(), reverse=True)
        assert cs.items() == [(P(6), 2), (P(3, 1, 1, 1), 1), (P(2, 2, 2), 3), (P(2, 2, 1, 1), 1)]

    def test_validation(self):
        # the public constructor validates; only decompose_skew skips it
        with pytest.raises(ValueError):
            CharacterSum(3, {P(2): 1})
        with pytest.raises(ValueError):
            CharacterSum(3, {P(2, 1): 0})
        with pytest.raises(ValueError):
            CharacterSum(3, {P(2, 1): 1.0})

    def test_json_shape(self):
        cs = CharacterSum(3, {P(2, 1): 2, P(3): 1})
        assert cs.to_json_dict() == {
            "weight": 3,
            "terms": [
                {"partition": [3], "mult": 1},
                {"partition": [2, 1], "mult": 2},
            ],
        }

    def test_lookup_defaults_to_zero(self):
        cs = CharacterSum(3, {P(3): 1})
        assert cs[P(2, 1)] == 0 and cs[P(3)] == 1
        assert P(3) in cs and P(2, 1) not in cs

    def test_iteration_ends_after_the_support(self):
        # islice stops a sequence-protocol fallback, which would yield 0 forever
        for cs in (CharacterSum(3, {P(2, 1): 2, P(3): 1, P(1, 1, 1): 1}), CharacterSum(0, {})):
            assert list(itertools.islice(cs, len(cs) + 1)) == cs.support()


class TestDecompose:
    def test_l_tromino(self):
        assert dict(decompose_skew(SD((2, 2), (1,))).items()) == {P(2, 1): 1}

    def test_stripped_pair_goldens(self):
        a = dict(decompose_skew(parse_skew("4^4,3^2 / 3^4")).items())
        assert a == {P(4, 4, 1, 1): 1, P(4, 3, 1, 1, 1): 1, P(3, 3, 1, 1, 1, 1): 1}
        b = dict(decompose_skew(parse_skew("4^2,2^2,1^2 / 1^4")).items())
        assert b == {
            P(4, 4, 1, 1): 1,
            P(4, 3, 1, 1, 1): 1,
            P(3, 3, 1, 1, 1, 1): 1,
            P(4, 3, 2, 1): 1,
            P(3, 3, 2, 2): 1,
            P(3, 3, 2, 1, 1): 1,
        }

    def test_empty_diagram(self):
        cs = decompose_skew(SD((), ()))
        assert cs.weight == 0 and dict(cs.items()) == {Partition(): 1}
        assert brute_decompose(SD((), ())) == cs

    def test_empty_middle_row(self):
        # the empty second row splits each diagram into two pieces
        for a in (SD((6, 5, 3, 3, 2), (5, 5, 1)), SD((4, 2, 2, 1), (2, 2))):
            assert a.spans[1][0] == a.spans[1][1]
            assert len(components(a)) == 2
            assert decompose_skew(a) == brute_decompose(a)

    def test_matches_per_candidate_enumeration(self):
        rng = random.Random(22)
        for _ in range(60):
            a = random_skew(rng, 6, 6, 10)
            assert decompose_skew(a) == brute_decompose(a)

    def test_matches_row_by_row_reference(self):
        # terms, multiplicities and items() order of the former per-state search
        def has_empty_middle_row(a):
            return any(lo == hi for lo, hi in a.spans[1:-1])

        rng = random.Random(25)
        cases = [random_skew(rng, 9, 9, 30) for _ in range(80)]
        cases += [random_skew(rng, 4, 12, 18) for _ in range(20)]
        split = (random_skew(rng, 8, 6, 22) for _ in range(400))
        cases += [a for a in split if has_empty_middle_row(a)]
        cases += [
            SD((), ()),
            SD((6, 5, 3, 3, 2), (5, 5, 1)),
            SD((4, 2, 2, 1), (2, 2)),
            SD((3, 3, 1, 1), (3, 1, 1, 1)),  # empty first and last rows
            parse_skew("1200"),
            parse_skew("1500/300"),
            parse_skew("7,6,5,4,3,2,1/4,3,2,1"),
        ]
        assert sum(map(has_empty_middle_row, cases)) >= 10
        for a in cases:
            cs, ref = decompose_skew(a), row_by_row_decompose(a)
            assert cs.weight == ref.weight == a.size
            assert cs.items() == ref.items()
            assert cs.support() == ref.support() and cs == ref

    def test_search_frees_each_row_as_it_reads_it(self):
        # 5 027 terms.  Holding the row read whole while the next one grew,
        # and the last row beside the answer, peaked at 3.11 times the
        # answer's dict and count tuples; popping states as read, at 2.57
        a = SD(range(11, 0, -1), range(4, 0, -1))
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            cs = decompose_skew(a)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        answer = sys.getsizeof(cs._terms) + sum(map(sys.getsizeof, cs._terms))
        assert len(cs) == 5_027
        assert peak < 2.84 * answer

    def test_trusted_terms_equal_validated_ones(self):
        rng = random.Random(26)
        for a in [random_skew(rng, 7, 7, 16) for _ in range(40)] + [SD((), ())]:
            cs = decompose_skew(a)
            for nu, mult in cs.items():
                assert Partition(nu.parts) == nu and hash(Partition(nu.parts)) == hash(nu)
                assert isinstance(mult, int) and mult >= 1
                assert cs[nu] == mult and nu in cs
            assert CharacterSum(cs.weight, dict(cs.items())) == cs

    def test_weight_conservation(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_skew(rng)
            cs = decompose_skew(a)
            assert cs.weight == a.size
            assert all(nu.weight == a.size for nu in cs.support())

    def test_disconnected_boxes_count_involutions(self):
        # n disjoint boxes decompose with multiplicity f^nu per shape, and
        # the standard tableaux of all shapes of n are counted by the
        # involutions of n
        def involutions(n):
            a, b = 1, 1
            for k in range(2, n + 1):
                a, b = b, b + (k - 1) * a
            return b

        for n in (4, 9, 14):
            a = SkewDiagram(Partition(range(n, 0, -1)), Partition(range(n - 1, 0, -1)))
            assert decompose_skew(a).total_multiplicity() == involutions(n)

    def test_translation_and_rotation_invariance(self):
        rng = random.Random(24)
        for _ in range(40):
            a = random_skew(rng)
            cs = decompose_skew(a)
            assert decompose_skew(rotate180(a)) == cs
            assert decompose_skew(translate(a, rng.randint(0, 2), rng.randint(0, 2))) == cs
            assert decompose_skew(normalize(a)) == cs


class TestBoxCap:
    @staticmethod
    def _in_box(cs, k, l):
        return CharacterSum(cs.weight, {nu: m for nu, m in cs.items() if nu[0] <= k and nu.length <= l})

    def test_equals_the_filtered_expansion(self):
        rng = random.Random(28)
        for _ in range(60):
            a = random_skew(rng, 9, 9, 25)
            full = decompose_skew(a)
            widths = [nu[0] for nu in full]
            lengths = [nu.length for nu in full]
            boxes = [
                (rng.randint(min(widths), max(widths)), rng.randint(min(lengths), max(lengths))),
                (max(widths), max(lengths)),
                (min(widths) - 1, max(lengths)),  # empties the answer
                (max(widths), min(lengths) - 1),  # so does this one
                (0, max(lengths)),  # and a zero side, which no term fits
                (max(widths), 0),
            ]
            for k, l in boxes:
                assert decompose_skew(a, box=(k, l)) == self._in_box(full, k, l)
            for empty in boxes[2:]:
                assert len(decompose_skew(a, box=empty)) == 0

    def test_empty_diagram(self):
        for box in ((1, 1), (0, 0), (3, 2)):
            assert decompose_skew(SD((), ()), box=box) == decompose_skew(SD((), ()))


def _block_skew(rng: random.Random) -> SkewDiagram:
    """A random diagram whose top rows share their inner part a, above rows that start left of a."""
    while True:
        t, a = rng.randint(1, 6), rng.randint(0, 4)
        top = sorted((rng.randint(1, 5) for _ in range(t)), reverse=True)
        outer, inner = [a + x for x in top], [a] * t
        if a:
            # the first lower row may reach under row t and share columns with it
            below = random_partition(rng, a + top[-1], 4)
            sub = random_subpartition(rng, below)
            outer += below.parts
            inner += [min(sub[i], a - 1) for i in range(below.length)]
        diagram = SkewDiagram(Partition(outer), Partition(inner))
        if 1 <= diagram.size <= 16:
            return diagram


class TestForcedTopBlock:
    """The search starts below the leading rows that share the first row's inner part."""

    def test_equals_brute_unboxed_and_under_boxes_that_cut_the_block(self):
        rng = random.Random(31)
        shared = 0
        for _ in range(400):
            a = _block_skew(rng)
            spans = [(lo, hi) for lo, hi in a.spans if lo < hi]
            t = next((i for i, (lo, _) in enumerate(spans) if lo != spans[0][0]), len(spans))
            shared += 1 < t < len(spans) and spans[t][1] > spans[t - 1][0]
            full = brute_decompose(a)
            assert decompose_skew(a) == full
            width = spans[0][1] - spans[0][0]
            cuts = [(width - 1, t + 1), (width + 1, t - 1), (0, t + 1)]
            for k, l in cuts:
                assert len(decompose_skew(a, box=(k, l))) == 0
            for k, l in cuts + [(rng.randint(0, 6), rng.randint(0, 6)), (width, t)]:
                assert decompose_skew(a, box=(k, l)) == TestBoxCap._in_box(full, k, l)
        # blocks of several rows above a row that shares columns with them
        assert shared >= 40, shared

    def test_whole_diagram_is_the_block(self):
        # a straight shape is its own block: one term, unless the box cuts it
        for lam in (P(4, 4, 2), P(1, 1, 1), P(5)):
            assert dict(decompose_skew(SD(lam.parts, ())).items()) == {lam: 1}
            assert dict(decompose_skew(SD(lam.parts, ()), box=(lam[0], lam.length)).items()) == {lam: 1}
            for box in ((0, lam.length), (lam[0] - 1, lam.length), (lam[0], lam.length - 1)):
                assert len(decompose_skew(SD(lam.parts, ()), box=box)) == 0

    def test_unsearched_and_split_diagrams_equal_brute_under_every_small_box(self):
        # straight shapes, their translates and half-turns are answered with
        # no row searched; diagrams split by an empty row are searched below
        # their block.  Boxes 0..w+1 by 0..n+1 include every one that cuts them.
        rng = random.Random(32)
        split = (random_skew(rng, 8, 6, 14) for _ in range(300))
        cases = [a for a in split if any(lo == hi for lo, hi in a.spans[1:-1])][:25]
        assert len(cases) == 25
        for _ in range(40):
            lam = random_partition(rng, 5, 5)
            straight = SkewDiagram(lam)
            down, right = rng.randint(0, 2), rng.randint(1, 2)
            cases += [straight, translate(straight, down, right), rotate180(straight)]
            cases.append(translate(rotate180(straight), down, right))
        cases += [SD((), ()), translate(SD((3, 1)), 2, 0), SD((3, 3, 3), (2, 1, 1))]
        for a in cases:
            full = brute_decompose(a)
            cs = decompose_skew(a)
            assert cs == full and cs.weight == a.size
            w, n = a.num_cols, a.num_rows
            for k, l in itertools.product(range(w + 2), range(n + 2)):
                cs = decompose_skew(a, box=(k, l))
                assert cs.weight == a.size
                assert cs == TestBoxCap._in_box(full, k, l)

    def test_products_with_an_empty_factor(self):
        rng = random.Random(33)
        empty = Partition()
        for _ in range(40):
            a, b = random_partition(rng, 5, 4), random_partition(rng, 4, 3)
            for alpha, beta in ((a, empty), (empty, a), (a, b)):
                full = brute_decompose(embed_disjoint(alpha, beta))
                assert outer_product(alpha, beta) == full
                assert full.weight == alpha.weight + beta.weight
                for k, l in itertools.product(range(1, 8), range(1, 6)):
                    cs = schubert_product(alpha, beta, k, l)
                    assert cs.weight == alpha.weight + beta.weight
                    assert cs == TestBoxCap._in_box(full, k, l)

    def test_no_row_is_searched_for_straight_shapes_and_their_half_turns(self, monkeypatch):
        # one defaultdict is made per searched row
        def refuse(*args, **kwargs):
            raise AssertionError("a row was searched")

        monkeypatch.setattr(lr, "defaultdict", refuse)
        turned = Partition([10000] * 2999 + [1])  # the half-turn of 10000^3000/9999
        for a, lam in (
            (parse_skew("10000^3000"), Partition([10000] * 3000)),
            (parse_skew("10000^3000/1^3000"), Partition([9999] * 3000)),
            (parse_skew("10000^3000/9999"), turned),
            (parse_skew("10000^2999,1"), turned),
            (parse_skew("9999^2999,2/1^3000"), Partition([9998] * 2999 + [1])),
        ):
            assert dict(decompose_skew(a).items()) == {lam: 1}
            assert decompose_skew(a).weight == a.size == lam.weight
            assert dict(decompose_skew(a, box=(lam[0], lam.length)).items()) == {lam: 1}
            assert len(decompose_skew(a, box=(lam[0] - 1, lam.length))) == 0
            assert len(decompose_skew(a, box=(lam[0], lam.length - 1))) == 0


class TestBruteDecompose:
    def test_filling_limit(self, monkeypatch):
        a = parse_skew("4^2,2^2,1^2 / 1^4")
        total = decompose_skew(a).total_multiplicity()
        unbounded = brute_decompose(a)
        monkeypatch.setattr(lr, "MAX_FILLINGS", total)
        assert brute_decompose(a) == unbounded == decompose_skew(a)
        for limit in (0, total - 1):
            monkeypatch.setattr(lr, "MAX_FILLINGS", limit)
            with pytest.raises(TooManyFillings, match=f"^more than {limit} LR fillings$"):
                brute_decompose(a)
        # 193 065 fillings in all; the count stops after the first 1 001
        monkeypatch.setattr(lr, "MAX_FILLINGS", 1000)
        with pytest.raises(TooManyFillings):
            brute_decompose(parse_skew("9,8,7,6,5,4,3,2,1/5,4,3,2,1"))

    def test_one_enumeration_equals_the_per_candidate_counts(self, monkeypatch):
        rng = random.Random(30)
        calls = []
        original = lr.enumerate_lr_fillings

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lr, "enumerate_lr_fillings", counting)
        for _ in range(40):
            a = random_skew(rng, 6, 6, 10)
            calls.clear()
            got = brute_decompose(a)
            assert calls == [(a,)]
            counts = {
                nu: sum(1 for _ in original(a, nu))
                for nu in partitions_of_weight_in_box(a.size, a.size, a.size)
            }
            assert got == CharacterSum(a.size, {nu: c for nu, c in counts.items() if c})

    def test_candidate_bound_loses_nothing(self):
        # every partition of |A| as a candidate, against the row/column bound
        rng = random.Random(26)
        for _ in range(40):
            a = random_skew(rng, 5, 5, 9)
            counts = {
                nu: sum(1 for _ in enumerate_lr_fillings(a, nu))
                for nu in partitions_of_weight_in_box(a.size, a.size, a.size)
            }
            assert brute_decompose(a) == CharacterSum(a.size, {nu: c for nu, c in counts.items() if c})


class TestOuterProduct:
    def test_single_row_factor(self):
        assert dict(outer_product(P(1), P(2, 2)).items()) == {P(3, 2): 1, P(2, 2, 1): 1}

    def test_single_boxes(self):
        assert dict(outer_product(P(1), P(1)).items()) == {P(2): 1, P(1, 1): 1}

    def test_eighteen_terms(self):
        cs = outer_product(P(3, 2), P(4, 2))
        assert len(cs) == 18
        for t in ("7,3,1", "7,2,2", "6,3,1,1", "6,2,2,1"):
            assert cs[Partition(int(x) for x in t.split(","))] == 1

    def test_fourteen_terms(self):
        cs = outer_product(P(2, 2, 1), P(4, 2))
        assert len(cs) == 14
        for parts in ((6, 3, 1, 1), (6, 2, 2, 1), (5, 3, 1, 1, 1), (5, 2, 2, 1, 1)):
            assert cs[Partition(parts)] == 1

    def test_empty_factor(self):
        assert dict(outer_product(P(2, 1), Partition()).items()) == {P(2, 1): 1}
        assert dict(outer_product(Partition(), Partition()).items()) == {Partition(): 1}

    def test_needs_no_brute_enumeration(self, monkeypatch):
        expected = brute_decompose(embed_disjoint(P(3, 2), P(2, 2, 1)))

        def refuse(*args, **kwargs):
            raise AssertionError("brute enumeration called")

        monkeypatch.setattr(lr, "enumerate_lr_fillings", refuse)
        assert outer_product(P(3, 2), P(2, 2, 1)) == expected
        assert outer_product(P(2, 2, 1), P(3, 2)) == expected

    def test_makes_no_diagram_and_validates_no_partition(self, monkeypatch):
        a, b = P(3, 2), P(2, 2, 1)
        full = brute_decompose(embed_disjoint(a, b))
        boxed = {nu.parts: m for nu, m in full.items() if nu[0] <= 4 and nu.length <= 4}

        def refuse(*args, **kwargs):
            raise AssertionError("diagram or partition built")

        monkeypatch.setattr(SkewDiagram, "__init__", refuse)
        monkeypatch.setattr(Partition, "__init__", refuse)
        assert outer_product(a, b) == full and outer_product(b, a) == full
        assert schubert_product(a, b, 4, 4)._terms == boxed
        assert schubert_product(b, a, 4, 4)._terms == boxed

    def test_symmetry_and_embedding_law(self):
        rng = random.Random(25)
        for _ in range(30):
            a = random_partition(rng, 4, 3)
            b = random_partition(rng, 4, 3)
            left = outer_product(a, b)
            assert left == outer_product(b, a)
            assert left == brute_decompose(embed_disjoint(a, b))


class TestSchubert:
    def test_examples(self):
        assert dict(schubert_product(P(1), P(1), 1, 2).items()) == {P(1, 1): 1}
        assert dict(schubert_product(P(1), P(1), 2, 2).items()) == {P(2): 1, P(1, 1): 1}
        assert dict(schubert_product(P(2), P(2), 2, 2).items()) == {P(2, 2): 1}

    def test_big_box_is_full_product(self):
        rng = random.Random(26)
        for _ in range(20):
            a = random_partition(rng, 4, 3)
            b = random_partition(rng, 4, 3)
            k, l = a[0] + b[0], a.length + b.length
            assert schubert_product(a, b, max(k, 1), max(l, 1)) == brute_decompose(embed_disjoint(a, b))

    def test_equals_the_filtered_outer_product(self):
        rng = random.Random(29)
        shapes = [nu for n in range(8) for nu in partitions_of_weight_in_box(n, n, n)]
        for a, b in itertools.product(shapes, repeat=2):
            full = brute_decompose(embed_disjoint(a, b))
            k, l = rng.randint(1, a[0] + b[0] + 1), rng.randint(1, a.length + b.length + 1)
            kept = {nu: m for nu, m in full.items() if nu[0] <= k and nu.length <= l}
            assert schubert_product(a, b, k, l) == CharacterSum(full.weight, kept)

    def test_needs_no_brute_enumeration(self, monkeypatch):
        full = brute_decompose(embed_disjoint(P(3, 2), P(2, 2, 1)))
        expected = {nu: m for nu, m in full.items() if nu[0] <= 4 and nu.length <= 4}
        assert verify_complementation(P(2, 1), P(4, 3, 1), 4, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("brute enumeration called")

        monkeypatch.setattr(lr, "outer_product", refuse)
        monkeypatch.setattr(lr, "enumerate_lr_fillings", refuse)
        assert dict(schubert_product(P(3, 2), P(2, 2, 1), 4, 4).items()) == expected
        assert verify_complementation(P(2, 1), P(4, 3, 1), 4, 3)

    def test_long_row_and_column(self):
        # outer_product would list about p(1000) candidate shapes for these 2 terms
        row, column = Partition([1000]), Partition([1] * 1000)
        cs = schubert_product(row, column, 1001, 1001)
        assert dict(cs.items()) == {Partition([1001] + [1] * 999): 1, Partition([1000] + [1] * 1000): 1}

    def test_bad_box(self):
        with pytest.raises(ValueError):
            schubert_product(P(1), P(1), 0, 2)


class TestLrSymmetries:
    def test_coefficient_symmetry(self):
        rng = random.Random(27)
        for _ in range(60):
            lam = random_partition(rng, 6, 5)
            mu = random_subpartition(rng, lam)
            rest = lam.weight - mu.weight
            cs = decompose_skew(SkewDiagram(lam, mu))
            if rng.random() < 0.5 and len(cs):
                nu = rng.choice(cs.support())
            else:
                nu = random_partition(rng, max(rest, 1), max(rest, 1))
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)

    def test_first_hook_strip_identity(self):
        rng = random.Random(28)
        checked = 0
        for _ in range(80):
            lam = random_partition(rng, 5, 4)
            if not lam:
                continue
            bar_nu = random_partition(rng, max(lam[0] - 1, 0), max(lam.length - 1, 0))
            nu = Partition([lam[0]] + [bar_nu[i] + 1 for i in range(lam.length - 1)])
            if nu[0] < nu[1]:
                continue
            mu_weight = lam.weight - nu.weight
            if mu_weight < 0:
                continue
            mu = random_partition(rng, 5, 4)
            lhs = lr_coefficient(lam, mu, nu)
            rhs = lr_coefficient(first_hook_strip(lam), mu, first_hook_strip(nu))
            assert lhs == rhs
            checked += 1
        assert checked > 20

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewchar import (
    GrammarError,
    Partition,
    conjugate,
    contains,
    durfee,
    first_hook_strip,
    format_partition,
    from_frobenius,
    parse_partition,
    partitions_in_box,
    principal_hook_lengths,
    subpartitions,
)
from skewchar.partitions import MAX_PARTS

from helpers import (
    P,
    add_partitions,
    frobenius_coordinates,
    lex_compare,
    partitions_of_weight_in_box,
)

partitions_st = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartitionType:
    def test_trailing_zeros_stripped(self):
        assert Partition([3, 2, 0, 0]) == P(3, 2)

    def test_reads_past_end_are_zero(self):
        p = P(3, 2)
        assert p[0] == 3 and p[1] == 2 and p[2] == 0 and p[17] == 0
        with pytest.raises(IndexError, match="indexed from 0"):
            p[-1]

    def test_invalid_sequences_rejected(self):
        with pytest.raises(ValueError):
            Partition([2, 3])
        with pytest.raises(ValueError):
            Partition([3, 0, 2])
        with pytest.raises(ValueError):
            Partition([3, -1])
        with pytest.raises(ValueError):
            Partition([2.0])

    def test_weight_and_length(self):
        p = P(5, 3, 3, 2, 1, 1)
        assert p.weight == 15 and p.length == 6
        assert Partition().weight == 0 and Partition().length == 0

    def test_ordering_is_padded_lex(self):
        assert P(2, 1) < P(2, 2)
        assert P(3) > P(2, 1)
        assert P(2, 1) < P(2, 1, 1)


class TestConjugate:
    def test_small(self):
        assert conjugate(P(3, 2)) == P(2, 2, 1)

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_derived_example(self):
        # column counts of the diagram of (5,3,3,2,1,1)
        assert conjugate(P(5, 3, 3, 2, 1, 1)) == P(6, 4, 3, 1, 1)
        assert conjugate(P(5, 3, 3, 2, 1, 1)).weight == 15

    @given(partitions_st)
    def test_involution_preserves_weight_and_durfee(self, p):
        q = conjugate(p)
        assert conjugate(q) == p
        assert q.weight == p.weight
        assert durfee(q) == durfee(p)


class TestAdd:
    def test_componentwise_sum(self):
        assert add_partitions(P(10, 7, 4, 1), P(10, 4, 1)) == P(20, 11, 5, 1)

    def test_identity(self):
        assert add_partitions(P(2, 1), Partition()) == P(2, 1)

    def test_uneven_lengths(self):
        assert add_partitions(P(1, 1), P(1)) == P(2, 1)


class TestDurfee:
    @pytest.mark.parametrize(
        "parts, d",
        [((6, 6, 6, 5, 4), 4), ((), 0), ((5, 5, 4, 4, 3, 1), 4), ((1,), 1), ((3, 1), 1)],
    )
    def test_values(self, parts, d):
        assert durfee(Partition(parts)) == d


class TestPrincipalHookLengths:
    def test_single_box(self):
        assert principal_hook_lengths(P(1)) == P(1)

    def test_derived_examples(self):
        assert principal_hook_lengths(P(5, 3, 3, 2, 1, 1)) == P(10, 4, 1)
        assert principal_hook_lengths(P(5, 5, 4, 4, 3, 1)) == P(10, 7, 4, 1)

    @given(partitions_st)
    def test_structure(self, p):
        hl = principal_hook_lengths(p)
        assert hl.length == durfee(p)
        assert hl.weight == p.weight
        assert all(hl[i] > hl[i + 1] for i in range(hl.length - 1))
        if p:
            assert hl[0] == p[0] + p.length - 1

    @given(partitions_st)
    def test_strip_relation(self, p):
        if not p:
            return
        stripped = first_hook_strip(p)
        assert stripped.weight == p.weight - principal_hook_lengths(p)[0]
        assert principal_hook_lengths(stripped) == Partition(principal_hook_lengths(p).parts[1:])


class TestFirstHookStrip:
    def test_staircase(self):
        assert first_hook_strip(P(3, 2, 1)) == P(1)

    def test_single(self):
        assert first_hook_strip(P(1)) == Partition()

    def test_derived(self):
        assert first_hook_strip(P(5, 5, 4, 4, 3, 1)) == P(4, 3, 3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            first_hook_strip(Partition())


class TestLexCompareContains:
    def test_lex(self):
        assert lex_compare(P(2, 1), P(2, 2)) == -1
        assert lex_compare(P(3), P(2, 1)) == 1
        assert lex_compare(P(17, 15, 8, 2), P(17, 15, 8, 2)) == 0

    def test_contains(self):
        assert contains(P(1), P(2, 2))
        assert not contains(P(3), P(2, 2))
        assert contains(P(4, 3, 1, 1), P(9, 9, 9, 9, 7, 6, 6, 4, 4))

    def test_contains_matches_the_padded_definition(self):
        shapes = [p for n in range(9) for p in partitions_of_weight_in_box(n, n, n)]
        for mu in shapes:
            for lam in shapes:
                assert contains(mu, lam) is all(mu[i] <= lam[i] for i in range(mu.length))


class TestFrobenius:
    @given(partitions_st)
    def test_round_trip(self, p):
        arms, legs = frobenius_coordinates(p)
        assert from_frobenius(arms, legs) == p

    def test_round_trip_every_partition_up_to_14(self):
        count = 0
        for n in range(15):
            for p in partitions_of_weight_in_box(n, n, n):
                assert from_frobenius(*frobenius_coordinates(p)) == p
                count += 1
        assert count == 508  # p(0) + p(1) + ... + p(14)

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            from_frobenius((2, 2), (1, 0))
        with pytest.raises(ValueError):
            from_frobenius((2,), (1, 0))


class TestGrammar:
    @pytest.mark.parametrize(
        "text, parts",
        [
            ("10^2,8^4,5^2", (10, 10, 8, 8, 8, 8, 5, 5)),
            ("3,2,1", (3, 2, 1)),
            (" 3 , 2 ,1 ", (3, 2, 1)),
            ("", ()),
            ("  ", ()),
            ("7", (7,)),
        ],
    )
    def test_parse(self, text, parts):
        assert parse_partition(text) == Partition(parts)

    @pytest.mark.parametrize("text", ["a", "3,,1", "3^", "^2", "3^0", "1;2"])
    def test_bad_grammar(self, text):
        with pytest.raises(GrammarError):
            parse_partition(text)

    def test_invalid_value_is_not_a_grammar_error(self):
        with pytest.raises(ValueError) as err:
            parse_partition("2,3")
        assert not isinstance(err.value, GrammarError)

    @given(partitions_st)
    def test_round_trip(self, p):
        assert parse_partition(format_partition(p)) == p

    def test_part_count_limit(self):
        assert parse_partition(f"1^{MAX_PARTS}").length == MAX_PARTS
        assert parse_partition(f"2^{MAX_PARTS - 1},1").length == MAX_PARTS
        # parts are bounded too, on the digits: leading zeros do not count
        assert parse_partition(f"{MAX_PARTS},{'0' * 5000}1^{'0' * 5000}2") == P(MAX_PARTS, 1, 1)
        huge = "9" * 5000  # past int()'s digit limit
        # zeros the token pattern could split two ways: backtracking over them
        # quadratically would take seconds
        start = time.perf_counter()
        with pytest.raises(GrammarError, match="^bad partition token"):
            parse_partition("0" * 20000 + "x")
        assert time.perf_counter() - start < 1
        for text in (
            f"1^{MAX_PARTS + 1}",
            f"2^{MAX_PARTS},1",
            f"2,1^{MAX_PARTS}",
            f"{MAX_PARTS + 1}",
            "1000000000",
            f"3,{huge}",
            f"{huge}^2",
            f"1^{huge}",
            f"1^{MAX_PARTS}000",
        ):
            with pytest.raises(GrammarError, match="at most"):
                parse_partition(text)

    @pytest.mark.parametrize("text", ["٣,٢", "٠٠٠٠٠٠1", "3^٢", "²", "1_0", "+1"])
    def test_digits_are_ascii(self, text):
        # int() reads every decimal digit, an underscore and a sign; the grammar does not
        with pytest.raises(GrammarError, match="^bad partition token "):
            parse_partition(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("20000,x", f"a part may be at most {MAX_PARTS}"),
            ("x,20000", "bad partition token 'x'"),
            ("1^0,20000", "exponent must be positive in '1^0'"),
            ("20000,1^0", f"a part may be at most {MAX_PARTS}"),
            ("1^10000,1", f"a partition may have at most {MAX_PARTS} parts"),
            ("1^10000,x", "bad partition token 'x'"),
            ("3,2,0^0", "exponent must be positive in '0^0'"),
            (",".join(["1"] * (MAX_PARTS + 1)), f"a partition may have at most {MAX_PARTS} parts"),
            ("100000", f"a part may be at most {MAX_PARTS}"),
            ("1,00100000", f"a part may be at most {MAX_PARTS}"),
        ],
        ids=lambda value: value if len(value) < 30 else value[:10] + "...",
    )
    def test_first_bad_token_names_the_refusal(self, text, message):
        with pytest.raises(GrammarError) as err:
            parse_partition(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, parts",
        [
            (",".join(["1"] * MAX_PARTS), (1,) * MAX_PARTS),
            (f"{MAX_PARTS}", (MAX_PARTS,)),
            (f"0{MAX_PARTS}", (MAX_PARTS,)),
            ("0000000000003,2", (3, 2)),
            ("3^00002,000", (3, 3)),
            ("1 0 , 2", (10, 2)),
            ("1\t0^ 2,\n1", (10, 10, 1)),
            ("1\u20030", (10,)),
        ],
        ids=["max-parts", "max-part", "leading-zero", "long-zeros", "zero-exponent-digits",
             "space", "tab-newline", "unicode-space"],
    )
    def test_boundaries_and_whitespace_inside_tokens(self, text, parts):
        assert parse_partition(text) == Partition(parts)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 3), st.integers(0, 7)), min_size=1, max_size=6
        )
    )
    def test_leading_zeros_and_exponents(self, runs):
        # tokens of up to five characters and longer ones, with and without exponents
        runs.sort(reverse=True)
        text = ",".join(
            "0" * z + str(b) + (f"^{'0' * z}{e}" if e > 1 else "") for b, e, z in runs
        )
        assert parse_partition(text) == Partition([b for b, e, _ in runs for _ in range(e)])

    def test_error_messages_clip_long_inputs(self):
        # short inputs are quoted whole, long ones cut to 60 characters and '...'
        with pytest.raises(ValueError, match=r"^partition parts must be weakly decreasing, got \[2, 3\]$"):
            Partition([2, 3])
        for make, message in (
            (lambda: Partition([1] + [2] * 5000), "partition parts must be weakly decreasing, got "),
            (lambda: Partition([1] * 5000 + [-1]), "partition parts must be positive integers, got "),
            (lambda: parse_partition("0" * 5000 + "x"), "bad partition token "),
            (lambda: parse_partition("1^" + "0" * 5000), "exponent must be positive in "),
        ):
            with pytest.raises(ValueError) as err:
                make()
            text = str(err.value)
            assert text.startswith(message) and text.endswith("...")
            assert len(text) == len(message) + 63

    def test_format_uses_exponents(self):
        assert format_partition(P(10, 10, 8, 8, 8, 8, 5, 5)) == "10^2,8^4,5^2"
        assert format_partition(Partition()) == ""


class TestEnumerators:
    def test_partitions_in_box_count(self):
        # choose(k+l, l) partitions fit in a k x l box
        assert sum(1 for _ in partitions_in_box(3, 2)) == 10
        assert len(set(partitions_in_box(4, 4))) == 70

    def test_partitions_of_weight(self):
        got = set(partitions_of_weight_in_box(4, 4, 4))
        assert got == {P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)}
        assert set(partitions_of_weight_in_box(4, 2, 2)) == {P(2, 2)}

    def test_subpartitions(self):
        # each prefix before its extensions, a row's values descending
        assert [p.parts for p in subpartitions(P(2, 1))] == [(), (2,), (2, 1), (1,), (1, 1)]
        box = [(), (2,), (2, 2), (2, 1), (1,), (1, 1)]
        assert [p.parts for p in partitions_in_box(2, 2)] == box

    def test_enumerators_deeper_than_the_recursion_limit(self):
        # a column of 2 000 boxes holds 2 001 partitions, one per height
        assert sum(1 for _ in partitions_in_box(1, 2000)) == 2001
        column = list(subpartitions(Partition([1] * 2000)))
        assert [p.length for p in column] == list(range(2001))

    def test_degenerate_boxes_hold_only_the_empty_partition(self):
        for k, l in ((1, -1), (-1, 2), (0, 3), (3, 0), (-2, -2)):
            assert list(partitions_in_box(k, l)) == [Partition()]

import argparse
import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import pathlib
import random
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewchar
from skewchar import (
    CharacterSum,
    Partition,
    SkewDiagram,
    decompose_skew,
    nw_labeling,
    outer_product,
    parse_skew,
    render,
    render_labels,
    render_plain,
    schubert_product,
    translate,
)
from skewchar import cli, durfeemax, equality, extremal, lr, ribbons
from skewchar.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STRUCTURAL,
    EXIT_TOO_LARGE,
    EXIT_UNEQUAL,
    EXIT_USAGE,
    EXIT_VERIFY,
    EXIT_WRITE,
    UsageError,
    parse_args,
    run,
)

from skewchar.partitions import MAX_PARTS, format_partition, parse_partition

from helpers import (
    LABEL_SYMBOLS,
    P,
    SD,
    flood_fill_profiles,
    partitions_of_weight_in_box,
    random_partition,
    random_skew,
)

EXAMPLE_GRID_A = (
    ":::::11111\n"
    ":::::12222\n"
    ":::::123\n"
    ":::::123\n"
    "11111123\n"
    "12222223\n"
    "12333\n"
    "12344\n"
)


class TestRender:
    def test_plain_goldens(self):
        assert render_plain(SD((2, 2), (1,))) == ":#\n##\n"
        assert render_plain(SD((3, 1), (1,))) == ":##\n#\n"

    def test_labels_golden(self):
        assert render_labels(SD((10, 10, 8, 8, 8, 8, 5, 5), (5, 5, 5, 5))) == EXAMPLE_GRID_A

    def test_legend_for_two_digit_labels(self):
        text = render_labels(SkewDiagram(Partition([10] * 10)))
        assert "a = 10" in text
        assert text.splitlines()[9].endswith("a")
        lines = render_labels(SkewDiagram(Partition([61] * 61))).splitlines()
        assert lines[60] == LABEL_SYMBOLS
        assert lines[-1] == "Z = 61" and len(lines) == 61 + 52

    @pytest.mark.parametrize(
        "argv",
        [["ribbons", "62^62"], ["ribbons", "62^62", "--json"], ["render", "62^62", "--labels"]],
        ids=["ribbons", "json", "render"],
    )
    def test_more_layers_than_symbols_draw_decimal_cells(self, capsys, argv):
        assert cli.main(argv) == EXIT_OK
        out = capsys.readouterr().out
        grid = json.loads(out)["grid"] if "--json" in argv else out.splitlines()[:62]
        cells = [[line[k : k + 2] for k in range(0, len(line), 3)] for line in grid]
        assert [" ".join(row) for row in cells] == grid
        labels = {(i, j): int(x) for i, row in enumerate(cells, 1) for j, x in enumerate(row, 1)}
        assert labels == flood_fill_profiles(SD([62] * 62))[0]

    def test_decimal_cells_keep_inner_boxes_aligned(self):
        a = SD([64] * 64, [3, 1])
        grid = render_labels(a).splitlines()
        cells = [[line[k : k + 2] for k in range(0, len(line), 3)] for line in grid]
        assert [" ".join(row) for row in cells] == grid
        assert [row.count(" :") for row in cells] == [3, 1] + [0] * 62
        labels = {
            (i, j): int(x) for i, row in enumerate(cells, 1) for j, x in enumerate(row, 1) if x != " :"
        }
        assert labels == flood_fill_profiles(a)[0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            render(SD((1,)), "fancy")

    def test_labels_need_no_layer_profiles(self, monkeypatch):
        # one symbol per label, a legend, decimal cells, and no box at all
        texts = ["10^2,8^4,5^2 / 5^4", "10^10", "64^64/3,1", "3,1/3,1"]
        expected = [render_labels(parse_skew(text)) for text in texts]

        def refuse(a):
            raise AssertionError("layer profiles computed")

        monkeypatch.setattr(ribbons, "nw_layers", refuse)
        for text, grid in zip(texts, expected):
            assert run(parse_args(["render", text, "--labels"])) == (EXIT_OK, grid)
        assert expected[0] == EXAMPLE_GRID_A


class TestParse:
    def test_maxhook_example(self):
        cmd = parse_args(["maxhook", "8^2,7,4,3^2 / 4,3,2"])
        assert cmd.verb == "maxhook"
        assert cmd.diagrams[0] == SD((8, 8, 7, 4, 3, 3), (4, 3, 2))

    def test_schubert_box(self):
        cmd = parse_args(["schubert", "1", "1", "--box", "1,2"])
        assert cmd.partitions == [P(1), P(1)] and cmd.box == (1, 2)

    def test_bad_verb(self):
        with pytest.raises(UsageError):
            parse_args(["frobnicate", "1"])

    def test_bad_box(self):
        # str.isdigit accepts '²', which int() refuses; int() refuses 5 000 digits too
        for box in ("1;2", "²,1", "1,2,3", f"{'9' * 5000},1", f"1,{'9' * 5000}"):
            with pytest.raises(UsageError, match="^--box expects K,L with positive integers"):
                parse_args(["schubert", "1", "1", "--box", box])

    def test_bad_token_is_usage(self):
        with pytest.raises(UsageError):
            parse_args(["decompose", "2,x"])

    def test_consecutive_parses_share_no_flags(self):
        first = parse_args(["ribbons", "3,2", "--strip", "1", "--json"])
        assert (first.strip, first.json_out) == (1, True)
        second = parse_args(["ribbons", "3,2"])
        assert (second.strip, second.json_out) == (0, False)
        third = parse_args(["schubert", "2", "1", "--box", "2,2", "--json"])
        assert third.box == (2, 2) and third.json_out
        fourth = parse_args(["product", "2", "1"])
        assert fourth.box is None and not fourth.json_out and fourth.strip == 0
        with pytest.raises(UsageError):
            parse_args(["schubert", "2", "1"])
        with pytest.raises(UsageError):
            parse_args(["decompose", "2,1", "--strip", "1"])
        assert parse_args(["decompose", "2,1"]).verb == "decompose"

    def test_bad_strip_is_domain_error(self):
        with pytest.raises(ValueError) as err:
            parse_args(["maxhook", "8^2,7,4,3^2/4,3,2", "--strip", "4"])
        assert not isinstance(err.value, UsageError)
        assert "cannot strip 4 ribbons from 3 layers" in str(err.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "2,1", "--max-boxes", "-1"],
            ["decompose", "2,1", "--max-boxes", "-1", "--verify"],
            ["ribbons", "2,1", "--strip", "-1"],
        ],
        ids=["max-boxes", "max-boxes-verify", "strip"],
    )
    def test_negative_count_is_usage_error(self, capsys, argv):
        assert cli.main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {argv[2]} must not be negative, got -1\n"

    def test_verb_arguments_are_pinned(self):
        # each verb's arguments in usage order, as the built parser holds them:
        # (option strings, dest, required, default, metavar)
        diagram, a, b = (((), name, True, None, None) for name in ("diagram", "a", "b"))
        alpha, beta = (((), name, True, None, None) for name in ("alpha", "beta"))
        json_out = (("--json",), "json_out", False, False, None)
        verify = (("--verify",), "verify", False, False, None)
        max_boxes = (("--max-boxes",), "max_boxes", False, 30, "N")
        strip = (("--strip",), "strip", False, 0, "T")
        exhaustive = (("--exhaustive",), "exhaustive", False, False, None)
        oracle = [json_out, verify, max_boxes]
        expected = {
            "decompose": [diagram, *oracle],
            "product": [alpha, beta, *oracle],
            "schubert": [alpha, beta, (("--box",), "box", True, None, "K,L"), *oracle],
            "ribbons": [diagram, json_out, verify, strip],
            "maxhook": [diagram, *oracle, strip],
            "durfee": [diagram, *oracle, exhaustive],
            "durfee-product": [alpha, beta, *oracle, exhaustive],
            "eqcheck": [a, b, json_out, (("--full",), "full", False, False, None)],
            "render": [diagram, (("--labels",), "labels", False, False, None)],
        }
        parser = cli._build_parser()
        (verbs,) = [x for x in parser._actions if isinstance(x, argparse._SubParsersAction)]
        got = {
            verb: [
                (tuple(x.option_strings), x.dest, x.required, x.default, x.metavar)
                for x in sub._actions
                if not isinstance(x, argparse._HelpAction)
            ]
            for verb, sub in verbs.choices.items()
        }
        assert got == expected
        assert list(got) == list(expected)

    def test_eqcheck_has_no_oracle_flags(self):
        for flags in (["--verify"], ["--max-boxes", "5"]):
            with pytest.raises(UsageError):
                parse_args(["eqcheck", "2,1", "2,1", *flags])
            assert cli.main(["eqcheck", "2,1", "2,1", *flags]) == EXIT_USAGE

    def test_domain_error_is_not_usage(self):
        with pytest.raises(ValueError) as err:
            parse_args(["decompose", "2,2 / 3"])
        assert not isinstance(err.value, UsageError)
        assert "inner not contained in outer" in str(err.value)


STAIRCASE_11_4 = SD(range(11, 0, -1), range(4, 0, -1))


@pytest.fixture(scope="module")
def writer_sums():
    """Character sums that test the sum writers: random ones, edge cases, and
    sums of one term either side of a chunk, and more than five chunks."""
    rng = random.Random(31)
    sums = [
        CharacterSum(0, {}),
        CharacterSum(0, {Partition(): 1}),
        decompose_skew(SD((2, 1), (2, 1))),
        schubert_product(P(2), P(2), 1, 1),
    ]
    for _ in range(20):
        sums.append(decompose_skew(random_skew(rng, 6, 6, 12)))
        alpha, beta = random_partition(rng, 4, 3), random_partition(rng, 4, 3)
        sums.append(outer_product(alpha, beta))
        sums.append(schubert_product(alpha, beta, rng.randint(1, 6), rng.randint(1, 6)))
    disjoint = lambda n: SD(range(n, 0, -1), range(n - 1, 0, -1))
    sums += [
        decompose_skew(SD([1] * 25, ())),
        decompose_skew(disjoint(12)),
        decompose_skew(disjoint(25)),
        decompose_skew(SD((), ())),
        decompose_skew(SD((8, 7, 6, 5, 4, 3, 2, 1), (3, 2, 1))),
        outer_product(P(130, 4), P(3, 1)),
        decompose_skew(SD((250, 120, 3), (100, 2))),
        decompose_skew(STAIRCASE_11_4),
    ]
    # the 1 575 partitions of 24, with multiplicities up to 10^6
    of_24 = list(partitions_of_weight_in_box(24, 24, 24))
    for n in (cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1):
        sums.append(CharacterSum(24, {nu: rng.randint(1, 10**6) for nu in rng.sample(of_24, n)}))
    return sums


def _with_layer(labeling, index, **change):
    """The labeling with one layer profile changed."""
    return dataclasses.replace(labeling, profiles=_changed(labeling.profiles, index, **change))


def _changed(profiles, index, **change):
    """The profiles with the one at `index` changed."""
    profiles = list(profiles)
    profiles[index] = dataclasses.replace(profiles[index], **change)
    return tuple(profiles)


class TestRun:
    def test_decompose_json(self):
        code, text = run(parse_args(["decompose", "2,2/1", "--json"]))
        assert code == EXIT_OK
        assert json.loads(text) == {
            "weight": 3,
            "terms": [{"partition": [2, 1], "mult": 1}],
        }
        assert text == (
            '{\n  "weight": 3,\n  "terms": [\n    {\n      "partition": [\n'
            '        2,\n        1\n      ],\n      "mult": 1\n    }\n  ]\n}\n'
        )

    def test_character_sum_json_matches_json_module(self, writer_sums):
        assert {len(cs) for cs in writer_sums} >= {cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1}
        assert max(map(len, writer_sums)) > 5_000
        assert any(cs.total_multiplicity() > len(cs) for cs in writer_sums)
        lengths = {nu.length for cs in writer_sums for nu in cs.support()}
        assert set(range(26)) <= lengths
        assert max(nu[0] for cs in writer_sums for nu in cs.support()) >= 100
        assert max(m for cs in writer_sums for _, m in cs.items()) >= 1000
        for cs in writer_sums:
            assert cli._character_sum_json(cs) == json.dumps(cs.to_json_dict(), indent=2) + "\n"
            assert CharacterSum(cs.weight, dict(cs.items())) == cs
            assert cs.support() == sorted(cs.support(), reverse=True)

    def test_character_sum_text_matches_per_term_lines(self, writer_sums):
        for cs in writer_sums:
            lines = [f"weight {cs.weight}, {len(cs)} terms"]
            lines.extend(f"  [{format_partition(nu)}]  {mult}" for nu, mult in cs.items())
            assert cli._character_sum_text(cs) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("writer", ["_character_sum_json", "_character_sum_text"])
    def test_sum_writer_holds_no_string_per_term(self, writer):
        # 5 027 terms: one string per term held at once, then the whole text
        # copied again, cost 3.45 times the text for JSON, 7.6 times for plain
        # text; chunk by chunk, 2.0 times
        cs = decompose_skew(STAIRCASE_11_4)
        write = getattr(cli, writer)
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            text = write(cs)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ribbons", "10^2,8^4,5^2 / 5^4", "--strip", "1"],
            ["ribbons", ""],
            ["maxhook", "8^2,7,4,3^2 / 4,3,2"],
            ["durfee", "3,3,2/1,1", "--exhaustive"],
            ["durfee-product", "5^2,3^2,2", "4,3,1^2"],
            ["eqcheck", "10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4", "--full"],
            ["eqcheck", "2,1", "2,1", "--full"],
            ["eqcheck", "2", "1,1"],
            ["eqcheck", "", ""],
        ],
        ids=[
            "ribbons",
            "ribbons-empty",
            "maxhook",
            "durfee",
            "durfee-product",
            "eqcheck-discrepancy",
            "eqcheck-equal",
            "eqcheck-structural",
            "eqcheck-null",
        ],
    )
    def test_report_json_matches_json_module(self, monkeypatch, argv):
        payloads = []

        def kept(obj):
            payloads.append(obj)
            return json_text(obj)

        json_text = cli._json_text
        monkeypatch.setattr(cli, "_json_text", kept)
        code, text = run(parse_args([*argv, "--json"]))
        assert code in (EXIT_OK, EXIT_UNEQUAL, EXIT_STRUCTURAL)
        [payload] = payloads
        assert text == json.dumps(payload, indent=2) + "\n"
        if argv[0] == "eqcheck":
            full = payload["full_check"]
            assert (full is None) == ("--full" not in argv)
            if code == EXIT_UNEQUAL:
                assert full["first_discrepancy"]["partition"] == [10, 10, 8, 7, 4, 3]

    def test_json_writer_matches_json_module_on_every_value_kind(self):
        values = [
            None,
            True,
            0,
            -7,
            10**30,
            "",
            'a "quoted" \\ line\n\tend',
            "\u00e9\u2014\U0001d11e\x00",
            [],
            {},
            [[]],
            [{}],
            {"": []},
            [1, -2, 3],
            [True, 1, False],
            [1, None],
            ["x", [1, [2, []]], {"k": {"j": None}}],
            {"levels": [{"level": 0, "ok": False}], "verdict": {"fail": {"at": 2}}, "n": None},
        ]
        for value in values:
            assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"
        with pytest.raises(TypeError):
            cli._json_text({"x": 1.5})

    def test_json_makes_no_partition_per_term(self, monkeypatch):
        def refused(cls, parts):
            raise AssertionError("a term was wrapped in a Partition")

        monkeypatch.setattr(Partition, "_trusted", classmethod(refused))
        code, text = run(parse_args(["decompose", "--json", "7,6,5,4,3,2,1/3,2,1"]))
        assert code == EXIT_OK and text.count('"mult"') == 102
        # the output as written when every term went through a Partition
        digest = "27693f3c34d20ee153fa6e174c50ed2bdb95b96ec9bfeb9f0c33d0041f929ec0"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_product_longer_than_recursion_limit(self):
        code, text = run(parse_args(["product", "1000", "1000"]))
        assert code == EXIT_OK
        assert text.startswith("weight 2000, 1001 terms\n  [2000]  1\n")

    def test_product_of_a_long_row_and_column(self):
        # a per-candidate product would list about p(1000) shapes for 2 terms
        start = time.perf_counter()
        result = run(parse_args(["product", "1000", "1^1000"]))
        assert time.perf_counter() - start < 5
        assert result == (EXIT_OK, "weight 2000, 2 terms\n  [1001,1^999]  1\n  [1000,1^1000]  1\n")

    def test_long_rows(self):
        for text, n in (("1200", 1200), ("1500/300", 1200)):
            code, out = run(parse_args(["decompose", text]))
            assert code == EXIT_OK
            assert out == f"weight {n}, 1 terms\n  [{n}]  1\n"

    def test_ribbons_output(self):
        code, text = run(parse_args(["ribbons", "10^2,8^4,5^2 / 5^4"]))
        assert code == EXIT_OK
        assert text.startswith(EXAMPLE_GRID_A)
        assert "pi_nw = 17,15,8,2" in text

    def test_ribbons_strip(self):
        code, text = run(parse_args(["ribbons", "8^2,7,4,3^2/4,3,2", "--strip", "1"]))
        assert code == EXIT_OK
        assert "pi_nw = 9,2" in text

    def test_maxhook_json_witnesses(self):
        code, text = run(parse_args(["maxhook", "8^2,7,4,3^2 / 4,3,2", "--json"]))
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["hl"] == [13, 9, 2]
        assert payload["gamma"] == [8, 6, 3, 2, 1, 1]
        assert [w["mult"] for w in payload["witnesses"]] == [1, 1, 2, 2, 1, 1]
        assert payload["distinct"] == 6

    def test_maxhook_verify_ok(self):
        code, _ = run(parse_args(["maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify"]))
        assert code == EXIT_OK

    def test_verify_guard(self):
        code, text = run(parse_args(["maxhook", "10^2,8^4,5^2 / 5^4", "--verify"]))
        assert code == EXIT_TOO_LARGE
        code, _ = run(
            parse_args(["maxhook", "10^2,8^4,5^2 / 5^4", "--verify", "--max-boxes", "50"])
        )
        assert code == EXIT_OK
        # 25 boxes are left after the first ribbon is stripped
        argv = ["maxhook", "10^2,8^4,5^2 / 5^4", "--strip", "1", "--verify", "--max-boxes", "25"]
        assert run(parse_args(argv))[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            # every layer of two disjoint 30 x 30 squares splits into 2 ribbons
            ["maxhook", "60^30,30^30/30^30"],
            ["maxhook", "60^30,30^30/30^30", "--json"],
            ["durfee-product", "30^30", "30^30"],
            ["durfee", "60^30,30^30/30^30"],
        ],
    )
    def test_witness_list_refused_before_listing(self, argv):
        start = time.perf_counter()
        result = run(parse_args(argv))
        assert time.perf_counter() - start < 2
        assert result == (
            EXIT_TOO_LARGE,
            f"refusing witness list: {2**30} witnesses, more than {extremal.MAX_WITNESSES}",
        )

    def test_witness_limit(self, monkeypatch):
        argv = ["maxhook", "8^2,7,4,3^2 / 4,3,2"]
        monkeypatch.setattr(extremal, "MAX_WITNESSES", 6)
        assert run(parse_args(argv))[0] == EXIT_OK
        monkeypatch.setattr(extremal, "MAX_WITNESSES", 5)
        assert run(parse_args(argv)) == (
            EXIT_TOO_LARGE,
            "refusing witness list: 6 witnesses, more than 5",
        )
        # the full expansion lists no max-hl witnesses, so the limit leaves it alone
        monkeypatch.setattr(extremal, "MAX_WITNESSES", 0)
        for argv in (["durfee-product", "2,1", "2,1"], ["durfee", "3,3,2/1,1"]):
            assert run(parse_args(argv))[0] == EXIT_TOO_LARGE
            assert run(parse_args(argv + ["--exhaustive"]))[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["decompose", "13,12,11,10,9,8,7,6,5,4,3,2,1/6,5,4,3,2,1", "--verify"], 70),
            (["product", "6,5,4,3,2,1", "5,4,3,2,1", "--verify"], 36),
            (["schubert", "6,5,4,3,2,1", "5,4,3,2,1", "--box", "4,4", "--verify"], 36),
            (["maxhook", "10^2,8^4,5^2 / 5^4", "--verify"], 42),
            (["durfee", "7^7/3,3", "--verify"], 43),
            (["durfee", "6^6/3,3", "--exhaustive", "--max-boxes", "29"], 30),
            (["durfee-product", "6,5,4,3,2,1", "5,4,3,2,1", "--verify"], 36),
            (["durfee-product", "6,5,4,3,2,1", "5,4,3,2,1", "--exhaustive"], 36),
            # the guard counts the boxes left after --strip
            (["maxhook", "10^2,8^4,5^2 / 5^4", "--strip", "1", "--verify", "--max-boxes", "24"], 25),
        ],
    )
    def test_oracle_refused_before_any_work(self, monkeypatch, argv, size):
        def engine(*args, **kwargs):
            raise AssertionError("the refused run computed something")

        for module, name in (
            (lr, "decompose_skew"),
            (lr, "outer_product"),
            (lr, "schubert_product"),
            (extremal, "max_hl_characters"),
            (lr, "brute_decompose"),
            (durfeemax, "max_durfee_special_skew"),
            (durfeemax, "max_durfee_product"),
        ):
            monkeypatch.setattr(module, name, engine)
        cmd = parse_args(argv)
        assert run(cmd) == (
            EXIT_TOO_LARGE,
            f"refusing oracle run on {size} boxes (limit {cmd.max_boxes}; raise with --max-boxes)",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "6,5,4,3,2,1", "5,4,3,2,1", "--verify"],
            ["schubert", "6,5,4,3,2,1", "5,4,3,2,1", "--box", "4,4", "--verify"],
            ["durfee-product", "6,5,4,3,2,1", "5,4,3,2,1", "--verify"],
            ["durfee-product", "6,5,4,3,2,1", "5,4,3,2,1", "--exhaustive"],
        ],
    )
    def test_refused_product_builds_no_diagram(self, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a diagram was built to count its boxes")

        monkeypatch.setattr(cli, "embed_disjoint", refuse)
        assert run(parse_args(argv)) == (
            EXIT_TOO_LARGE,
            "refusing oracle run on 36 boxes (limit 30; raise with --max-boxes)",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "4^2,2^2,1^2 / 1^4"],
            ["product", "3,2", "2,1"],
            ["schubert", "3,2", "2,1", "--box", "4,3"],
            ["ribbons", "10^2,8^4,5^2 / 5^4"],
            ["maxhook", "8^2,7,4,3^2 / 4,3,2"],
            ["durfee", "3,3,2/1,1"],
            ["durfee", "3,3,2/1,1", "--exhaustive"],
            ["durfee-product", "2,1", "2,1"],
            ["durfee-product", "2,1", "2,1", "--exhaustive"],
        ],
    )
    def test_verify_runs_the_oracle_at_most_once(self, monkeypatch, argv):
        calls = []

        def counting(a, *args):
            calls.append(a)
            return original(a, *args)

        original = lr.brute_decompose
        monkeypatch.setattr(lr, "brute_decompose", counting)
        assert run(parse_args(argv + ["--verify"]))[0] == EXIT_OK
        assert len(calls) == (argv[0] != "ribbons")

    def test_maxhook_verify_reads_each_term_once(self, monkeypatch):
        argv = ["maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify"]
        calls = []

        def counting(nu):
            calls.append(nu)
            return original(nu)

        original = cli.principal_hook_lengths
        monkeypatch.setattr(cli, "principal_hook_lengths", counting)
        cmd = parse_args(argv)
        assert run(cmd)[0] == EXIT_OK
        assert calls == list(lr.brute_decompose(cmd.diagrams[0]))

    def test_verify_mismatch_exit(self, monkeypatch):
        cmd = parse_args(["maxhook", "2,1", "--verify"])
        monkeypatch.setattr(lr, "brute_decompose", lambda a: CharacterSum(3, {P(3): 1}))
        code, text = run(cmd)
        assert code == EXIT_VERIFY
        assert "verification failed" in text

    def test_verify_catches_a_wrong_durfee_maximum(self, monkeypatch):
        original = durfeemax.max_durfee_product

        def raised(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, max_durfee=report.max_durfee + 1)

        argv = ["durfee-product", "5^2,3^2,2", "4,3,1^2", "--verify"]
        code, text = run(parse_args(argv))
        assert code == EXIT_OK and "max durfee = 4\n" in text
        monkeypatch.setattr(durfeemax, "max_durfee_product", raised)
        assert run(parse_args(argv)) == (EXIT_VERIFY, "verification failed: oracle Durfee maximum is 4")

    @pytest.mark.parametrize(
        "argv, engine",
        [
            (["decompose", "4^2,2^2,1^2 / 1^4"], "decompose_skew"),
            (["product", "3,2", "2,1"], "outer_product"),
            (["schubert", "3,2", "2,1", "--box", "4,3"], "schubert_product"),
            (["maxhook", "8^2,7,4,3^2 / 4,3,2"], "max_hl_characters"),
            (["durfee", "3,3,2/1,1", "--exhaustive"], "max_durfee_special_skew"),
            (["durfee-product", "2,1", "2,1", "--exhaustive"], "max_durfee_product"),
        ],
    )
    def test_verify_is_independent_of_the_engine(self, monkeypatch, argv, engine):
        # the engine loses its last term or witness; the oracle must not
        argv = argv + ["--verify"]
        assert run(parse_args(argv))[0] == EXIT_OK
        original = getattr(skewchar, engine)
        module = sys.modules[original.__module__]

        def dropping(*args, **kwargs):
            answer = original(*args, **kwargs)
            if isinstance(answer, CharacterSum):
                return CharacterSum(answer.weight, dict(answer.items()[:-1]))
            return dataclasses.replace(answer, witnesses=answer.witnesses[:-1])

        monkeypatch.setattr(module, engine, dropping)
        code, text = run(parse_args(argv))
        assert code == EXIT_VERIFY and text.startswith("verification failed: ")

    def test_oracle_stops_at_its_filling_limit(self):
        # 30 boxes that share no row or column pass --max-boxes, but have as
        # many LR fillings as S_30 has involutions
        delta = lambda n: ",".join(str(i) for i in range(n, 0, -1))
        argv = ["decompose", f"{delta(30)}/{delta(29)}", "--verify"]
        assert run(parse_args(argv)) == (
            EXIT_TOO_LARGE,
            f"refusing oracle run: more than {lr.MAX_FILLINGS} LR fillings",
        )

    @pytest.mark.parametrize(
        "argv, fillings",
        [
            (["decompose", "4^2,2^2,1^2 / 1^4", "--verify"], 6),
            (["product", "3,2", "2,1", "--verify"], 10),
            (["schubert", "3,2", "2,1", "--box", "4,3", "--verify"], 10),
            (["maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify"], 324),
            (["durfee", "3,3,2/1,1", "--verify"], 2),
            (["durfee-product", "5^2,3^2,2", "4,3,1^2", "--verify"], 1162),
            # the exhaustive list is the oracle's own expansion, under the same limit
            (["durfee-product", "5^2,3^2,2", "4,3,1^2", "--exhaustive"], 1162),
        ],
    )
    def test_every_verify_keeps_the_filling_limit(self, monkeypatch, argv, fillings):
        monkeypatch.setattr(lr, "MAX_FILLINGS", fillings)
        assert run(parse_args(argv))[0] == EXIT_OK
        monkeypatch.setattr(lr, "MAX_FILLINGS", fillings - 1)
        assert run(parse_args(argv)) == (
            EXIT_TOO_LARGE,
            f"refusing oracle run: more than {fillings - 1} LR fillings",
        )

    @pytest.mark.parametrize(
        "witnesses",
        [(), (durfeemax.DurfeeWitness(P(4, 1, 1), 1),)],
        ids=["none", "not-maximal"],
    )
    def test_certified_witnesses_must_be_oracle_attainers(self, monkeypatch, witnesses):
        # [4,1,1] has multiplicity 1 in [2,1]x[2,1] but Durfee size 1, not 2
        assert outer_product(P(2, 1), P(2, 1))[P(4, 1, 1)] == 1
        original = durfeemax.max_durfee_product
        monkeypatch.setattr(
            durfeemax,
            "max_durfee_product",
            lambda *args, **kwargs: dataclasses.replace(original(*args, **kwargs), witnesses=witnesses),
        )
        assert run(parse_args(["durfee-product", "2,1", "2,1", "--verify"])) == (
            EXIT_VERIFY,
            "verification failed: the witnesses are not a nonempty set of oracle attainers"
            " with their multiplicities",
        )

    @pytest.mark.parametrize(
        "field, value", [("gamma", P(1)), ("distinct_count", 99)], ids=["gamma", "distinct"]
    )
    def test_maxhook_verify_checks_gamma_and_distinct_count(self, monkeypatch, field, value):
        argv = ["maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify"]
        assert run(parse_args(argv))[0] == EXIT_OK
        original = extremal.max_hl_characters
        monkeypatch.setattr(
            extremal,
            "max_hl_characters",
            lambda a: dataclasses.replace(original(a), **{field: value}),
        )
        assert run(parse_args(argv)) == (
            EXIT_VERIFY,
            "verification failed: construction disagrees with oracle",
        )

    @pytest.mark.parametrize(
        "broken, problem",
        [
            (lambda lab: _with_layer(lab, 2, k=3), "the layer profiles disagree"),
            (lambda lab: _with_layer(lab, 0, arm=0), "the layer profiles disagree"),
            (lambda lab: dataclasses.replace(lab, pi_nw=P(17, 15, 9, 1)), "pi_nw disagrees"),
            # the first box of row 1 is (1, 6)
            (
                lambda lab: dataclasses.replace(lab, rows=[[2, *lab.rows[0][1:]], *lab.rows[1:]]),
                "label recurrence broken at (1, 6)",
            ),
            (
                lambda lab: dataclasses.replace(lab, rows=[*lab.rows[:-1], lab.rows[-1][:-1]]),
                "the labels do not cover the diagram",
            ),
            (
                lambda lab: nw_labeling(translate(lab.diagram, down=1)),
                "the labels do not cover the diagram",
            ),
        ],
        ids=["k", "arm", "pi_nw", "recurrence", "coverage", "another-diagram"],
    )
    def test_ribbons_verify_rederives_the_layers(self, monkeypatch, broken, problem):
        argv = ["ribbons", "10^2,8^4,5^2 / 5^4", "--verify"]
        assert run(parse_args(argv))[0] == EXIT_OK
        original = ribbons.nw_labeling
        monkeypatch.setattr(ribbons, "nw_labeling", lambda a: broken(original(a)))
        code, text = run(parse_args(argv))
        assert code == EXIT_VERIFY
        assert text.startswith(f"verification failed: {problem}")

    def test_ribbons_verify_passes_on_random_diagrams(self):
        rng = random.Random(41)
        for _ in range(100):
            text = str(random_skew(rng, max_boxes=40))
            assert run(parse_args(["ribbons", text, "--verify"]))[0] == EXIT_OK, text

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--verify"]], ids=["text", "json", "verify"])
    def test_ribbons_labels_once(self, monkeypatch, flags):
        calls = []

        def counting(a):
            calls.append(a)
            return original(a)

        original = ribbons.nw_labeling
        monkeypatch.setattr(ribbons, "nw_labeling", counting)
        cmd = parse_args(["ribbons", "10^2,8^4,5^2 / 5^4", *flags])
        assert run(cmd)[0] == EXIT_OK
        assert calls == [cmd.diagrams[0]]

    def test_exhaustive_verify_needs_every_attainer(self, monkeypatch):
        original = durfeemax.brute_decompose

        def dropping(*args):
            full = original(*args)
            return CharacterSum(full.weight, {nu: m for nu, m in full.items() if nu != P(2, 2, 1, 1)})

        monkeypatch.setattr(durfeemax, "brute_decompose", dropping)
        argv = ["durfee-product", "2,1", "2,1", "--exhaustive"]
        code, text = run(parse_args(argv))
        assert code == EXIT_OK and "[2^2,1^2]" not in text
        assert run(parse_args(argv + ["--verify"])) == (
            EXIT_VERIFY,
            "verification failed: the exhaustive witnesses are not the oracle's 5 attainers",
        )

    def test_durfee_product_golden(self):
        code, text = run(parse_args(["durfee-product", "5^2,3^2,2", "4,3,1^2", "--json"]))
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["m"] == 9 and payload["max_durfee"] == 4
        assert payload["witnesses"] == [
            {"nu_inverse": [6, 6, 6, 5, 4], "mult": 1},
            {"nu_inverse": [6, 6, 5, 5, 4, 1], "mult": 3},
            {"nu_inverse": [6, 5, 5, 5, 4, 2], "mult": 3},
            {"nu_inverse": [5, 5, 5, 5, 4, 3], "mult": 1},
        ]
        assert payload["exhaustive"] is False

    def test_durfee_special_verify(self):
        code, _ = run(parse_args(["durfee", "3,3,2/1,1", "--verify"]))
        assert code == EXIT_OK

    def test_durfee_exhaustive(self):
        code, text = run(parse_args(["durfee", "3,3,2/1,1", "--exhaustive", "--json"]))
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["exhaustive"] is True
        assert all(w["mult"] >= 1 for w in payload["witnesses"])

    def test_maxhook_strip(self):
        code, text = run(parse_args(["maxhook", "8^2,7,4,3^2/4,3,2", "--strip", "1", "--json"]))
        assert code == EXIT_OK
        assert json.loads(text)["hl"] == [9, 2]

    def test_durfee_precondition(self):
        code, text = run(parse_args(["durfee", "3,3/1"]))
        assert code == EXIT_PRECONDITION
        assert "outer width" in text

    def test_eqcheck_exit_codes(self):
        a, b = "10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4"
        code, text = run(parse_args(["eqcheck", a, b]))
        assert code == EXIT_OK and "structural: pass" in text
        code, text = run(parse_args(["eqcheck", a, b, "--full"]))
        assert code == EXIT_UNEQUAL
        assert "first discrepancy: [10^2,8,7,4,3]  A 0  B 1" in text
        code, text = run(parse_args(["eqcheck", "2", "1,1"]))
        assert code == EXIT_STRUCTURAL
        code, text = run(parse_args(["eqcheck", "2,1", "2,1", "--full"]))
        assert code == EXIT_OK and "full: equal" in text
        # connected, not half-turns of each other: equal only by their expansions
        code, text = run(parse_args(["eqcheck", "4,3,2,1/2", "4,3,2,1/1^2", "--full"]))
        assert code == EXIT_OK and text.endswith("structural: pass\nfull: equal\n")

    def test_eqcheck_full_on_copies_needs_no_expansion(self, monkeypatch):
        def no_expansion(_):
            raise AssertionError("full expansion of a copy")

        monkeypatch.setattr(equality, "decompose_skew", no_expansion)
        a = "13,12,11,10,9,8,7,6,5,4,3,2,1/6,5,4,3,2,1"
        b = "14^2,13,12,11,10,9,8,7,6,5,4,3,2/14,7,6,5,4,3,2,1^7"  # a, moved down and right
        code, structural = run(parse_args(["eqcheck", a, b]))
        assert code == EXIT_OK
        code, text = run(parse_args(["eqcheck", a, b, "--full"]))
        assert (code, text) == (EXIT_OK, structural + "full: equal\n")
        code, text = run(parse_args(["eqcheck", a, a, "--full", "--json"]))
        assert code == EXIT_OK
        assert json.loads(text)["full_check"] == {"equal": True, "first_discrepancy": None}

    def test_render_takes_no_json(self, capsys):
        # render draws the diagram; --json is not one of its flags
        assert cli.main(["render", "2,2/1", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: --json\n")

    def test_render_modes(self):
        code, text = run(parse_args(["render", "3,1/1"]))
        assert (code, text) == (EXIT_OK, ":##\n#\n")
        code, text = run(parse_args(["render", "2,2/1", "--labels"]))
        assert (code, text) == (EXIT_OK, ":1\n11\n")

    def test_product_and_schubert(self):
        code, text = run(parse_args(["product", "1", "2,2", "--verify"]))
        assert code == EXIT_OK
        assert "[3,2]  1" in text and "[2^2,1]  1" in text
        code, text = run(parse_args(["schubert", "2", "2", "--box", "2,2", "--json"]))
        assert code == EXIT_OK
        assert json.loads(text)["terms"] == [{"partition": [2, 2], "mult": 1}]

    def test_byte_determinism(self):
        for argv in (
            ["decompose", "4^2,2^2,1^2 / 1^4", "--json"],
            ["maxhook", "8^2,7,4,3^2/4,3,2"],
            ["eqcheck", "10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4", "--full", "--json"],
        ):
            first = run(parse_args(argv))
            second = run(parse_args(argv))
            assert first == second


def _readme_cli_examples() -> list[list[str]]:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("skewchar ")
    ]


class TestReadmeExamples:
    def test_every_verb_has_an_example(self):
        assert sorted(argv[0] for argv in _readme_cli_examples()) == sorted(cli._HANDLERS)

    @pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
    def test_documented_exit_code(self, capsys, argv):
        expected = EXIT_UNEQUAL if argv[0] == "eqcheck" and "--full" in argv else EXIT_OK
        assert cli.main(argv) == expected
        out = capsys.readouterr().out
        try:
            parse_args(argv + ["--verify"])
        except UsageError:
            return  # the verb takes no --verify
        assert cli.main(argv + ["--verify"]) == expected
        assert capsys.readouterr().out == out


class TestMainEntry:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewchar", "decompose", "2,2/1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "[2,1]  1" in proc.stdout

    def test_part_count_limit_is_usage_error(self, capsys):
        assert cli.main(["render", f"1^{MAX_PARTS + 1}"]) == EXIT_USAGE
        assert f"at most {MAX_PARTS} parts" in capsys.readouterr().err
        for verb in ("decompose", "ribbons", "render", "maxhook"):
            assert cli.main([verb, "1000000000"]) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: a part may be at most {MAX_PARTS}\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["decompose", "1,2^9999"], EXIT_PRECONDITION, "partition parts must be weakly"),
            (["decompose", "0" * 20_000 + "x"], EXIT_USAGE, "bad partition token"),
            (["schubert", "1", "1", "--box", "7" * 3_000 + ",1"], EXIT_USAGE, "--box expects K,L"),
            (["ribbons", "2,1", "--strip", "9" * 4_000], EXIT_USAGE, "argument --strip: invalid"),
            (["maxhook", "2,1", "--strip", "1" * 10], EXIT_USAGE, "argument --strip: invalid"),
            (["decompose", "2,1", "--max-boxes", "9" * 5_000], EXIT_USAGE, "argument --max-boxes"),
        ],
        ids=["partition", "token", "box", "strip", "strip-ten-digits", "max-boxes"],
    )
    def test_long_inputs_are_not_echoed_whole(self, capsys, argv, code, message):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.encode()) < 200

    def test_witness_count_is_not_printed_whole(self, capsys):
        # 40 disjoint 40 x 40 squares: 40 layers of 40 ribbons, 40^40 witnesses (65 digits)
        outer = ",".join(f"{40 * i}^40" for i in range(40, 0, -1))
        inner = ",".join(f"{40 * i}^40" for i in range(39, 0, -1))
        assert cli.main(["maxhook", f"{outer}/{inner}"]) == EXIT_TOO_LARGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"refusing witness list: {str(40**40)[:60]}... witnesses, more than {extremal.MAX_WITNESSES}\n"
        )
        assert len(captured.err.encode()) < 200

    @pytest.mark.parametrize("newline", ["\n", ""], ids=["newline", "no-newline"])
    def test_large_output_is_written_in_slices(self, monkeypatch, newline):
        class Sink(io.RawIOBase):
            def writable(self):
                return True

            def write(self, b):
                written.append(len(b))
                return len(b)

        written = []
        text = "0123456789abcdef" * (1 << 17) + newline  # 2 MiB
        monkeypatch.setattr(cli, "run", lambda cmd: (EXIT_OK, text))
        stream = io.TextIOWrapper(Sink(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stream)
        parse_args(["render", "1"])  # the parser is built once, outside the measurement
        tracemalloc.start()
        try:
            assert cli.main(["render", "1"]) == EXIT_OK
            stream.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stream.close()
        assert sum(written) == len(text) + (not newline)
        # one copy of the whole text, encoded or joined with "\n", would be 2 MiB
        assert peak < len(text) // 4

    def test_usage_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewchar", "nonsense"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_USAGE

    def test_internal_error_exit(self, monkeypatch, capsys):
        def broken(a):
            raise AssertionError("northwest ribbon sizes are not weakly decreasing: [1, 2]")

        monkeypatch.setattr(ribbons, "nw_labeling", broken)
        assert cli.main(["ribbons", "2,1"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: northwest ribbon sizes are not weakly decreasing: [1, 2]\n"
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"arm": 3}, "invalid gamma: Frobenius coordinates must strictly decrease, got (3, 3)"),
            (
                {"k": 2},
                "invalid witness for choices (0, 0): "
                "Frobenius coordinates must strictly decrease, got (2, 2)",
            ),
        ],
        ids=["gamma", "witness"],
    )
    def test_maxhook_frobenius_failure_is_internal(self, monkeypatch, capsys, change, message):
        # "4,4,3/1" has layer arms (3, 2), legs (2, 1) and one ribbon per layer
        original = extremal.nw_layers

        def broken(a):
            pi, profiles = original(a)
            return pi, _changed(profiles, 1, **change)

        monkeypatch.setattr(extremal, "nw_layers", broken)
        assert cli.main(["maxhook", "4,4,3/1"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {message}\n"

    def test_precondition_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewchar", "decompose", "2,2 / 3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PRECONDITION
        assert "inner not contained in outer" in proc.stderr

    @pytest.mark.parametrize(
        "error, message",
        [
            (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
            (
                OSError(errno.ENOSPC, "No space left on device"),
                "error: cannot write output: No space left on device\n",
            ),
        ],
        ids=["closed-pipe", "full-disk"],
    )
    def test_unwritable_output_exit(self, monkeypatch, capsys, error, message):
        class FailsOnSecondWrite(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                if len(writes) == 2:
                    raise error
                return super().write(text)

        writes = []
        monkeypatch.setattr(sys, "stdout", FailsOnSecondWrite())
        # 10 rows of 7 000 boxes: more than one slice of output
        assert cli.main(["render", "7000^10"]) == EXIT_WRITE
        assert writes == [cli._WRITE_SLICE, 7001 * 10 - cli._WRITE_SLICE]
        assert capsys.readouterr() == ("", message)

    def test_closed_stdout_exit(self):
        # about 1 MB of output, more than a pipe holds: a write meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "skewchar", "render", "1000^1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_WRITE
        assert err == b""


# each verb's executed skewchar modules, and whether it imported dataclasses, in
# a fresh interpreter: a before/after diff of sys.modules, whatever `site` loads
_STARTUP = """
import contextlib, io, json, sys, types
before = set(sys.modules)
from skewchar import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
executed = [n for n, m in sys.modules.items() if n.split(".")[0] == "skewchar" and type(m) is types.ModuleType]
print(json.dumps([code, sorted(executed), "dataclasses" in set(sys.modules) - before]))
"""
_CORE = ["skewchar", "skewchar.cli", "skewchar.partitions", "skewchar.render", "skewchar.skew"]


class TestStartup:
    @pytest.mark.parametrize(
        "argv, engines",
        [
            (["render", "1"], []),
            (["render", "3,1/1"], []),
            (["decompose", "3,2/1"], ["lr"]),
            (["decompose", "3,2/1", "--verify", "--json"], ["lr"]),
            (["product", "2,1", "1"], ["lr"]),
            (["schubert", "2,1", "1", "--box", "2,2"], ["lr"]),
            (["render", "3,1/1", "--labels"], ["ribbons"]),
            (["ribbons", "3,1/1"], ["ribbons"]),
            (["maxhook", "3,1/1"], ["extremal", "ribbons"]),
        ],
        ids=lambda value: " ".join(value) if value else "core",
    )
    def test_a_verb_executes_only_its_modules(self, argv, engines):
        proc = subprocess.run([sys.executable, "-c", _STARTUP, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, executed, dataclasses_loaded = json.loads(proc.stdout)
        assert code == EXIT_OK
        assert executed == sorted(_CORE + [f"skewchar.{name}" for name in engines])
        # every report dataclass is defined in ribbons or in an engine that imports it
        if "ribbons" not in engines:
            assert not dataclasses_loaded


@st.composite
def _partition_text(draw, max_weight=12, within=None):
    """Partition text of at most max_weight boxes, mostly valid, sometimes not.

    With `within`, parts are drawn under the given parts, so the result
    usually fits inside that partition.
    """
    parts, total = [], 0
    for i in range(draw(st.integers(0, 5))):
        cap = min(6, within[i] if within is not None and i < len(within) else 6)
        p = draw(st.integers(0, cap))
        if total + p > max_weight:
            break
        parts.append(p)
        total += p
    if draw(st.integers(0, 9)):
        parts.sort(reverse=True)
        if parts and draw(st.booleans()):
            return format_partition(Partition(parts))
    return ",".join(map(str, parts))


@st.composite
def _skew_text(draw):
    outer = draw(_partition_text())
    if not draw(st.booleans()):
        return outer
    try:
        within = list(parse_partition(outer))
    except ValueError:
        within = None
    return f"{outer}/{draw(_partition_text(within=within))}"


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(cli._HANDLERS)))
    if verb in ("product", "schubert", "durfee-product"):
        argv = [verb, draw(_partition_text(max_weight=6)), draw(_partition_text(max_weight=6))]
    elif verb == "eqcheck":
        argv = [verb, draw(_skew_text()), draw(_skew_text())]
    else:
        argv = [verb, draw(_skew_text())]
    if verb == "render":
        return argv + (["--labels"] if draw(st.booleans()) else [])
    if verb == "schubert":
        argv += ["--box", f"{draw(st.integers(1, 5))},{draw(st.integers(1, 5))}"]
    flags = {
        "--json": True,
        "--verify": verb != "eqcheck",
        "--full": verb == "eqcheck",
        "--exhaustive": verb in ("durfee", "durfee-product"),
    }
    argv += [flag for flag, ok in flags.items() if ok and draw(st.booleans())]
    if verb in ("ribbons", "maxhook") and draw(st.booleans()):
        argv += ["--strip", str(draw(st.integers(0, 4)))]
    if verb not in ("ribbons", "eqcheck") and draw(st.booleans()):
        argv += ["--max-boxes", str(draw(st.integers(0, 20)))]
    return argv


class TestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(_argv())
    def test_grammar_valid_argv_exits_with_documented_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in range(8)
        assert "Traceback" not in err.getvalue()

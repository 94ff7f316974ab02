import contextlib
import dataclasses
import io
import json
import pathlib
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewchar import (
    CharacterSum,
    Partition,
    SkewDiagram,
    decompose_skew,
    outer_product,
    render,
    render_labels,
    render_plain,
    schubert_product,
)
from skewchar import cli, durfeemax, equality
from skewchar.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STRUCTURAL,
    EXIT_TOO_LARGE,
    EXIT_UNEQUAL,
    EXIT_USAGE,
    EXIT_VERIFY,
    UsageError,
    parse_args,
    run,
)

from skewchar.partitions import MAX_PARTS, format_partition, parse_partition

from helpers import P, SD, random_partition, random_skew

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

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            render(SD((1,)), "fancy")


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
        with pytest.raises(UsageError):
            parse_args(["schubert", "1", "1", "--box", "1;2"])

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

    def test_character_sum_json_matches_json_module(self):
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
        assert any(cs.total_multiplicity() > len(cs) for cs in sums)
        for cs in sums:
            assert cli._character_sum_json(cs) == json.dumps(cs.to_json_dict(), indent=2) + "\n"

    def test_product_longer_than_recursion_limit(self):
        code, text = run(parse_args(["product", "1000", "1000"]))
        assert code == EXIT_OK
        assert text.startswith("weight 2000, 1001 terms\n  [2000]  1\n")

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

        for name in (
            "decompose_skew",
            "outer_product",
            "schubert_product",
            "max_hl_characters",
            "brute_decompose",
            "max_durfee_special_skew",
            "max_durfee_product",
        ):
            monkeypatch.setattr(cli, name, engine)
        cmd = parse_args(argv)
        assert run(cmd) == (
            EXIT_TOO_LARGE,
            f"refusing oracle run on {size} boxes (limit {cmd.max_boxes}; raise with --max-boxes)",
        )

    def test_verify_mismatch_exit(self, monkeypatch):
        cmd = parse_args(["maxhook", "2,1", "--verify"])
        monkeypatch.setattr(cli, "brute_decompose", lambda a, limit: CharacterSum(3, {P(3): 1}))
        code, text = run(cmd)
        assert code == EXIT_VERIFY
        assert "verification failed" in text

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
        original = getattr(cli, engine)

        def dropping(*args, **kwargs):
            answer = original(*args, **kwargs)
            if isinstance(answer, CharacterSum):
                return CharacterSum(answer.weight, dict(answer.items()[:-1]))
            return dataclasses.replace(answer, witnesses=answer.witnesses[:-1])

        monkeypatch.setattr(cli, engine, dropping)
        code, text = run(parse_args(argv))
        assert code == EXIT_VERIFY and text.startswith("verification failed: ")

    def test_oracle_stops_at_its_filling_limit(self):
        # 30 boxes that share no row or column pass --max-boxes, but have as
        # many LR fillings as S_30 has involutions
        delta = lambda n: ",".join(str(i) for i in range(n, 0, -1))
        argv = ["decompose", f"{delta(30)}/{delta(29)}", "--verify"]
        assert run(parse_args(argv)) == (
            EXIT_TOO_LARGE,
            f"refusing oracle run: more than {cli.ORACLE_MAX_FILLINGS} LR fillings",
        )

    @pytest.mark.parametrize(
        "argv, fillings",
        [
            (["decompose", "4^2,2^2,1^2 / 1^4"], 6),
            (["product", "3,2", "2,1"], 10),
            (["schubert", "3,2", "2,1", "--box", "4,3"], 10),
            (["maxhook", "8^2,7,4,3^2 / 4,3,2"], 324),
            (["durfee", "3,3,2/1,1"], 2),
            (["durfee-product", "5^2,3^2,2", "4,3,1^2"], 1162),
        ],
    )
    def test_every_verify_keeps_the_filling_limit(self, monkeypatch, argv, fillings):
        argv = argv + ["--verify"]
        monkeypatch.setattr(cli, "ORACLE_MAX_FILLINGS", fillings)
        assert run(parse_args(argv))[0] == EXIT_OK
        monkeypatch.setattr(cli, "ORACLE_MAX_FILLINGS", fillings - 1)
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
        original = cli.max_durfee_product
        monkeypatch.setattr(
            cli,
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
        original = cli.max_hl_characters
        monkeypatch.setattr(
            cli,
            "max_hl_characters",
            lambda a: dataclasses.replace(original(a), **{field: value}),
        )
        assert run(parse_args(argv)) == (
            EXIT_VERIFY,
            "verification failed: construction disagrees with oracle",
        )

    def test_exhaustive_verify_needs_every_attainer(self, monkeypatch):
        original = durfeemax.outer_product

        def dropping(alpha, beta):
            full = original(alpha, beta)
            return CharacterSum(full.weight, {nu: m for nu, m in full.items() if nu != P(2, 2, 1, 1)})

        monkeypatch.setattr(durfeemax, "outer_product", dropping)
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

    def test_usage_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewchar", "nonsense"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_USAGE

    def test_internal_error_exit(self, monkeypatch, capsys):
        def broken(a):
            raise AssertionError("northwest ribbon sizes are not weakly decreasing: [1, 2]")

        monkeypatch.setattr(cli, "nw_labeling", broken)
        assert cli.main(["ribbons", "2,1"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: northwest ribbon sizes are not weakly decreasing: [1, 2]\n"
        )

    def test_precondition_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewchar", "decompose", "2,2 / 3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PRECONDITION
        assert "inner not contained in outer" in proc.stderr


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

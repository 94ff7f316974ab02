"""Command line front end.

Exit codes: 0 success (or equality not excluded), 1 usage error,
2 domain precondition failure, 3 definitively unequal (eqcheck),
4 structural failure (eqcheck), 5 verification mismatch, 6 oracle run
refused because the instance exceeds --max-boxes or the oracle counts more
than lr.MAX_FILLINGS LR fillings, or a max-hl witness list refused for
holding more than extremal.MAX_WITNESSES witnesses, 7 internal error (an
invariant of the computation failed; a bug, never an input problem), 8 the
output could not be written (a closed pipe, which is told nothing, or a
full disk, which gets one `error: cannot write output` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import re
import sys
import types

from .partitions import (
    GrammarError,
    Partition,
    _echo,
    _format_parts,
    durfee,
    format_partition,
    parse_partition,
    principal_hook_lengths,
)
from .render import _label_grid, render
from .skew import box_components, embed_disjoint, parse_skew


def _lazy(name: str) -> types.ModuleType:
    """The engine module `skewchar.<name>`, executed on first attribute use.

    It is registered at once, in `sys.modules` and on the package, as an
    import registers it, so a later import or a lookup by module name finds
    this same module.  An engine already imported is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# a verb executes only the engines it calls: each runs on its first use
durfeemax = _lazy("durfeemax")
equality = _lazy("equality")
extremal = _lazy("extremal")
lr = _lazy("lr")
ribbons = _lazy("ribbons")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_UNEQUAL = 3
EXIT_STRUCTURAL = 4
EXIT_VERIFY = 5
EXIT_TOO_LARGE = 6
EXIT_INTERNAL = 7
EXIT_WRITE = 8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


# ASCII digits only, at most 9 of them: so int() is cheap and no message
# that repeats the value can grow with it
_COUNT = re.compile(r"-?[0-9]{1,9}")


def _count(text: str) -> int:
    """The integer value of a `--strip` or `--max-boxes` argument; negatives are refused later."""
    if not _COUNT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(repr(text))}")
    return int(text)


# a verb's flags in add_argument's own form, (flag, options)
_JSON = ("--json", {"action": "store_true", "dest": "json_out"})
_VERIFY = ("--verify", {"action": "store_true"})
_MAX_BOXES = ("--max-boxes", {"type": _count, "default": 30, "metavar": "N"})
_STRIP = ("--strip", {"type": _count, "default": 0, "metavar": "T"})
_EXHAUSTIVE = ("--exhaustive", {"action": "store_true"})
_ORACLE = (_JSON, _VERIFY, _MAX_BOXES)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="skewchar", description="Exact skew character computations")
    # the flags a verb may lack; max_boxes None: the verb runs no refusable oracle
    parser.set_defaults(
        verify=False, exhaustive=False, full=False, labels=False, box=None, strip=0, max_boxes=None
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    for verb, (help_text, inputs, flags, *_) in _HANDLERS.items():
        sp = sub.add_parser(verb, help=help_text)
        for name in inputs:
            sp.add_argument(name)
        for flag, options in flags:
            sp.add_argument(flag, **options)
    return parser


def _parsed(parse, text: str):
    try:
        return parse(text)
    except GrammarError as exc:
        raise UsageError(str(exc)) from exc


# ASCII digits only (str.isdigit accepts '²', which int() refuses), and few
# enough that int() is cheap: a side past 10^9 caps no parsable product
_BOX = re.compile(r"([0-9]{1,9}),([0-9]{1,9})")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed namespace, with `diagrams`, `partitions` and `box` converted."""
    cmd = _build_parser().parse_args(argv)
    if cmd.box is not None:
        m = _BOX.fullmatch("".join(cmd.box.split()))
        if not m:
            raise UsageError(f"--box expects K,L with positive integers, got {_echo(repr(cmd.box))}")
        k, l = int(m[1]), int(m[2])
        if k < 1 or l < 1:
            raise UsageError("--box sides must be positive")
        cmd.box = (k, l)
    for flag, value in (("--strip", cmd.strip), ("--max-boxes", cmd.max_boxes or 0)):
        if value < 0:
            raise UsageError(f"{flag} must not be negative, got {value}")
    given = vars(cmd)
    cmd.diagrams = [_parsed(parse_skew, given[k]) for k in ("diagram", "a", "b") if k in given]
    if cmd.strip:
        cmd.diagrams[0] = ribbons.strip_nw_ribbons(cmd.diagrams[0], cmd.strip)
    cmd.partitions = [_parsed(parse_partition, given[k]) for k in ("alpha", "beta") if k in given]
    return cmd


_quote = json.encoder.encode_basestring_ascii


def _json(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for what reports hold: str-keyed dicts, lists, str, int, bool, None.

    `pad` is the newline and indentation of the enclosing level.  With
    `indent` set, `json.dumps` takes its pure-Python encoder, which builds a
    `JSONEncoder` and closure cycles on every call.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        fields = [f"{_quote(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(fields) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(str, obj)
        else:
            items = [_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return _json(obj) + "\n"


@functools.cache
def _term_template(length: int) -> str:
    """The JSON of one term whose partition has `length` parts, as a `%` template."""
    parts = "[\n        " + ",\n        ".join(["%d"] * length) + "\n      ]" if length else "[]"
    return '    {\n      "partition": ' + parts + ',\n      "mult": %d\n    }'


# terms formatted and joined at a time: a large sum's text is built from
# a few chunk strings, never from one string per term held all at once
_CHUNK = 1024


def _term_chunks(cs: lr.CharacterSum, line, sep: str) -> list[str]:
    """`sep.join` of `line(parts, mult)` over the terms, descending, one string per `_CHUNK` terms."""
    terms, keys = cs._terms, cs._sorted_parts()
    return [
        sep.join([line(parts, terms[parts]) for parts in keys[i : i + _CHUNK]])
        for i in range(0, len(keys), _CHUNK)
    ]


def _character_sum_json(cs: lr.CharacterSum) -> str:
    """`_json_text(cs.to_json_dict())`, written chunk by chunk.

    The brackets go on the first and last chunk, so the one final join is
    the only copy of the whole text.
    """
    head = f'{{\n  "weight": {cs.weight},\n  "terms": '
    chunks = _term_chunks(cs, lambda parts, mult: _term_template(len(parts)) % (*parts, mult), ",\n")
    if not chunks:
        return head + "[]\n}\n"
    chunks[0] = head + "[\n" + chunks[0]
    chunks[-1] += "\n  ]\n}\n"
    return ",\n".join(chunks)


def _character_sum_text(cs: lr.CharacterSum) -> str:
    chunks = _term_chunks(cs, lambda parts, mult: f"  [{_format_parts(parts)}]  {mult}", "\n")
    chunks.insert(0, f"weight {cs.weight}, {len(cs)} terms")
    chunks[-1] += "\n"
    return "\n".join(chunks)


def _oracle(cmd: argparse.Namespace) -> lr.CharacterSum:
    """The oracle's expansion of the one diagram, or of the two factors of a product."""
    return lr.brute_decompose(cmd.diagrams[0] if cmd.diagrams else embed_disjoint(*cmd.partitions))


def _check_character_sum(cmd: argparse.Namespace, cs: lr.CharacterSum) -> str | None:
    expected = _oracle(cmd)
    if cmd.box:
        k, l = cmd.box
        kept = {nu: m for nu, m in expected.items() if nu[0] <= k and nu.length <= l}
        expected = lr.CharacterSum(expected.weight, kept)
    return None if expected == cs else f"{cmd.verb} disagrees with oracle"


def _write_character_sum(cmd: argparse.Namespace, cs: lr.CharacterSum) -> tuple[int, str]:
    return EXIT_OK, _character_sum_json(cs) if cmd.json_out else _character_sum_text(cs)


def _check_ribbons(cmd: argparse.Namespace, labeling: ribbons.RibbonLabeling) -> str | None:
    a = cmd.diagrams[0]
    if [len(row) for row in labeling.rows] != [hi - lo for lo, hi in a.spans]:
        return "the labels do not cover the diagram"
    rows = enumerate(zip(a.spans, labeling.rows), 1)
    labels = {(r, c): v for r, ((lo, _), row) in rows for c, v in enumerate(row, lo + 1)}
    for (r, c), v in labels.items():
        if v != labels.get((r - 1, c - 1), 0) + 1:
            return f"label recurrence broken at {(r, c)}"
    # each layer again, by flood fill and row and column sets
    layers: dict[int, list[tuple[int, int]]] = {}
    for box, v in labels.items():
        layers.setdefault(v, []).append(box)
    derived = []
    for _, layer in sorted(layers.items()):
        k = len(box_components(layer))
        rows, cols = {r for r, _ in layer}, {c for _, c in layer}
        derived.append((len(layer), k, len(cols) - k, len(rows) - k))
    if [d[0] for d in derived] != list(labeling.pi_nw.parts):
        return "pi_nw disagrees with the layer sizes"
    if derived != [(p.size, p.k, p.arm, p.leg) for p in labeling.profiles]:
        return "the layer profiles disagree with the flood fill of each layer"
    return None


def _write_ribbons(cmd: argparse.Namespace, labeling: ribbons.RibbonLabeling) -> tuple[int, str]:
    a = cmd.diagrams[0]
    grid = _label_grid(a, labeling.rows)
    if cmd.json_out:
        payload = {
            "pi_nw": list(labeling.pi_nw.parts),
            "profiles": [
                {"index": p.index, "size": p.size, "k": p.k, "arm": p.arm, "leg": p.leg}
                for p in labeling.profiles
            ],
            "grid": grid.splitlines(),
        }
        return EXIT_OK, _json_text(payload)
    lines = [grid.rstrip("\n")] if a.size else []
    lines.append(f"pi_nw = {format_partition(labeling.pi_nw)}")
    lines.extend(
        f"nw {p.index}: size {p.size}, ribbons {p.k}, arm {p.arm}, leg {p.leg}"
        for p in labeling.profiles
    )
    return EXIT_OK, "\n".join(lines) + "\n"


def _check_maxhook(cmd: argparse.Namespace, report: extremal.MaxHookReport) -> str | None:
    terms = [(nu, m, principal_hook_lengths(nu)) for nu, m in _oracle(cmd).items()]
    hl = max(h for _, _, h in terms)
    top = [(nu, m) for nu, m, h in terms if h == hl]
    if (
        hl != report.hl
        or top != [(w.nu, w.mult) for w in report.witnesses]
        # gamma is the intersection of the hl-maximal constituents
        or Partition(map(min, zip(*(nu.parts for nu, _ in top)))) != report.gamma
        or len(top) != report.distinct_count
        or min(durfee(nu) for nu, _, _ in terms) != report.min_durfee
    ):
        return "construction disagrees with oracle"
    return None


def _write_maxhook(cmd: argparse.Namespace, report: extremal.MaxHookReport) -> tuple[int, str]:
    if cmd.json_out:
        return EXIT_OK, _json_text(report.to_json_dict())
    lines = [
        f"hl = {format_partition(report.hl)}",
        f"gamma = {format_partition(report.gamma)}",
        f"min durfee = {report.min_durfee}",
        f"distinct constituents = {report.distinct_count}",
        "witnesses:",
    ]
    lines.extend(
        f"  [{format_partition(w.nu)}]  mult {w.mult}  choices {','.join(map(str, w.choices))}"
        for w in report.witnesses
    )
    return EXIT_OK, "\n".join(lines) + "\n"


def _check_durfee(cmd: argparse.Namespace, report: durfeemax.DurfeeMaxReport) -> str | None:
    full = _oracle(cmd)
    oracle_max = max(durfee(nu) for nu in full)
    if oracle_max != report.max_durfee:
        return f"oracle Durfee maximum is {oracle_max}"
    attainers = {nu: m for nu, m in full.items() if durfee(nu) == oracle_max}
    witnesses = {w.nu_inverse: w.mult for w in report.witnesses}
    if report.exhaustive and witnesses != attainers:
        return f"the exhaustive witnesses are not the oracle's {len(attainers)} attainers"
    if not witnesses or not witnesses.items() <= attainers.items():
        return "the witnesses are not a nonempty set of oracle attainers with their multiplicities"
    return None


def _write_durfee(cmd: argparse.Namespace, report: durfeemax.DurfeeMaxReport) -> tuple[int, str]:
    if cmd.json_out:
        return EXIT_OK, _json_text(report.to_json_dict())
    lines = [
        f"m = {report.m}",
        f"associated = {report.associated}",
        f"max durfee = {report.max_durfee}",
        "witnesses (exhaustive):" if report.exhaustive else "witnesses (certified, not exhaustive):",
    ]
    lines.extend(f"  [{format_partition(w.nu_inverse)}]  mult {w.mult}" for w in report.witnesses)
    return EXIT_OK, "\n".join(lines) + "\n"


def _write_eqcheck(cmd: argparse.Namespace, report: equality.EqualityReport) -> tuple[int, str]:
    if not report.passed:
        code = EXIT_STRUCTURAL
    elif report.full is not None and not report.full.equal:
        code = EXIT_UNEQUAL
    else:
        code = EXIT_OK
    if cmd.json_out:
        return code, _json_text(report.to_json_dict())
    lines = []
    for rec in report.levels:
        flags = (
            f"pi_nw {'ok' if rec.pi_nw_equal else 'DIFFERS'}, "
            f"ribbon counts {'ok' if rec.k_equal else 'DIFFER'}, "
            f"arm/leg {'ok' if rec.armleg_equal else 'DIFFER'}"
        )
        lines.append(f"level {rec.level}: {flags}")
    if report.passed:
        lines.append("structural: pass")
    else:
        lines.append(f"structural: fail at level {report.fail_level} ({report.fail_condition})")
    if report.full is not None:
        if report.full.equal:
            lines.append("full: equal")
        else:
            d = report.full.first_discrepancy
            lines.append("full: unequal")
            lines.append(
                f"first discrepancy: [{format_partition(d.partition)}]  A {d.mult_a}  B {d.mult_b}"
            )
    return code, "\n".join(lines) + "\n"


# verb -> (help, inputs, flags, answer, check, write).  The first three
# build the verb's parser: its help line, its positional arguments, and its
# flags in usage order.  The last three run it: the answer from the parsed
# command; its check against the oracle under --verify, a problem text or
# None; and the writer of its exit code and text.  The lambdas look each
# engine function up on its module when they run: so a verb executes only
# the engines it calls, and a patched engine attribute (`lr.decompose_skew`,
# not an attribute of this module) is the one called.
_DIAGRAM, _FACTORS = ("diagram",), ("alpha", "beta")
_SUM = (_check_character_sum, _write_character_sum)
_DURFEE = (_check_durfee, _write_durfee)
_HANDLERS = {
    "decompose": (
        "expand a skew character into irreducibles", _DIAGRAM, _ORACLE,
        lambda cmd: lr.decompose_skew(cmd.diagrams[0]), *_SUM,
    ),
    "product": (
        "expand the product of two irreducibles", _FACTORS, _ORACLE,
        lambda cmd: lr.outer_product(*cmd.partitions), *_SUM,
    ),
    "schubert": (
        "product restricted to a k x l box", _FACTORS,
        (("--box", {"required": True, "metavar": "K,L"}), *_ORACLE),
        lambda cmd: lr.schubert_product(*cmd.partitions, *cmd.box), *_SUM,
    ),
    "ribbons": (
        "northwest ribbon labeling and profiles", _DIAGRAM, (_JSON, _VERIFY, _STRIP),
        lambda cmd: ribbons.nw_labeling(cmd.diagrams[0]), _check_ribbons, _write_ribbons,
    ),
    "maxhook": (
        "constituents with maximal hook lengths", _DIAGRAM, (*_ORACLE, _STRIP),
        lambda cmd: extremal.max_hl_characters(cmd.diagrams[0]), _check_maxhook, _write_maxhook,
    ),
    "durfee": (
        "maximal Durfee size of a square-framed skew shape", _DIAGRAM, (*_ORACLE, _EXHAUSTIVE),
        lambda cmd: durfeemax.max_durfee_special_skew(cmd.diagrams[0], exhaustive=cmd.exhaustive), *_DURFEE,
    ),
    "durfee-product": (
        "maximal Durfee size of a product", _FACTORS, (*_ORACLE, _EXHAUSTIVE),
        lambda cmd: durfeemax.max_durfee_product(*cmd.partitions, exhaustive=cmd.exhaustive), *_DURFEE,
    ),
    "eqcheck": (
        "structural and full equality tests", ("a", "b"),
        (_JSON, ("--full", {"action": "store_true"})),
        lambda cmd: equality.check_equality(*cmd.diagrams, full=cmd.full), None, _write_eqcheck,
    ),
    "render": (
        "draw a diagram", _DIAGRAM, (("--labels", {"action": "store_true"}),),
        lambda cmd: render(cmd.diagrams[0], "labels" if cmd.labels else "plain"),
        None, lambda cmd, text: (EXIT_OK, text),
    ),
}


def run(cmd: argparse.Namespace) -> tuple[int, str]:
    """The exit code and text of one command: its answer, checked under --verify, then written."""
    if cmd.max_boxes is not None and (cmd.verify or cmd.exhaustive):
        size = cmd.diagrams[0].size if cmd.diagrams else sum(p.weight for p in cmd.partitions)
        if size > cmd.max_boxes:
            return (
                EXIT_TOO_LARGE,
                f"refusing oracle run on {size} boxes (limit {cmd.max_boxes}; raise with --max-boxes)",
            )
    *_, answer, check, write = _HANDLERS[cmd.verb]
    try:
        result = answer(cmd)
        problem = cmd.verify and check(cmd, result)
        if problem:
            return EXIT_VERIFY, f"verification failed: {problem}"
        return write(cmd, result)
    # ValueError and AssertionError first: neither refusal below subclasses
    # them, and naming a refusal class executes its engine
    except ValueError as exc:
        return EXIT_PRECONDITION, f"error: {exc}"
    except AssertionError as exc:
        return EXIT_INTERNAL, f"internal error: {exc}"
    except lr.TooManyFillings as exc:
        return EXIT_TOO_LARGE, f"refusing oracle run: {exc}"
    except extremal.TooManyWitnesses as exc:
        return EXIT_TOO_LARGE, f"refusing witness list: {exc}"


# characters handed to one write: the text layer encodes each write into a
# bytes copy, so a large output is written in slices, never copied whole
_WRITE_SLICE = 1 << 16


def main(argv: list[str] | None = None) -> int:
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    code, text = run(cmd)
    stream = sys.stdout if code in (EXIT_OK, EXIT_UNEQUAL, EXIT_STRUCTURAL) else sys.stderr
    try:
        for i in range(0, len(text), _WRITE_SLICE):
            stream.write(text[i : i + _WRITE_SLICE])
        if text and not text.endswith("\n"):
            stream.write("\n")
        stream.flush()
    except OSError as exc:
        _to_devnull(stream)
        # a reader that has gone (a closed pipe) is told nothing
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_WRITE
    return code


def _to_devnull(stream) -> None:
    """Point the stream's file descriptor at os.devnull.

    What is left in its buffer is flushed at exit, and then goes nowhere
    instead of raising the same error again.
    """
    try:
        fd = stream.fileno()
    except OSError:  # no file descriptor, as in io.StringIO
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())

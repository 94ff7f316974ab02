"""Command line front end.

Exit codes: 0 success (or equality not excluded), 1 usage error,
2 domain precondition failure, 3 definitively unequal (eqcheck),
4 structural failure (eqcheck), 5 verification mismatch, 6 oracle run
refused because the instance exceeds --max-boxes or the oracle counts more
than ORACLE_MAX_FILLINGS LR fillings, 7 internal error (an invariant of the
computation failed; a bug, never an input problem).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from .durfeemax import DurfeeMaxReport, max_durfee_product, max_durfee_special_skew
from .equality import check_equality
from .extremal import max_hl_characters
from .lr import (
    CharacterSum,
    TooManyFillings,
    brute_decompose,
    decompose_skew,
    outer_product,
    schubert_product,
)
from .partitions import (
    GrammarError,
    Partition,
    durfee,
    format_partition,
    parse_partition,
    principal_hook_lengths,
)
from .render import _label_grid, render
from .ribbons import RibbonLabeling, nw_labeling, strip_nw_ribbons
from .skew import SkewDiagram, box_components, embed_disjoint, parse_skew

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_UNEQUAL = 3
EXIT_STRUCTURAL = 4
EXIT_VERIFY = 5
EXIT_TOO_LARGE = 6
EXIT_INTERNAL = 7

# --verify refuses once the oracle counts more LR fillings than this;
# --max-boxes does not bound their number
ORACLE_MAX_FILLINGS = 500_000


class UsageError(Exception):
    pass


@dataclass
class Command:
    verb: str
    diagrams: list[SkewDiagram] = field(default_factory=list)
    partitions: list[Partition] = field(default_factory=list)
    json_out: bool = False
    verify: bool = False
    exhaustive: bool = False
    full: bool = False
    labels: bool = False
    box: tuple[int, int] | None = None
    strip: int = 0
    # None for the verbs without --max-boxes, which run no refusable oracle
    max_boxes: int | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="skewchar", description="Exact skew character computations")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def common(sp, *, verify=True, max_boxes=True, strip=False, exhaustive=False):
        sp.add_argument("--json", action="store_true", dest="json_out")
        if verify:
            sp.add_argument("--verify", action="store_true")
        if max_boxes:
            sp.add_argument("--max-boxes", type=int, default=30, metavar="N")
        if strip:
            sp.add_argument("--strip", type=int, default=0, metavar="T")
        if exhaustive:
            sp.add_argument("--exhaustive", action="store_true")

    sp = sub.add_parser("decompose", help="expand a skew character into irreducibles")
    sp.add_argument("diagram")
    common(sp)

    sp = sub.add_parser("product", help="expand the product of two irreducibles")
    sp.add_argument("alpha")
    sp.add_argument("beta")
    common(sp)

    sp = sub.add_parser("schubert", help="product restricted to a k x l box")
    sp.add_argument("alpha")
    sp.add_argument("beta")
    sp.add_argument("--box", required=True, metavar="K,L")
    common(sp)

    sp = sub.add_parser("ribbons", help="northwest ribbon labeling and profiles")
    sp.add_argument("diagram")
    common(sp, max_boxes=False, strip=True)

    sp = sub.add_parser("maxhook", help="constituents with maximal hook lengths")
    sp.add_argument("diagram")
    common(sp, strip=True)

    sp = sub.add_parser("durfee", help="maximal Durfee size of a square-framed skew shape")
    sp.add_argument("diagram")
    common(sp, exhaustive=True)

    sp = sub.add_parser("durfee-product", help="maximal Durfee size of a product")
    sp.add_argument("alpha")
    sp.add_argument("beta")
    common(sp, exhaustive=True)

    sp = sub.add_parser("eqcheck", help="structural and full equality tests")
    sp.add_argument("a")
    sp.add_argument("b")
    common(sp, verify=False, max_boxes=False)
    sp.add_argument("--full", action="store_true")

    sp = sub.add_parser("render", help="draw a diagram")
    sp.add_argument("diagram")
    sp.add_argument("--labels", action="store_true")
    return parser


def _parsed(parse, text: str):
    try:
        return parse(text)
    except GrammarError as exc:
        raise UsageError(str(exc)) from exc


def parse_args(argv: list[str]) -> Command:
    ns = _build_parser().parse_args(argv)
    cmd = Command(verb=ns.verb)
    for attr in ("json_out", "verify", "exhaustive", "full", "labels", "strip", "max_boxes"):
        if hasattr(ns, attr):
            setattr(cmd, attr, getattr(ns, attr))
    if getattr(ns, "box", None) is not None:
        pieces = "".join(ns.box.split()).split(",")
        if len(pieces) != 2 or not all(p.isdigit() and p for p in pieces):
            raise UsageError(f"--box expects K,L with positive integers, got {ns.box!r}")
        k, l = int(pieces[0]), int(pieces[1])
        if k < 1 or l < 1:
            raise UsageError("--box sides must be positive")
        cmd.box = (k, l)
    for flag, value in (("--strip", cmd.strip), ("--max-boxes", cmd.max_boxes or 0)):
        if value < 0:
            raise UsageError(f"{flag} must not be negative, got {value}")
    for attr in ("diagram", "a", "b"):
        if hasattr(ns, attr):
            cmd.diagrams.append(_parsed(parse_skew, getattr(ns, attr)))
    if cmd.strip:
        cmd.diagrams[0] = strip_nw_ribbons(cmd.diagrams[0], cmd.strip)
    for attr in ("alpha", "beta"):
        if hasattr(ns, attr):
            cmd.partitions.append(_parsed(parse_partition, getattr(ns, attr)))
    return cmd


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _character_sum_json(cs: CharacterSum) -> str:
    """`_json_text(cs.to_json_dict())`, written term by term.

    `json.dumps` falls back to its pure-Python encoder whenever `indent` is
    set, which made the output of large sums cost as much as their search.
    """
    terms = [
        '    {\n      "partition": '
        + ("[\n        " + ",\n        ".join(map(str, nu.parts)) + "\n      ]" if nu else "[]")
        + f',\n      "mult": {mult}\n    }}'
        for nu, mult in cs.items()
    ]
    listed = "[\n" + ",\n".join(terms) + "\n  ]" if terms else "[]"
    return f'{{\n  "weight": {cs.weight},\n  "terms": {listed}\n}}\n'


def _character_sum_text(cs: CharacterSum) -> str:
    lines = [f"weight {cs.weight}, {len(cs)} terms"]
    lines.extend(f"  [{format_partition(nu)}]  {mult}" for nu, mult in cs.items())
    return "\n".join(lines) + "\n"


def _oracle(cmd: Command) -> CharacterSum:
    """The independent full expansion that every --verify compares against."""
    a = cmd.diagrams[0] if cmd.diagrams else embed_disjoint(*cmd.partitions)
    return brute_decompose(a, ORACLE_MAX_FILLINGS)


def _character_sum_result(cmd: Command, cs: CharacterSum) -> tuple[int, str]:
    if cmd.verify:
        expected = _oracle(cmd)
        if cmd.box:
            k, l = cmd.box
            kept = {nu: m for nu, m in expected.items() if nu[0] <= k and nu.length <= l}
            expected = CharacterSum(expected.weight, kept)
        if expected != cs:
            return EXIT_VERIFY, f"verification failed: {cmd.verb} disagrees with oracle"
    return EXIT_OK, _character_sum_json(cs) if cmd.json_out else _character_sum_text(cs)


def _run_decompose(cmd: Command) -> tuple[int, str]:
    return _character_sum_result(cmd, decompose_skew(cmd.diagrams[0]))


def _run_product(cmd: Command) -> tuple[int, str]:
    return _character_sum_result(cmd, outer_product(*cmd.partitions))


def _run_schubert(cmd: Command) -> tuple[int, str]:
    return _character_sum_result(cmd, schubert_product(*cmd.partitions, *cmd.box))


def _verify_ribbons(a: SkewDiagram, labeling: RibbonLabeling) -> str | None:
    spans = [a.row_span(i) for i in range(1, a.num_rows + 1)]
    if [len(row) for row in labeling.rows] != [hi - lo for lo, hi in spans]:
        return "the labels do not cover the diagram"
    rows = enumerate(zip(spans, labeling.rows), 1)
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


def _run_ribbons(cmd: Command) -> tuple[int, str]:
    a = cmd.diagrams[0]
    labeling = nw_labeling(a)
    problem = cmd.verify and _verify_ribbons(a, labeling)
    if problem:
        return EXIT_VERIFY, f"verification failed: {problem}"
    grid = _label_grid(labeling)
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


def _run_maxhook(cmd: Command) -> tuple[int, str]:
    report = max_hl_characters(cmd.diagrams[0])
    if cmd.verify:
        terms = _oracle(cmd).items()
        hl = max(principal_hook_lengths(nu) for nu, _ in terms)
        top = [(nu, m) for nu, m in terms if principal_hook_lengths(nu) == hl]
        if (
            hl != report.hl
            or top != [(w.nu, w.mult) for w in report.witnesses]
            # gamma is the intersection of the hl-maximal constituents
            or Partition(map(min, zip(*(nu.parts for nu, _ in top)))) != report.gamma
            or len(top) != report.distinct_count
            or min(durfee(nu) for nu, _ in terms) != report.min_durfee
        ):
            return EXIT_VERIFY, "verification failed: construction disagrees with oracle"
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


def _durfee_report_text(report: DurfeeMaxReport) -> str:
    lines = [
        f"m = {report.m}",
        f"associated = {report.associated}",
        f"max durfee = {report.max_durfee}",
        "witnesses (exhaustive):" if report.exhaustive else "witnesses (certified, not exhaustive):",
    ]
    lines.extend(f"  [{format_partition(w.nu_inverse)}]  mult {w.mult}" for w in report.witnesses)
    return "\n".join(lines) + "\n"


def _verify_durfee_report(report: DurfeeMaxReport, full: CharacterSum) -> str | None:
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


def _durfee_result(cmd: Command, report: DurfeeMaxReport) -> tuple[int, str]:
    problem = cmd.verify and _verify_durfee_report(report, _oracle(cmd))
    if problem:
        return EXIT_VERIFY, f"verification failed: {problem}"
    return EXIT_OK, _json_text(report.to_json_dict()) if cmd.json_out else _durfee_report_text(report)


def _run_durfee(cmd: Command) -> tuple[int, str]:
    return _durfee_result(cmd, max_durfee_special_skew(cmd.diagrams[0], exhaustive=cmd.exhaustive))


def _run_durfee_product(cmd: Command) -> tuple[int, str]:
    return _durfee_result(cmd, max_durfee_product(*cmd.partitions, exhaustive=cmd.exhaustive))


def _run_eqcheck(cmd: Command) -> tuple[int, str]:
    a, b = cmd.diagrams
    report = check_equality(a, b, full=cmd.full)
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


def _run_render(cmd: Command) -> tuple[int, str]:
    return EXIT_OK, render(cmd.diagrams[0], "labels" if cmd.labels else "plain")


_HANDLERS = {
    "decompose": _run_decompose,
    "product": _run_product,
    "schubert": _run_schubert,
    "ribbons": _run_ribbons,
    "maxhook": _run_maxhook,
    "durfee": _run_durfee,
    "durfee-product": _run_durfee_product,
    "eqcheck": _run_eqcheck,
    "render": _run_render,
}


def run(cmd: Command) -> tuple[int, str]:
    if cmd.max_boxes is not None and (cmd.verify or cmd.exhaustive):
        # one diagram, or the two factors of a product
        size = sum(a.size for a in cmd.diagrams) + sum(p.weight for p in cmd.partitions)
        if size > cmd.max_boxes:
            return (
                EXIT_TOO_LARGE,
                f"refusing oracle run on {size} boxes (limit {cmd.max_boxes}; raise with --max-boxes)",
            )
    try:
        return _HANDLERS[cmd.verb](cmd)
    except TooManyFillings as exc:
        return EXIT_TOO_LARGE, f"refusing oracle run: {exc}"
    except ValueError as exc:
        return EXIT_PRECONDITION, f"error: {exc}"
    except AssertionError as exc:
        return EXIT_INTERNAL, f"internal error: {exc}"


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
    if text:
        stream.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

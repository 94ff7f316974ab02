"""Seeded argument lists of the CLI and the digests of their output.

`argument_lists()` builds about 1 000 argument vectors from one fixed seed:
the README examples, the argument lists that CI runs, edge cases (empty
and very long inputs, every refusal and precondition failure), and random
small diagrams and partition pairs run through every verb, plain, with
`--json` and with each flag the verb takes.  Inputs stay small enough
that an oracle (`--verify`, `--exhaustive`) answers in a few milliseconds.
Argparse's own usage errors are left out: their text differs between
Python versions.

`digest(argv)` runs `cli.main` in-process and hashes its exit code,
stdout and stderr.  `output_corpus.txt` holds one line per argument list:
the first 16 hex digits of that digest and the list as JSON.  A change
that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/output_corpus.py

and says which argument lists changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random

CORPUS = pathlib.Path(__file__).with_name("output_corpus.txt")
SEED = "output-corpus"

README_EXAMPLES = (
    ("decompose", "4^2,2^2,1^2 / 1^4"),
    ("product", "3,2", "4,2"),
    ("schubert", "2", "2", "--box", "2,2"),
    ("ribbons", "10^2,8^4,5^2 / 5^4"),
    ("maxhook", "8^2,7,4,3^2 / 4,3,2"),
    ("durfee", "3,3,2/1,1"),
    ("durfee-product", "5^2,3^2,2", "4,3,1^2"),
    ("eqcheck", "10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4", "--full"),
    ("render", "2,2/1", "--labels"),
)

CI_LISTS = (
    ("decompose", "4^2,2^2,1^2 / 1^4", "--json"),
    ("product", "3,2", "4,2", "--verify"),
    ("schubert", "2", "2", "--box", "2,2", "--json"),
    ("ribbons", "10^2,8^4,5^2 / 5^4", "--strip", "1", "--json", "--verify"),
    ("maxhook", "8^2,7,4,3^2 / 4,3,2", "--strip", "1"),
    ("durfee", "3,3,2/1,1", "--exhaustive", "--json"),
    ("durfee-product", "5^2,3^2,2", "4,3,1^2", "--json"),
    ("durfee-product", "5^2,3^2,2", "4,3,1^2", "--exhaustive", "--json"),
    ("eqcheck", "10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4", "--full", "--json"),
    ("eqcheck", "7,6,5,3,1 / 5,5,2,1", "7,6,5,4,3 / 6,4,4,2", "--full"),
    ("decompose", "7,6,5,4,3,2,1/3,2,1", "--json"),
    ("decompose", "1^12", "--json"),
    ("decompose", "", "--json"),
    ("product", "3,2,1", "2,1", "--json"),
    ("schubert", "3,1", "2,2", "--box", "4,3", "--json"),
)

EDGE_CASES = (
    # empty input
    ("decompose", ""),
    ("ribbons", ""),
    ("ribbons", "", "--json", "--verify"),
    ("maxhook", "", "--json"),
    ("eqcheck", "", "", "--full"),
    ("render", ""),
    ("render", "", "--labels"),
    ("durfee", ""),
    ("durfee-product", "", ""),
    ("durfee-product", "2", ""),
    ("product", "", "2,1"),
    ("schubert", "", "", "--box", "1,1"),
    # more layers than label symbols
    ("ribbons", "62^62"),
    ("ribbons", "62^62", "--json"),
    ("render", "62^62", "--labels"),
    ("render", "61^61", "--labels"),
    ("maxhook", "62^62", "--json"),
    ("eqcheck", "62^62", "62^62"),
    # tall, wide and long inputs
    ("ribbons", "1^10000"),
    ("ribbons", "100^100,1^9900", "--json"),
    ("ribbons", "30^30,1^600", "--strip", "5"),
    ("maxhook", "30^30,1^600"),
    ("render", "1^200", "--labels"),
    ("decompose", "1200"),
    ("decompose", "1500/300"),
    ("product", "1000", "1000"),
    ("product", "1000", "1^1000"),
    ("schubert", "1000", "1^1000", "--box", "1001,1001"),
    # exit 6: refused oracle runs and witness lists
    ("decompose", "13,12,11,10,9,8,7,6,5,4,3,2,1/6,5,4,3,2,1", "--verify"),
    ("decompose", "4^2,2^2,1^2 / 1^4", "--verify", "--max-boxes", "5"),
    ("product", "3,2", "4,2", "--verify", "--max-boxes", "10"),
    ("maxhook", "34^17,17^17/17^17"),
    ("maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify", "--max-boxes", "3"),
    ("durfee", "3,3,2/1,1", "--exhaustive", "--max-boxes", "5"),
    ("durfee-product", "5^2,3^2,2", "4,3,1^2", "--exhaustive"),
    # exit 2: preconditions
    ("decompose", "2,2 / 3"),
    ("ribbons", "2,2/1", "--strip", "2"),
    ("maxhook", "3,1", "--strip", "3"),
    ("durfee", "3,2"),
    ("durfee", "3,3,3/1,1,1,1"),
    ("durfee", "3,3,1/2"),
    ("durfee", "3,2,2/1,1"),
    # exit 1 raised by skewchar itself, not by argparse
    ("decompose", "2,x"),
    ("decompose", "3/2/1"),
    ("decompose", "2^0"),
    ("render", "1^10001"),
    ("ribbons", "2,1", "--strip", "-1"),
    ("decompose", "2,1", "--max-boxes", "-1"),
    ("schubert", "2", "2", "--box", "2"),
    ("schubert", "2", "2", "--box", "0,2"),
    # equal without expansion, unequal, structural failures
    ("eqcheck", "3,2,1/1", "3,2,1/1,1", "--full"),
    ("eqcheck", "2", "1,1"),
    ("eqcheck", "2,2", "4"),
    ("eqcheck", "5,4,4", "5,5,3", "--json"),
    ("eqcheck", "4,4,2,2/2,2", "4,2,2/2", "--full", "--json"),
)


def _text(parts) -> str:
    return ",".join(map(str, parts))


def _skew_text(outer, inner) -> str:
    return f"{_text(outer)}/{_text(inner)}" if inner else _text(outer)


def _partition(rng: random.Random, weight: int, max_part: int) -> list[int]:
    parts: list[int] = []
    while weight:
        parts.append(rng.randint(1, min(weight, max_part, parts[-1] if parts else max_part)))
        weight -= parts[-1]
    return parts


def _skew(rng: random.Random, max_rows: int, max_cols: int, max_boxes: int):
    """(outer, inner) with 1 to max_boxes boxes; empty rows and disconnected shapes occur."""
    while True:
        outer = sorted((rng.randint(1, max_cols) for _ in range(rng.randint(1, max_rows))), reverse=True)
        inner: list[int] = []
        for x in outer:
            cap = min([x] + inner[-1:])
            inner.append(cap if rng.random() < 0.1 else rng.randint(0, cap))
        while inner and not inner[-1]:
            inner.pop()
        if 1 <= sum(outer) - sum(inner) <= max_boxes:
            return outer, inner


def _band(rng: random.Random, rows: int, cols: int):
    """Connected shape between two random staircase walks."""
    outer = [cols]
    for _ in range(rows - 1):
        outer.append(max(1, outer[-1] - rng.choice((0, 0, 1, 1, 2, 3))))
    inner = [0] * rows
    for i in range(rows - 2, -1, -1):
        inner[i] = max(0, min(outer[i + 1] - 1, inner[i + 1] + rng.choice((0, 0, 1, 1, 2, 3))))
    while inner and not inner[-1]:
        inner.pop()
    return outer, inner


def _rotate(outer, inner):
    w = outer[0]
    inner = list(inner) + [0] * (len(outer) - len(inner))
    rot_outer = [w - a for a in reversed(inner)]
    rot_inner = [w - b for b in reversed(outer)]
    while rot_outer and not rot_outer[-1]:
        rot_outer.pop()
    while rot_inner and not rot_inner[-1]:
        rot_inner.pop()
    return rot_outer, rot_inner


def _translate(outer, inner, down: int, right: int):
    pad = outer[0] + right
    inner = list(inner) + [0] * (len(outer) - len(inner))
    return [pad] * down + [x + right for x in outer], [pad] * down + [x + right for x in inner]


def _square_framed(rng: random.Random):
    """Outer (l^k, ...) of length and width l, inner within the first k rows and the last part."""
    side = rng.randint(2, 5)
    k = rng.randint(1, side)
    outer = [side] * k
    while len(outer) < side:
        outer.append(max(1, outer[-1] - rng.choice((0, 1, 1, 2))))
    inner = [rng.randint(0, outer[-1])]
    while len(inner) < k:
        inner.append(rng.randint(0, inner[-1]))
    while inner and not inner[-1]:
        inner.pop()
    return outer, inner


def argument_lists() -> list[list[str]]:
    rng = random.Random(SEED)
    lists = [list(argv) for argv in README_EXAMPLES]
    lists.extend([*argv, "--json"] for argv in README_EXAMPLES if argv[0] != "render")
    lists.extend(list(argv) for argv in CI_LISTS + EDGE_CASES)
    for _ in range(40):
        d = _skew_text(*_skew(rng, 5, 6, 9))
        lists.extend([
            ["decompose", d],
            ["decompose", d, "--json"],
            ["decompose", d, "--verify"],
            ["ribbons", d],
            ["ribbons", d, "--json"],
            ["ribbons", d, "--verify"],
            ["ribbons", d, "--strip", "1", "--json"],
            ["maxhook", d],
            ["maxhook", d, "--json", "--verify"],
            ["maxhook", d, "--strip", "1"],
            ["render", d],
            ["render", d, "--labels"],
        ])
    for _ in range(25):
        n = rng.randint(2, 9)
        a = rng.randint(1, n - 1)
        alpha, beta = _partition(rng, a, 4), _partition(rng, n - a, 4)
        k = rng.randint(max(alpha[0], beta[0]), alpha[0] + beta[0])
        l = rng.randint(max(len(alpha), len(beta)), len(alpha) + len(beta))
        pa, pb, box = _text(alpha), _text(beta), f"{k},{l}"
        lists.extend([
            ["product", pa, pb],
            ["product", pa, pb, "--json"],
            ["product", pa, pb, "--verify"],
            ["schubert", pa, pb, "--box", box],
            ["schubert", pa, pb, "--box", box, "--json", "--verify"],
            ["durfee-product", pa, pb],
            ["durfee-product", pa, pb, "--json"],
            ["durfee-product", pa, pb, "--exhaustive"],
            ["durfee-product", pa, pb, "--verify"],
            ["durfee-product", pa, pb, "--exhaustive", "--verify", "--json"],
        ])
    for _ in range(20):
        d = _skew_text(*_square_framed(rng))
        lists.extend([
            ["durfee", d],
            ["durfee", d, "--json"],
            ["durfee", d, "--exhaustive"],
            ["durfee", d, "--verify"],
        ])
    for _ in range(45):
        shape = _skew(rng, 5, 6, 10)
        b = _skew(rng, 5, 6, 10)
        if rng.random() < 0.3:
            b = _rotate(*shape)
        elif rng.random() < 0.3:
            b = _translate(*shape, rng.randint(0, 2), rng.randint(0, 2))
        a, b = _skew_text(*shape), _skew_text(*b)
        lists.extend([["eqcheck", a, b], ["eqcheck", a, b, "--json"], ["eqcheck", a, b, "--full"]])
    for _ in range(12):
        rows = rng.randint(8, 30)
        shape = _band(rng, rows, rng.randint(rows // 2 + 2, 40))
        d = _skew_text(*shape)
        lists.extend([
            ["ribbons", d, "--json"],
            ["ribbons", d, "--strip", str(rng.randint(1, 4))],
            ["maxhook", d, "--json"],
            ["eqcheck", d, _skew_text(*_rotate(*shape)), "--json"],
            ["render", d, "--labels"],
        ])
    # small random draws repeat; keep the first of each
    return [list(argv) for argv in dict.fromkeys(map(tuple, lists))]


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `cli.main(argv)`, run in-process."""
    from skewchar import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(argv: list[str]) -> str:
    """First 16 hex digits of the sha256 of exit code, stdout and stderr of `cli.main(argv)`."""
    payload = "\0".join(map(str, outcome(argv)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def read_corpus() -> list[tuple[str, list[str]]]:
    """The (digest, argument list) pairs of `output_corpus.txt`, in order."""
    pairs = []
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            hexdigest, argv = line.split(" ", 1)
            pairs.append((hexdigest, json.loads(argv)))
    return pairs


def write_corpus() -> None:
    lines = ["# digest (sha256 of exit code, stdout, stderr; 16 hex digits) and argument list"]
    lines.extend(f"{digest(argv)} {json.dumps(argv)}" for argv in argument_lists())
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_corpus()

"""Seeded operation lists of the three workloads.

A workload is a list of operations built from its seed alone.  Each
operation is either a CLI argument vector, run in-process through
`skewchar.cli.parse_args` and `skewchar.cli.run`, or the arguments of one
library call to `durfeemax.verify_complementation`.  Each carries the
independent check of its output from `checks`.  Generation uses only the
standard library and `checks`, never skewchar itself.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

import checks as C


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv or verify_complementation arguments, plus its check.

    `check(result, shared)` raises checks.CheckFailed; `shared` carries one
    operation's parsed output to a later operation's check in the same pass.
    """

    argv: tuple[str, ...] = ()
    call: tuple[tuple[int, ...], tuple[int, ...], int, int] | None = None
    check: Callable[[object, dict], None] | None = None

    @property
    def label(self) -> str:
        if self.call is not None:
            mu, lam, k, l = self.call
            return f"verify_complementation({mu}, {lam}, {k}, {l})"
        return " ".join(self.argv)


def _text(p) -> str:
    return ",".join(map(str, p))


def _json(code: int, text: str) -> dict:
    C.expect(code == 0, f"exit code {code}")
    return json.loads(text)


# --- decompose-large -------------------------------------------------------------

# Staircase skews delta_n / delta_m: 63, 56 and 49 boxes.
STAIRCASES = ((12, 5), (11, 4), (10, 3))
# Single rows far longer than Python's recursion limit.  The row search in
# lr._row_fillings recurses once per column, so these raise RecursionError
# until it is made iterative; they count as failed operations until then.
LONG_ROWS = (((1200,), ()), ((1500,), (300,)))
RANDOM_DIAGRAMS = 150
FRAME = 12
# Random shapes are kept inside a band of a fixed linear cost model, fitted
# once on random 12 x 12 shapes against log decompose time:
#   score = 0.065 * dist - 0.579 * n + 0.342 * ln f^(lam/mu)
# where dist is the L1 distance between the extreme constituents.  The band
# only narrows the spread of per-diagram cost, so that medians over one
# seed's diagrams do not depend on the seed; it plays no part in checking.
SCORE_BAND = (-2.45, -2.15)


def _ln_f_skew(outer, inner) -> float:
    """Natural log of f^(lam/mu) from Aitken's determinant in floating point."""
    r = len(outer)
    mu = tuple(inner) + (0,) * (r - len(inner))
    m = [
        [1.0 / math.factorial(outer[i] - mu[j] - i + j) if outer[i] - mu[j] - i + j >= 0 else 0.0 for j in range(r)]
        for i in range(r)
    ]
    det = 1.0
    for c in range(r):
        p = max(range(c, r), key=lambda x: abs(m[x][c]))
        if m[p][c] == 0.0:
            return float("-inf")
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for x in range(c + 1, r):
            factor = m[x][c] / m[c][c]
            for y in range(c, r):
                m[x][y] -= factor * m[c][y]
    return math.lgamma(sum(outer) - sum(mu) + 1) + math.log(abs(det))


def _random_connected(rng: random.Random):
    """Connected skew shape inside the frame with 35 to 63 boxes and a nonempty inner part."""
    while True:
        r = rng.randint(5, FRAME)
        outer = sorted((rng.randint(1, FRAME) for _ in range(r)), reverse=True)
        inner = sorted((rng.randint(0, outer[i + 1] - 1) for i in range(r - 1)), reverse=True) + [0]
        # consecutive rows share a column, so the shape is edge-connected
        if any(inner[i] >= outer[i + 1] for i in range(r - 1)) or not inner[0]:
            continue
        n = sum(outer) - sum(inner)
        if 35 <= n <= 63:
            while inner and inner[-1] == 0:
                inner.pop()
            return tuple(outer), tuple(inner), n


def _cost_score(outer, inner, n: int) -> float:
    rows = C.row_lengths(outer, inner)
    top = C.conjugate(C.column_heights(outer, inner))
    dist = sum(abs(a - b) for a, b in zip_longest(top, rows, fillvalue=0))
    return 0.065 * dist - 0.579 * n + 0.342 * _ln_f_skew(outer, inner)


def _check_decompose(outer, inner, result, shared) -> None:
    code, text = result
    C.check_decomposition(outer, inner, C.parse_sum(code, text, sum(outer) - sum(inner)))


def _decompose_op(outer, inner) -> Op:
    return Op(
        argv=("decompose", "--json", C.skew_text(outer, inner)),
        check=functools.partial(_check_decompose, outer, inner),
    )


def decompose_large(rng: random.Random) -> list[Op]:
    shapes = []
    for n, m in STAIRCASES:
        shapes.append((tuple(range(n, 0, -1)), tuple(range(m, 0, -1))))
    while len(shapes) < len(STAIRCASES) + RANDOM_DIAGRAMS:
        outer, inner, n = _random_connected(rng)
        if SCORE_BAND[0] <= _cost_score(outer, inner, n) <= SCORE_BAND[1]:
            shapes.append((outer, inner))
    shapes.extend(LONG_ROWS)
    rng.shuffle(shapes)
    return [_decompose_op(outer, inner) for outer, inner in shapes]


# --- product-sweep -----------------------------------------------------------------

# verify_complementation over every nested pair in every k x l box up to this many cells
SWEEP_CELLS = 14
SEEDED_PAIRS = 100
PAIR_WEIGHTS = range(12, 23)
PAIR_MAX_PART = 6


def _partitions_in_box(k: int, l: int):
    def rec(cap, rows):
        yield ()
        if rows:
            for p in range(cap, 0, -1):
                for rest in rec(p, rows - 1):
                    yield (p,) + rest

    return rec(k, l)


def _subpartitions(lam):
    def rec(i, cap):
        yield ()
        if i < len(lam):
            for v in range(min(lam[i], cap), 0, -1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest

    return rec(0, lam[0] if lam else 0)


def _check_true(result, shared) -> None:
    C.expect(result is True, f"returned {result!r}")


def _random_partition(rng: random.Random, weight: int) -> tuple[int, ...]:
    while True:
        parts, rest = [], weight
        while rest and len(parts) < PAIR_MAX_PART:
            parts.append(rng.randint(1, min(rest, PAIR_MAX_PART, parts[-1] if parts else PAIR_MAX_PART)))
            rest -= parts[-1]
        if not rest:
            return tuple(parts)


def _check_product(alpha, beta, key, result, shared) -> None:
    terms = C.parse_sum(*result, sum(alpha) + sum(beta))
    C.check_product(alpha, beta, terms)
    shared[key] = terms


def _check_schubert(alpha, beta, key, k, l, result, shared) -> None:
    C.check_schubert(shared[key], k, l, C.parse_sum(*result, sum(alpha) + sum(beta)))


def _check_durfee_product(alpha, beta, key, result, shared) -> None:
    C.check_durfee_witnesses(_json(*result), sum(alpha) + sum(beta), shared[key])


def product_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(1, SWEEP_CELLS + 1):
        for l in range(1, SWEEP_CELLS // k + 1):
            for lam in _partitions_in_box(k, l):
                for mu in _subpartitions(lam):
                    ops.append(Op(call=(mu, lam, k, l), check=_check_true))
    for i in range(SEEDED_PAIRS):
        n = PAIR_WEIGHTS[i % len(PAIR_WEIGHTS)]
        a = rng.randint(4, n - 4)
        alpha, beta = _random_partition(rng, a), _random_partition(rng, n - a)
        k = rng.randint(max(alpha[0], beta[0]), alpha[0] + beta[0])
        l = rng.randint(max(len(alpha), len(beta)), len(alpha) + len(beta))
        pa, pb, key = _text(alpha), _text(beta), ("pair", i)
        ops.append(Op(("product", pa, pb, "--json"), check=functools.partial(_check_product, alpha, beta, key)))
        ops.append(
            Op(
                ("schubert", pa, pb, "--box", f"{k},{l}", "--json"),
                check=functools.partial(_check_schubert, alpha, beta, key, k, l),
            )
        )
        ops.append(
            Op(
                ("durfee-product", pa, pb, "--exhaustive", "--json"),
                check=functools.partial(_check_durfee_product, alpha, beta, key),
            )
        )
    return ops


# --- structural-large ----------------------------------------------------------------

STRUCT_SHAPES = 30
STRUCT_SIZES = (150, 1500)
MAX_LAYERS = len(C.SYMBOLS)  # render --labels draws at most this many layers
MAX_WITNESSES = 16  # maxhook and durfee list prod(k) witnesses


def _sizes(count: int) -> list[int]:
    lo, hi = STRUCT_SIZES
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _random_band(rng: random.Random, rows: int, cols: int):
    """Connected shape: outer and inner boundaries are random staircase walks."""
    outer = [cols]
    for _ in range(rows - 1):
        outer.append(max(1, outer[-1] - rng.choice((0, 0, 1, 1, 2, 3))))
    inner = [0] * rows
    for i in range(rows - 2, -1, -1):
        inner[i] = min(outer[i + 1] - 1, inner[i + 1] + rng.choice((0, 0, 1, 1, 2, 3)))
    if any(inner[i] < inner[i + 1] for i in range(rows - 1)):
        return None
    while inner and inner[-1] == 0:
        inner.pop()
    return tuple(outer), tuple(inner)


def _witness_count(outer, inner) -> int:
    return math.prod(p["k"] for p in C.layer_profiles(outer, inner))


def _structural_shape(rng: random.Random, target: int):
    """Shape of about `target` boxes whose depth is round(0.6 sqrt(target))."""
    side = math.isqrt(target)
    depth = min(round(0.6 * side), MAX_LAYERS)
    while True:
        rows = rng.randint(int(0.6 * side), min(60, side))
        # each boundary walk moves 7/6 of a column per row on average
        shape = _random_band(rng, rows, round(target / rows + 7 / 6 * (rows - 1)))
        if shape is None:
            continue
        outer, inner = shape
        if abs(sum(outer) - sum(inner) - target) > 0.02 * target:
            continue
        if max(C.nw_labels(C.boxes(outer, inner)).values()) == depth and _witness_count(outer, inner) <= MAX_WITNESSES:
            return outer, inner


def _square_framed(rng: random.Random, target: int):
    """Outer (l^k, ...) of length and width l, inner within the first k rows and the last part."""
    while True:
        side = rng.randint(math.isqrt(target), math.isqrt(2 * target))
        k = rng.randint(1, side // 3)
        outer = [side] * k
        while len(outer) < side:
            outer.append(max(1, outer[-1] - rng.choice((0, 0, 0, 1, 1, 2))))
        inner = [rng.randint(0, outer[-1])]
        while len(inner) < k:
            inner.append(rng.randint(0, inner[-1]))
        while inner and inner[-1] == 0:
            inner.pop()
        outer, inner = tuple(outer), tuple(inner)
        if abs(sum(outer) - sum(inner) - target) > 0.05 * target:
            continue
        # associated diagram: inner (northeast) beside the complement of outer in (l^l)
        comp = tuple(x for x in (side - outer[side - 1 - i] for i in range(side)) if x)
        if not comp:
            continue
        w = comp[0]
        assoc_outer = tuple(w + x for x in inner) + comp
        assoc_inner = (w,) * len(inner)
        if _witness_count(assoc_outer, assoc_inner) <= MAX_WITNESSES:
            return outer, inner


def _check_ribbons(outer, inner, result, shared) -> None:
    C.check_ribbons(outer, inner, _json(*result))


def _check_maxhook(outer, inner, result, shared) -> None:
    C.check_maxhook(outer, inner, _json(*result))


def _check_eqcheck(outer, inner, result, shared) -> None:
    C.check_eqcheck(outer, inner, _json(*result))


def _check_render(outer, inner, result, shared) -> None:
    code, text = result
    C.expect(code == 0, f"exit code {code}")
    C.check_label_grid(outer, inner, text.splitlines())


def _check_durfee(outer, inner, result, shared) -> None:
    C.check_durfee_witnesses(_json(*result), sum(outer) - sum(inner))


def structural_large(rng: random.Random) -> list[Op]:
    ops = []
    for target in _sizes(STRUCT_SHAPES):
        outer, inner = _structural_shape(rng, target)
        text = C.skew_text(outer, inner)
        shape = (outer, inner)
        rotated = C.skew_text(*C.rotate180(outer, inner))
        moved = C.skew_text(*C.translate(outer, inner, rng.randint(1, 3), rng.randint(1, 5)))
        ops.append(Op(("ribbons", text, "--json"), check=functools.partial(_check_ribbons, *shape)))
        ops.append(Op(("maxhook", text, "--json"), check=functools.partial(_check_maxhook, *shape)))
        ops.append(Op(("eqcheck", text, rotated, "--json"), check=functools.partial(_check_eqcheck, *shape)))
        ops.append(Op(("eqcheck", text, moved, "--json"), check=functools.partial(_check_eqcheck, *shape)))
        ops.append(Op(("render", text, "--labels"), check=functools.partial(_check_render, *shape)))
        framed = _square_framed(rng, target)
        ops.append(Op(("durfee", C.skew_text(*framed), "--json"), check=functools.partial(_check_durfee, *framed)))
    return ops


WORKLOADS = {
    "decompose-large": decompose_large,
    "product-sweep": product_sweep,
    "structural-large": structural_large,
}


def build(name: str, seed: int) -> list[Op]:
    """The operation list of workload `name` for `seed`; equal seeds give equal lists."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

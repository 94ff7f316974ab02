"""Tests of the benchmark's own parts: the independent checks, the workloads and the tracer.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'

The checks must accept the answer of a per-candidate brute-force
Littlewood-Richardson count written here, and reject deliberately
perturbed answers.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def lr_count(outer, inner, content) -> int:
    """LR fillings of outer/inner with the given content, box by box in reverse reading order."""
    shape = set(C.boxes(outer, inner))
    order = sorted(shape, key=lambda b: (b[0], -b[1]))
    filling: dict = {}
    counts = [0] * len(content)

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        r, c = order[i]
        lo = filling[(r - 1, c)] + 1 if (r - 1, c) in shape else 1
        hi = filling[(r, c + 1)] if (r, c + 1) in shape else len(content)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v - 1] < content[v - 1] and (v == 1 or counts[v - 2] > counts[v - 1]):
                counts[v - 1] += 1
                filling[(r, c)] = v
                total += rec(i + 1)
                counts[v - 1] -= 1
        filling.pop((r, c), None)
        return total

    return rec(0)


def brute_decompose(outer, inner) -> dict:
    n = sum(outer) - sum(inner)
    out = {}
    for nu in partitions(n):
        m = lr_count(outer, inner, nu)
        if m:
            out[nu] = m
    return out


def brute_product(alpha, beta) -> dict:
    out = {}
    for nu in partitions(sum(alpha) + sum(beta)):
        if len(nu) >= len(alpha) and all(nu[i] >= alpha[i] for i in range(len(alpha))):
            m = lr_count(nu, alpha, beta)
            if m:
                out[nu] = m
    return out


def random_shape(rng: random.Random, rows: int = 5, cols: int = 5, max_boxes: int = 9):
    while True:
        outer = tuple(sorted((rng.randint(1, cols) for _ in range(rng.randint(1, rows))), reverse=True))
        inner, cap = [], outer[0]
        for x in outer:
            cap = rng.randint(0, min(cap, x))
            inner.append(cap)
        inner = tuple(v for v in inner if v)
        if 1 <= sum(outer) - sum(inner) <= max_boxes:
            return outer, inner


def perturbations(terms: dict):
    """Wrong answers: one multiplicity raised, one term dropped, one term moved to another partition."""
    nu = sorted(terms)[len(terms) // 2]
    raised = dict(terms)
    raised[nu] += 1
    yield raised
    if len(terms) > 1:
        yield {k: v for k, v in terms.items() if k != nu}
    other = next((p for p in partitions(sum(nu)) if p not in terms), None)
    if other is not None:
        moved = {k: v for k, v in terms.items() if k != nu}
        moved[other] = terms[nu]
        yield moved


class DecompositionChecks(unittest.TestCase):
    def test_accepts_brute_force_and_rejects_perturbed(self):
        rng = random.Random(1)
        for _ in range(60):
            outer, inner = random_shape(rng)
            terms = brute_decompose(outer, inner)
            C.check_decomposition(outer, inner, terms)
            for wrong in perturbations(terms):
                with self.assertRaises(C.CheckFailed, msg=(outer, inner, wrong)):
                    C.check_decomposition(outer, inner, wrong)

    def test_long_row(self):
        C.check_decomposition((1500,), (300,), {(1200,): 1})
        with self.assertRaises(C.CheckFailed):
            C.check_decomposition((1500,), (300,), {(1200,): 2})

    def test_parse_sum_rejects_bad_order_and_weight(self):
        good = {"weight": 3, "terms": [{"partition": [3], "mult": 1}, {"partition": [2, 1], "mult": 1}]}
        self.assertEqual(C.parse_sum(0, json.dumps(good), 3), {(3,): 1, (2, 1): 1})
        swapped = dict(good, terms=good["terms"][::-1])
        for code, text, weight in ((0, json.dumps(swapped), 3), (0, json.dumps(good), 4), (2, json.dumps(good), 3)):
            with self.assertRaises(C.CheckFailed):
                C.parse_sum(code, text, weight)


class ProductChecks(unittest.TestCase):
    def pairs(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 9)
            a = rng.randint(1, n - 1)
            yield rng.choice(list(partitions(a))), rng.choice(list(partitions(n - a)))

    def test_product_accepts_brute_force_and_rejects_perturbed(self):
        for alpha, beta in self.pairs():
            terms = brute_product(alpha, beta)
            C.check_product(alpha, beta, terms)
            for wrong in perturbations(terms):
                with self.assertRaises(C.CheckFailed):
                    C.check_product(alpha, beta, wrong)

    def test_schubert_and_durfee_against_brute_force(self):
        for alpha, beta in self.pairs():
            terms = brute_product(alpha, beta)
            k, l = max(alpha[0], beta[0]), max(len(alpha), len(beta)) + 1
            inside = {nu: m for nu, m in terms.items() if nu[0] <= k and len(nu) <= l}
            C.check_schubert(terms, k, l, inside)
            wrong = [dict(list(inside.items())[1:])] if inside else []
            extra = [nu for nu in terms if nu not in inside]
            if extra:
                wrong.append({**inside, extra[0]: terms[extra[0]]})
            for bad in wrong:
                with self.assertRaises(C.CheckFailed):
                    C.check_schubert(terms, k, l, bad)

            d = max(C.durfee(nu) for nu in terms)
            report = {
                "max_durfee": d,
                "witnesses": [{"nu_inverse": list(nu), "mult": m} for nu, m in terms.items() if C.durfee(nu) == d],
            }
            C.check_durfee_witnesses(report, sum(alpha) + sum(beta), terms)
            lower = dict(report, max_durfee=d - 1)
            partial = dict(report, witnesses=report["witnesses"][1:])
            bad_mult = copy.deepcopy(report)
            bad_mult["witnesses"][0]["mult"] += 1
            for wrong_report in (lower, bad_mult) + ((partial,) if len(report["witnesses"]) > 1 else ()):
                with self.assertRaises(C.CheckFailed):
                    C.check_durfee_witnesses(wrong_report, sum(alpha) + sum(beta), terms)


class StructuralChecks(unittest.TestCase):
    def shapes(self):
        rng = random.Random(3)
        for _ in range(40):
            yield random_shape(rng, rows=4, cols=5, max_boxes=8)

    def test_maxhook_against_brute_force(self):
        # pi_nw from the checks' own labeling is the largest principal hook partition.
        for outer, inner in self.shapes():
            terms = brute_decompose(outer, inner)
            profiles = C.layer_profiles(outer, inner)
            pi = tuple(p["size"] for p in profiles)
            self.assertEqual(pi, max(C.principal_hooks(nu) for nu in terms))
            report = {
                "hl": list(pi),
                "min_durfee": len(pi),
                "distinct": sum(1 for nu in terms if C.principal_hooks(nu) == pi),
                "witnesses": [{"nu": list(nu), "mult": m} for nu, m in terms.items() if C.principal_hooks(nu) == pi],
            }
            C.check_maxhook(outer, inner, report)
            bad_mult = copy.deepcopy(report)
            bad_mult["witnesses"][0]["mult"] += 1
            wrong = [bad_mult]
            other = next((nu for nu in partitions(sum(pi)) if C.principal_hooks(nu) != pi), None)
            if other is not None:
                wrong.append(copy.deepcopy(report))
                wrong[-1]["witnesses"][0]["nu"] = list(other)
            for bad in wrong:
                with self.assertRaises(C.CheckFailed):
                    C.check_maxhook(outer, inner, bad)

    def test_rotation_and_translation_keep_the_character(self):
        rng = random.Random(4)
        for outer, inner in self.shapes():
            expected = brute_decompose(outer, inner)
            self.assertEqual(brute_decompose(*C.rotate180(outer, inner)), expected)
            moved = C.translate(outer, inner, rng.randint(0, 2), rng.randint(0, 2))
            self.assertEqual(brute_decompose(*moved), expected)

    def test_square_framed_durfee_witnesses(self):
        outer, inner = (4, 4, 3, 2), (1,)
        terms = brute_decompose(outer, inner)
        d = max(C.durfee(nu) for nu in terms)
        wits = [{"nu_inverse": list(nu), "mult": m} for nu, m in terms.items() if C.durfee(nu) == d]
        C.check_durfee_witnesses({"max_durfee": d, "witnesses": wits}, 12)
        with self.assertRaises(C.CheckFailed):
            C.check_durfee_witnesses({"max_durfee": d + 1, "witnesses": wits}, 12)

    def test_program_outputs_pass_and_perturbed_outputs_fail(self):
        from skewchar.cli import parse_args, run

        rng = random.Random(5)
        for _ in range(10):
            outer, inner = workloads._random_band(rng, 8, 9) or ((3, 2), (1,))
            text = C.skew_text(outer, inner)
            ribbons = json.loads(run(parse_args(["ribbons", text, "--json"]))[1])
            grid = run(parse_args(["render", text, "--labels"]))[1].splitlines()
            rotated = C.skew_text(*C.rotate180(outer, inner))
            eq = json.loads(run(parse_args(["eqcheck", text, rotated, "--json"]))[1])
            C.check_ribbons(outer, inner, ribbons)
            C.check_label_grid(outer, inner, grid)
            C.check_eqcheck(outer, inner, eq)

            wrong_grid = list(grid)
            row = next(i for i, line in enumerate(grid) if line.strip(":"))
            j = len(grid[row]) - 1
            wrong_grid[row] = grid[row][:j] + C.SYMBOLS[C.SYMBOLS.index(grid[row][j]) + 1]
            wrong_profile = copy.deepcopy(ribbons)
            wrong_profile["profiles"][0]["k"] += 1
            wrong_level = copy.deepcopy(eq)
            wrong_level["levels"][-1]["armleg_equal"] = False
            for check, data in (
                (C.check_label_grid, wrong_grid),
                (C.check_ribbons, wrong_profile),
                (C.check_eqcheck, wrong_level),
                (C.check_eqcheck, dict(eq, levels=eq["levels"][:-1])),
            ):
                with self.assertRaises(C.CheckFailed):
                    check(outer, inner, data)


class Workloads(unittest.TestCase):
    def test_seeded_and_fixed_length(self):
        for name in ("decompose-large", "structural-large"):
            first, again, other = (workloads.build(name, s) for s in (1, 1, 2))
            self.assertEqual([op.label for op in first], [op.label for op in again])
            self.assertNotEqual([op.label for op in first], [op.label for op in other])
            self.assertEqual(len(first), len(other))
            self.assertGreaterEqual(len(first), 100)

    def test_product_sweep_covers_every_nested_pair(self):
        from skewchar import partitions_in_box, subpartitions

        sweep = {op.call for op in workloads.build("product-sweep", 1) if op.call is not None}
        expected = {
            (mu.parts, lam.parts, k, l)
            for k in range(1, workloads.SWEEP_CELLS + 1)
            for l in range(1, workloads.SWEEP_CELLS // k + 1)
            for lam in partitions_in_box(k, l)
            for mu in subpartitions(lam)
        }
        self.assertEqual(sweep, expected)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_originals_return(self):
        from skewchar import cli, lr

        original = lr.outer_product
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(lr.outer_product, original)
            code, _ = cli.run(cli.parse_args(["durfee-product", "3,1", "2,1", "--exhaustive", "--json"]))
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(lr.outer_product, original)
        m = tracer.metrics()
        self.assertEqual(m["cli.parse_args.calls"], 1)
        self.assertEqual(m["durfeemax.max_durfee_product.calls"], 1)
        self.assertGreater(m["lr.enumerate_lr_fillings.calls"], 0)
        self.assertEqual(m["lr.enumerate_lr_fillings.fillings"], sum(brute_product((3, 1), (2, 1)).values()))
        self.assertTrue(0 < m["lr.enumerate_lr_fillings.hit_ratio"] <= 1)
        total = max(s[2] for s in tracer.spans) - min(s[1] for s in tracer.spans)
        self.assertLessEqual(sum(v for k, v in m.items() if k.endswith(".self_s")), total)
        self.assertEqual(set(m) | {"lr.decompose_skew.peak_alloc_mb", "trace.overhead_s"}, set(spans.per_layer_units()))


if __name__ == "__main__":
    unittest.main()

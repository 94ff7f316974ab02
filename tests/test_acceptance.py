"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  All comparisons are exact integer equality; each criterion also
enforces its runtime budget.
"""

import random
import time
from contextlib import contextmanager

from skewchar import (
    Partition,
    SkewDiagram,
    decompose_skew,
    durfee,
    embed_disjoint,
    gamma_partition,
    hl_of_skew,
    lr_coefficient,
    max_durfee_product,
    max_durfee_special_skew,
    max_hl_characters,
    min_durfee,
    first_hook_strip,
    nw_labeling,
    parse_partition,
    parse_skew,
    partitions_in_box,
    pi_max,
    pi_min,
    pi_nw,
    principal_hook_lengths,
    ribbon_profile,
    rotate180,
    strip_nw_ribbons,
    subpartitions,
    translate,
    verify_complementation,
)
from skewchar.cli import EXIT_OK, EXIT_UNEQUAL, parse_args, run

from helpers import P, SD, label_map, random_partition, random_skew, random_subpartition


@contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget_seconds}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_ribbon_goldens():
    with criterion(1, "ribbon length partition and split count of the worked pair", 0.010):
        for text in ("10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4"):
            a = parse_skew(text)
            assert pi_nw(a) == P(17, 15, 8, 2)
            assert ribbon_profile(a, 3).k == 2


def test_criterion_2_maxhook_golden():
    with criterion(2, "hook-maximal constituents of (8^2,7,4,3^2)/(4,3,2)", 5.0):
        a = parse_skew("8^2,7,4,3^2 / 4,3,2")
        assert [p.k for p in nw_labeling(a).profiles] == [1, 3, 2]
        assert gamma_partition(a) == P(8, 6, 3, 2, 1, 1)
        report = max_hl_characters(a)
        assert [(w.nu, w.mult) for w in report.witnesses] == [
            (P(8, 8, 4, 2, 1, 1), 1),
            (P(8, 8, 3, 3, 1, 1), 1),
            (P(8, 7, 4, 2, 2, 1), 2),
            (P(8, 7, 3, 3, 2, 1), 2),
            (P(8, 6, 4, 2, 2, 2), 1),
            (P(8, 6, 3, 3, 2, 2), 1),
        ]
        code, _ = run(parse_args(["maxhook", "8^2,7,4,3^2 / 4,3,2", "--verify"]))
        assert code == EXIT_OK
        stripped = strip_nw_ribbons(a, 1)
        assert stripped == SD((7, 6, 3, 2, 2), (4, 3, 2))
        assert len(decompose_skew(stripped)) == 25


def test_criterion_3_product_witnesses():
    with criterion(3, "eight hook-maximal product constituents, targeted oracle", 60.0):
        alpha = parse_partition("5^2,4^2,3,1")
        beta = parse_partition("5,3^2,2,1^2")
        report = max_hl_characters(embed_disjoint(alpha, beta))
        assert report.hl == P(20, 11, 5, 1)
        assert len(report.witnesses) == 8
        assert all(w.mult == 1 for w in report.witnesses)
        for w in report.witnesses:
            assert lr_coefficient(w.nu, alpha, beta) == 1


def test_criterion_4_durfee_product():
    alpha = parse_partition("5^2,3^2,2")
    beta = parse_partition("4,3,1^2")
    with criterion(4, "certified Durfee-maximal witnesses of the worked product", 0.100):
        report = max_durfee_product(alpha, beta)
        assert report.m == 9 and report.max_durfee == 4
        assert [(w.nu_inverse, w.mult) for w in report.witnesses] == [
            (P(6, 6, 6, 5, 4), 1),
            (P(6, 6, 5, 5, 4, 1), 3),
            (P(6, 5, 5, 5, 4, 2), 3),
            (P(5, 5, 5, 5, 4, 3), 1),
        ]
    with criterion(4, "exhaustive path: top multiplicity 13 among Durfee-4 constituents", 300.0):
        exhaustive = max_durfee_product(alpha, beta, exhaustive=True)
        top = max(w.mult for w in exhaustive.witnesses)
        assert top == 13
        attainers = {w.nu_inverse for w in exhaustive.witnesses if w.mult == top}
        for text in ("7,6,5,4,3,1^2", "7,5^2,4,3,2,1", "7,6,5,4,3,2", "7,6,4^2,3,2,1"):
            assert parse_partition(text) in attainers
        # the product carries one further top-multiplicity constituent
        assert attainers == {
            P(7, 6, 5, 4, 3, 2),
            P(7, 6, 5, 4, 3, 1, 1),
            P(7, 6, 4, 4, 3, 2, 1),
            P(7, 5, 5, 4, 3, 2, 1),
            P(6, 6, 5, 4, 3, 2, 1),
        }


def test_criterion_5_equality_goldens():
    with criterion(5, "stripped-pair decompositions and full inequality of the pair", 5.0):
        a_terms = dict(decompose_skew(parse_skew("4^4,3^2 / 3^4")).items())
        assert a_terms == {P(4, 4, 1, 1): 1, P(4, 3, 1, 1, 1): 1, P(3, 3, 1, 1, 1, 1): 1}
        b_terms = dict(decompose_skew(parse_skew("4^2,2^2,1^2 / 1^4")).items())
        assert b_terms == {
            P(4, 4, 1, 1): 1,
            P(4, 3, 1, 1, 1): 1,
            P(3, 3, 1, 1, 1, 1): 1,
            P(4, 3, 2, 1): 1,
            P(3, 3, 2, 2): 1,
            P(3, 3, 2, 1, 1): 1,
        }
        pair = ["10^2,8^4,5^2 / 5^4", "10^4,8^2,3^2 / 5^4"]
        code, text = run(parse_args(["eqcheck", *pair]))
        assert code == EXIT_OK
        assert text.count("pi_nw ok") == 5 and "structural: pass" in text
        code, text = run(parse_args(["eqcheck", *pair, "--full"]))
        assert code == EXIT_UNEQUAL and "full: unequal" in text


def test_criterion_6_oracle_equivalence_sweep():
    with criterion(6, "500 random diagrams: constructions match the oracle", 120.0):
        rng = random.Random(660)
        for _ in range(500):
            a = random_skew(rng, max_rows=8, max_cols=8, max_boxes=14)
            cs = decompose_skew(a)
            support = cs.support()
            best = max(principal_hook_lengths(nu) for nu in support)
            max_subset = {nu: m for nu, m in cs.items() if principal_hook_lengths(nu) == best}
            report = max_hl_characters(a)
            assert hl_of_skew(a) == best
            assert {w.nu: w.mult for w in report.witnesses} == max_subset
            assert min_durfee(a) == min(durfee(nu) for nu in support)
            assert pi_max(a) == support[0] and cs[support[0]] == 1
            assert pi_min(a) == support[-1] and cs[support[-1]] == 1


def test_criterion_7_lr_law_sweep():
    with criterion(7, "500 random instances: LR symmetries and labeling laws", 120.0):
        rng = random.Random(770)
        for _ in range(500):
            # symmetry of the coefficient in the last two arguments
            lam = random_partition(rng, 6, 4)
            mu = random_subpartition(rng, lam)
            rest = lam.weight - mu.weight
            if rest and rng.random() < 0.5:
                nu = rng.choice(decompose_skew(SkewDiagram(lam, mu)).support())
            else:
                nu = random_partition(rng, max(rest, 1), max(rest, 1))
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)

            # rotation and translation invariance of the decomposition
            a = random_skew(rng, max_rows=6, max_cols=6, max_boxes=12)
            cs = decompose_skew(a)
            assert decompose_skew(rotate180(a)) == cs
            assert decompose_skew(translate(a, rng.randint(0, 2), rng.randint(0, 2))) == cs

            # first-hook-strip identity
            base = random_partition(rng, 4, 3)
            if base:
                bar_nu = random_partition(rng, base[0] - 1, base.length - 1)
                nu2 = Partition([base[0]] + [bar_nu[i] + 1 for i in range(base.length - 1)])
                mu2 = random_partition(rng, 4, 3)
                assert lr_coefficient(base, mu2, nu2) == lr_coefficient(
                    first_hook_strip(base), mu2, first_hook_strip(nu2)
                )

            # labeling recurrence on every box
            labels = label_map(nw_labeling(a))
            for (r, c), v in labels.items():
                northwest = labels.get((r - 1, c - 1))
                assert (v == 1) == (northwest is None)
                if v > 1:
                    assert northwest == v - 1


def test_criterion_8_complementation_sweep():
    with criterion(8, "complement identity for every nested pair in boxes up to 16 cells", 300.0):
        for k in range(1, 17):
            for l in range(1, 16 // k + 1):
                for lam in partitions_in_box(k, l):
                    for mu in subpartitions(lam):
                        assert verify_complementation(mu, lam, k, l)


def test_criterion_9_special_skew_spot_checks():
    with criterion(9, "square-framed skew shapes match the oracle Durfee maximum", 10.0):
        cases = [(SD((2, 2), (1,)), 1), (SD((3, 3, 2), (1, 1)), 2)]
        cases += [(SD((l,) * l), l) for l in range(1, 5)]
        for a, expected in cases:
            report = max_durfee_special_skew(a)
            assert report.max_durfee == expected
            assert expected == max(durfee(nu) for nu in decompose_skew(a).support())

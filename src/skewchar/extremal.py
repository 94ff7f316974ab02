"""Constituents with extremal principal hook lengths and minimal Durfee size.

The maximal hook length partition of a skew character equals its northwest
ribbon length partition, and every constituent attaining it is obtained
from one intersection partition gamma by distributing, for each layer that
splits into k ribbons, k-1 extra boxes between the row and the column of
the layer's diagonal box.  The number of ways to realize a distribution is
the constituent's multiplicity.  These constructions are polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .partitions import Partition, conjugate, from_frobenius
from .ribbons import RibbonProfile, nw_labeling
from .skew import SkewDiagram


@dataclass(frozen=True)
class MaxHookWitness:
    nu: Partition
    mult: int
    choices: tuple[int, ...]


@dataclass(frozen=True)
class MaxHookReport:
    hl: Partition
    gamma: Partition
    witnesses: tuple[MaxHookWitness, ...]
    distinct_count: int
    min_durfee: int

    def to_json_dict(self) -> dict:
        return {
            "hl": list(self.hl.parts),
            "gamma": list(self.gamma.parts),
            "distinct": self.distinct_count,
            "min_durfee": self.min_durfee,
            "witnesses": [
                {"nu": list(w.nu.parts), "mult": w.mult, "choices": list(w.choices)}
                for w in self.witnesses
            ],
        }


def hl_of_skew(a: SkewDiagram) -> Partition:
    """Lexicographically largest principal hook length partition in the character."""
    return nw_labeling(a).pi_nw


def _checked_frobenius(arms: list[int], legs: list[int], what: str) -> Partition:
    """`from_frobenius`, whose refusal here is a broken invariant, not bad input."""
    try:
        return from_frobenius(arms, legs)
    except ValueError as exc:
        raise AssertionError(f"invalid {what}: {exc}") from exc


def _gamma(profiles: tuple[RibbonProfile, ...]) -> Partition:
    return _checked_frobenius([p.arm for p in profiles], [p.leg for p in profiles], "gamma")


def gamma_partition(a: SkewDiagram) -> Partition:
    """Intersection of all constituents with maximal hook length partition."""
    return _gamma(nw_labeling(a).profiles)


def max_hl_characters(a: SkewDiagram) -> MaxHookReport:
    """All constituents whose hook length partition is maximal, with multiplicities."""
    profiles = nw_labeling(a).profiles
    gamma = _gamma(profiles)
    ks = [p.k for p in profiles]
    witnesses = []
    for choice in itertools.product(*(range(k) for k in ks)):
        w_arms = [p.arm + c for p, c in zip(profiles, choice)]
        w_legs = [p.leg + p.k - 1 - c for p, c in zip(profiles, choice)]
        nu = _checked_frobenius(w_arms, w_legs, f"witness for choices {choice}")
        mult = math.prod(math.comb(ks[i] - 1, choice[i]) for i in range(len(ks)))
        witnesses.append(MaxHookWitness(nu, mult, tuple(choice)))
    witnesses.sort(key=lambda w: w.nu.parts, reverse=True)
    hl = Partition(p.size for p in profiles)
    return MaxHookReport(
        hl=hl,
        gamma=gamma,
        witnesses=tuple(witnesses),
        distinct_count=math.prod(ks),
        min_durfee=hl.length,
    )


def min_durfee(a: SkewDiagram) -> int:
    """Smallest Durfee size over all constituents of the character."""
    return hl_of_skew(a).length


def pi_min(a: SkewDiagram) -> Partition:
    """Lexicographically smallest constituent: the sorted row lengths."""
    return Partition(sorted(a.row_lengths(), reverse=True))


def pi_max(a: SkewDiagram) -> Partition:
    """Lexicographically largest constituent: conjugate of the sorted column heights."""
    return conjugate(Partition(sorted(a.column_heights(), reverse=True)))

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
from collections import namedtuple

from .partitions import Partition, _echo, conjugate, from_frobenius
from .ribbons import RibbonProfile, nw_layers
from .skew import SkewDiagram


# max_hl_characters refuses to list more witnesses than this; their number,
# the product of the layers' ribbon counts, is not bounded by the box count
MAX_WITNESSES = 100_000


class TooManyWitnesses(Exception):
    """`max_hl_characters` would list more than `MAX_WITNESSES` witnesses."""


MaxHookWitness = namedtuple("MaxHookWitness", "nu mult choices")


class MaxHookReport(namedtuple("MaxHookReport", "hl gamma witnesses distinct_count min_durfee")):
    __slots__ = ()

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
    return nw_layers(a)[0]


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
    return _gamma(nw_layers(a)[1])


def max_hl_characters(a: SkewDiagram) -> MaxHookReport:
    """All constituents whose hook length partition is maximal, with multiplicities.

    Raises `TooManyWitnesses`, before listing any, when there are more than
    `MAX_WITNESSES` of them.
    """
    hl, profiles = nw_layers(a)
    gamma = _gamma(profiles)
    ks = [p.k for p in profiles]
    count = math.prod(ks)
    if count > MAX_WITNESSES:
        # quoted like an input: its leading digits, cut to about 62 first,
        # since str() refuses an int past 4 300 digits
        cut = max(0, (count.bit_length() - 1) * 3 // 10 - 61)
        raise TooManyWitnesses(f"{_echo(str(count // 10**cut))} witnesses, more than {MAX_WITNESSES}")
    witnesses = []
    for choice in itertools.product(*(range(k) for k in ks)):
        w_arms = [p.arm + c for p, c in zip(profiles, choice)]
        w_legs = [p.leg + p.k - 1 - c for p, c in zip(profiles, choice)]
        nu = _checked_frobenius(w_arms, w_legs, f"witness for choices {choice}")
        mult = math.prod(math.comb(ks[i] - 1, choice[i]) for i in range(len(ks)))
        witnesses.append(MaxHookWitness(nu, mult, tuple(choice)))
    witnesses.sort(key=lambda w: w.nu.parts, reverse=True)
    return MaxHookReport(
        hl=hl,
        gamma=gamma,
        witnesses=tuple(witnesses),
        distinct_count=count,
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

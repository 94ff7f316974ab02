"""Maximal Durfee sizes via box complementation.

Constituents of a product of two irreducibles correspond, by complementation
inside an ambient m x m square, to constituents of an associated skew
diagram; Durfee-maximal constituents of the product are the complements of
the hook-length-maximal ones there.  The same mechanism covers skew shapes
whose outer partition is a width-l, length-l staircase topped by a full
rectangle; for those the ambient square for witness complements is (l^l),
the same square that complements the outer partition.

Witness lists on the non-exhaustive paths are certified lower bounds, not
complete listings; `exhaustive=True` expands the full character instead:
the brute-force oracle `brute_decompose` for a product, which raises
`TooManyFillings` past `lr.MAX_FILLINGS` fillings, the merged search for a
square-framed skew shape.
"""

from __future__ import annotations

from collections import namedtuple

from .extremal import max_hl_characters, min_durfee
from .lr import CharacterSum, brute_decompose, decompose_skew, schubert_product
from .partitions import Partition, _format_parts, contains, durfee
from .skew import SkewDiagram, embed_disjoint


DurfeeWitness = namedtuple("DurfeeWitness", "nu_inverse mult")


class DurfeeMaxReport(namedtuple("DurfeeMaxReport", "m associated max_durfee witnesses exhaustive")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "associated": {
                "outer": list(self.associated.outer.parts),
                "inner": list(self.associated.inner.parts),
            },
            "max_durfee": self.max_durfee,
            "witnesses": [
                {"nu_inverse": list(w.nu_inverse.parts), "mult": w.mult}
                for w in self.witnesses
            ],
            "exhaustive": self.exhaustive,
        }


def complement(nu: Partition, k: int, l: int) -> Partition:
    """Rotated complement of nu inside the k x l box; an involution."""
    if k < 1 or l < 1:
        raise ValueError("box sides must be positive")
    return Partition._trusted(_complement_parts(nu.parts, k, l))


def _complement_parts(parts: tuple[int, ...], k: int, l: int) -> tuple[int, ...]:
    """`complement` on a parts tuple, with no `Partition` made or validated."""
    if parts and (parts[0] > k or len(parts) > l):
        raise ValueError(f"partition {_format_parts(parts)} does not fit inside ({k}^{l})")
    # the empty rows below nu become full rows; its full rows, empty ones
    return (k,) * (l - len(parts)) + tuple([k - x for x in reversed(parts) if x < k])


def associated_diagram(alpha: Partition, beta: Partition) -> tuple[int, SkewDiagram]:
    """Ambient square side and the diagram complementary to the product of alpha, beta."""
    if not alpha and not beta:
        raise ValueError("alpha and beta must not both be empty")
    m = max(alpha[0] + beta[0], alpha.length + beta.length)
    return m, SkewDiagram(complement(alpha, m, m), beta)


def _durfee_report(m: int, assoc: SkewDiagram, full: CharacterSum | None) -> DurfeeMaxReport:
    """The report for the maximal Durfee size, with its witnesses cross-checked.

    The maximal Durfee size is m minus the minimal Durfee size of `assoc`.
    Given the full expansion `full`, the witnesses are every attainer in
    it, exhaustively.  Otherwise they are the complements in the m x m
    square of the max-hl constituents of `assoc`.
    """
    if full is not None:
        d = m - min_durfee(assoc)
        dmax = max(durfee(nu) for nu in full.support())
        if dmax != d:
            raise AssertionError(f"oracle Durfee maximum {dmax} disagrees with formula {d}")
        wits = tuple([DurfeeWitness(nu, mult) for nu, mult in full.items() if durfee(nu) == d])
    else:
        max_hl = max_hl_characters(assoc)
        d = m - max_hl.min_durfee
        wits = [DurfeeWitness(complement(w.nu, m, m), w.mult) for w in max_hl.witnesses]
        wits.sort(key=lambda w: w.nu_inverse.parts, reverse=True)
        wits = tuple(wits)
        for w in wits:
            if durfee(w.nu_inverse) != d:
                raise AssertionError(f"witness {w.nu_inverse} misses Durfee size {d}")
    return DurfeeMaxReport(m, assoc, d, wits, exhaustive=full is not None)


def max_durfee_product(
    alpha: Partition, beta: Partition, exhaustive: bool = False
) -> DurfeeMaxReport:
    """Largest Durfee size among constituents of the product, with witnesses."""
    m, assoc = associated_diagram(alpha, beta)
    return _durfee_report(m, assoc, brute_decompose(embed_disjoint(alpha, beta)) if exhaustive else None)


def max_durfee_special_skew(a: SkewDiagram, exhaustive: bool = False) -> DurfeeMaxReport:
    """Largest Durfee size for skew shapes whose outer part is square-framed.

    Requires outer = (w^k, ...) of length l with w = l, k at least the
    length of the inner partition, and the inner partition no wider than
    the outer partition's last part.  Each precondition failure names its
    clause.
    """
    lam, mu = a.outer, a.inner
    l = lam.length
    if not lam:
        raise ValueError("outer partition must be nonempty")
    if lam[0] != l:
        raise ValueError(f"outer width {lam[0]} must equal outer length {l}")
    k = 0
    while k < l and lam[k] == lam[0]:
        k += 1
    if k < mu.length:
        raise ValueError(
            f"outer must repeat its first part at least {mu.length} times (inner length), got {k}"
        )
    if mu[0] > lam[l - 1]:
        raise ValueError(f"inner width {mu[0]} must not exceed outer last part {lam[l - 1]}")
    assoc = embed_disjoint(mu, complement(lam, l, l))
    return _durfee_report(l, assoc, decompose_skew(a) if exhaustive else None)


def verify_complementation(mu: Partition, lam: Partition, k: int, l: int) -> bool:
    """Check the complement identity between a skew character and a Schubert product.

    The coefficient of every alpha inside the box in [lam/mu] must equal the
    coefficient of its complement in the box-restricted product of mu with
    the complement of lam.  The two sums are compared as their parts
    tuples, each term of the skew side complemented; a term outside the
    box raises `ValueError`.
    """
    if not contains(mu, lam):
        raise ValueError("mu must be contained in lam")
    parts = lam.parts
    if parts and (parts[0] > k or len(parts) > l):
        raise ValueError(f"lam must fit inside ({k}^{l})")
    skew_side = decompose_skew(SkewDiagram(lam, mu))
    product_side = schubert_product(mu, Partition._trusted(_complement_parts(parts, k, l)), k, l)
    # both supports lie in the box, where complement is a bijection
    complemented = {_complement_parts(alpha, k, l): m for alpha, m in skew_side._terms.items()}
    return complemented == product_side._terms

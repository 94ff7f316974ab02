"""Maximal Durfee sizes via box complementation.

Constituents of a product of two irreducibles correspond, by complementation
inside an ambient m x m square, to constituents of an associated skew
diagram; Durfee-maximal constituents of the product are the complements of
the hook-length-maximal ones there.  The same mechanism covers skew shapes
whose outer partition is a width-l, length-l staircase topped by a full
rectangle; for those the ambient square for witness complements is (l^l),
the same square that complements the outer partition.

Witness lists on the non-exhaustive paths are certified lower bounds, not
complete listings; `exhaustive=True` expands the full character instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extremal import max_hl_characters
from .lr import decompose_skew, outer_product, schubert_product
from .partitions import Partition, contains, durfee
from .skew import SkewDiagram, embed_disjoint


@dataclass(frozen=True)
class DurfeeWitness:
    nu_inverse: Partition
    mult: int


@dataclass(frozen=True)
class DurfeeMaxReport:
    m: int
    associated: SkewDiagram
    max_durfee: int
    witnesses: tuple[DurfeeWitness, ...]
    exhaustive: bool

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
    if nu[0] > k or nu.length > l:
        raise ValueError(f"partition {nu} does not fit inside ({k}^{l})")
    return Partition(k - nu[l - 1 - i] for i in range(l))


def associated_diagram(alpha: Partition, beta: Partition) -> tuple[int, SkewDiagram]:
    """Ambient square side and the diagram complementary to the product of alpha, beta."""
    if not alpha and not beta:
        raise ValueError("alpha and beta must not both be empty")
    m = max(alpha[0] + beta[0], alpha.length + beta.length)
    return m, SkewDiagram(complement(alpha, m, m), beta)


def _durfee_report(m: int, assoc: SkewDiagram, exhaustive: bool, expand) -> DurfeeMaxReport:
    """The report for the maximal Durfee size, with its witnesses cross-checked.

    The maximal Durfee size is m minus the minimal Durfee size of `assoc`.
    Exhaustive witnesses are every attainer in the full expansion
    `expand()`.  Otherwise they are the complements in the m x m square of
    the max-hl constituents of `assoc`.
    """
    max_hl = max_hl_characters(assoc)
    d = m - max_hl.min_durfee
    if exhaustive:
        full = expand()
        dmax = max(durfee(nu) for nu in full.support())
        if dmax != d:
            raise AssertionError(f"oracle Durfee maximum {dmax} disagrees with formula {d}")
        wits = tuple(DurfeeWitness(nu, mult) for nu, mult in full.items() if durfee(nu) == d)
    else:
        wits = [DurfeeWitness(complement(w.nu, m, m), w.mult) for w in max_hl.witnesses]
        wits.sort(key=lambda w: w.nu_inverse.parts, reverse=True)
        wits = tuple(wits)
        for w in wits:
            if durfee(w.nu_inverse) != d:
                raise AssertionError(f"witness {w.nu_inverse} misses Durfee size {d}")
    return DurfeeMaxReport(m=m, associated=assoc, max_durfee=d, witnesses=wits, exhaustive=exhaustive)


def max_durfee_product(
    alpha: Partition, beta: Partition, exhaustive: bool = False
) -> DurfeeMaxReport:
    """Largest Durfee size among constituents of the product, with witnesses."""
    m, assoc = associated_diagram(alpha, beta)
    return _durfee_report(m, assoc, exhaustive, lambda: outer_product(alpha, beta))


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
    return _durfee_report(l, assoc, exhaustive, lambda: decompose_skew(a))


def verify_complementation(mu: Partition, lam: Partition, k: int, l: int) -> bool:
    """Check the complement identity between a skew character and a Schubert product.

    The coefficient of every alpha inside the box in [lam/mu] must equal the
    coefficient of its complement in the box-restricted product of mu with
    the complement of lam.
    """
    if not contains(mu, lam):
        raise ValueError("mu must be contained in lam")
    if lam[0] > k or lam.length > l:
        raise ValueError(f"lam must fit inside ({k}^{l})")
    skew_side = decompose_skew(SkewDiagram(lam, mu))
    product_side = schubert_product(mu, complement(lam, k, l), k, l)
    # both supports lie in the box, where complement is a bijection
    complemented = {complement(alpha, k, l): m for alpha, m in skew_side.items()}
    return complemented == dict(product_side.items())

"""Structural necessary tests and the definitive test for skew character equality.

Equal characters must agree, at every ribbon stripping level, on the ribbon
length partition, the per-layer ribbon counts, and the per-layer arm and leg
lengths.  Passing all structural levels proves nothing; failing any one
proves inequality.  The definitive test proves equality from the components
or compares full decompositions (exponential) term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lr import decompose_skew
from .partitions import Partition
from .ribbons import nw_labeling
from .skew import SkewDiagram, components, rotate180

CONDITIONS = ("pi_nw", "ribbon_count", "arm_leg")


@dataclass(frozen=True)
class LevelRecord:
    level: int
    pi_nw_equal: bool
    k_equal: bool
    armleg_equal: bool


@dataclass(frozen=True)
class Discrepancy:
    partition: Partition
    mult_a: int
    mult_b: int


@dataclass(frozen=True)
class FullCheck:
    equal: bool
    first_discrepancy: Discrepancy | None


@dataclass(frozen=True)
class EqualityReport:
    levels: tuple[LevelRecord, ...]
    passed: bool
    fail_level: int | None
    fail_condition: str | None
    full: FullCheck | None = None

    def to_json_dict(self) -> dict:
        verdict: object = "pass"
        if not self.passed:
            verdict = {"fail": {"level": self.fail_level, "condition": self.fail_condition}}
        full: object = None
        if self.full is not None:
            disc = None
            if self.full.first_discrepancy is not None:
                d = self.full.first_discrepancy
                disc = {"partition": list(d.partition.parts), "mult_a": d.mult_a, "mult_b": d.mult_b}
            full = {"equal": self.full.equal, "first_discrepancy": disc}
        return {
            "levels": [
                {
                    "level": rec.level,
                    "pi_nw_equal": rec.pi_nw_equal,
                    "k_equal": rec.k_equal,
                    "armleg_equal": rec.armleg_equal,
                }
                for rec in self.levels
            ],
            "structural_verdict": verdict,
            "full_check": full,
        }


def necessary_conditions(a: SkewDiagram, b: SkewDiagram) -> EqualityReport:
    """Compare ribbon data of both diagrams at every stripping level.

    Level t compares the suffixes ``profiles[t:]`` of one labeling per
    diagram.  Identity: stripping the first t northwest ribbons and
    relabeling gives the level-0 layers t+1, t+2, ... with every index
    lowered by t.  Proof: a box labeled v > t ends a northwest diagonal
    run labeled 1..v, and stripping removes exactly the run's first t
    boxes, so its new label is v - t.  Layer data ignore translation, so
    no normalization is needed.
    """
    pa, pb = nw_labeling(a).profiles, nw_labeling(b).profiles
    if len(pa) != len(pb):
        # suffixes of different lengths never agree
        flags = [(False, False, False)] * (min(len(pa), len(pb)) + 1)
    else:
        # one backward scan: level t passes a condition when every layer
        # from t on agrees on it
        size_ok = k_ok = armleg_ok = True
        flags = [(True, True, True)]
        for p, q in zip(reversed(pa), reversed(pb)):
            size_ok = size_ok and p.size == q.size
            k_ok = k_ok and p.k == q.k
            armleg_ok = armleg_ok and p.arm == q.arm and p.leg == q.leg
            flags.append((size_ok, k_ok, armleg_ok))
        flags.reverse()
    failure = next(
        ((t, c) for t, level_flags in enumerate(flags) for c, ok in zip(CONDITIONS, level_flags) if not ok),
        None,
    )
    return EqualityReport(
        levels=tuple(LevelRecord(t, *level_flags) for t, level_flags in enumerate(flags)),
        passed=failure is None,
        fail_level=failure[0] if failure else None,
        fail_condition=failure[1] if failure else None,
    )


def _parts(a: SkewDiagram) -> tuple:
    return a.outer.parts, a.inner.parts


def _component_key(a: SkewDiagram) -> list[tuple]:
    """Sorted components, each as the lesser of itself and its half-turn."""
    return sorted(min(_parts(c), _parts(rotate180(c))) for c in components(a))


def full_equality(a: SkewDiagram, b: SkewDiagram) -> tuple[bool, Discrepancy | None]:
    """Definitive equality test by full decomposition (exponential).

    Returns the lexicographically largest partition whose multiplicities
    differ, when there is one.  A character is the product of its components'
    characters, each kept by a half-turn, so diagrams whose components agree
    up to order, translation and half-turns are equal without an expansion.
    """
    if _component_key(a) == _component_key(b):
        return True, None
    da, db = decompose_skew(a), decompose_skew(b)
    for nu in sorted(set(da.support()) | set(db.support()), reverse=True):
        if da[nu] != db[nu]:
            return False, Discrepancy(nu, da[nu], db[nu])
    return True, None


def check_equality(a: SkewDiagram, b: SkewDiagram, full: bool = False) -> EqualityReport:
    """Structural report, optionally extended by the definitive comparison.

    A structural failure already proves inequality, so the expensive full
    check is skipped in that case.
    """
    report = necessary_conditions(a, b)
    if full and report.passed:
        equal, discrepancy = full_equality(a, b)
        report = replace(report, full=FullCheck(equal, discrepancy))
    return report

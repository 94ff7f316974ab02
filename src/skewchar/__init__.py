"""Exact computations with skew characters of symmetric groups.

Decompositions via the Littlewood-Richardson rule, northwest ribbon
decompositions, hook-length-maximal constituents with multiplicities,
Durfee size extremes, and structural equality tests.

The names of `partitions`, `skew` and `render` are imported with the
package.  An engine module (`durfeemax`, `equality`, `extremal`, `lr`,
`ribbons`) is imported on first use of one of its names (PEP 562), so a
command loads only the engines it runs.
"""

import importlib

from .partitions import (
    GrammarError,
    Partition,
    conjugate,
    contains,
    durfee,
    first_hook_strip,
    format_partition,
    from_frobenius,
    parse_partition,
    partitions_in_box,
    principal_hook_lengths,
    subpartitions,
)
from .render import render, render_labels, render_plain
from .skew import (
    SkewDiagram,
    components,
    embed_disjoint,
    format_skew,
    normalize,
    parse_skew,
    rotate180,
    skew_from_boxes,
    translate,
)

__version__ = "0.1.0"

# engine module -> the public names it defines
_ENGINES = {
    "durfeemax": (
        "DurfeeMaxReport",
        "DurfeeWitness",
        "associated_diagram",
        "complement",
        "max_durfee_product",
        "max_durfee_special_skew",
        "verify_complementation",
    ),
    "equality": (
        "Discrepancy",
        "EqualityReport",
        "FullCheck",
        "LevelRecord",
        "check_equality",
        "full_equality",
        "necessary_conditions",
    ),
    "extremal": (
        "MAX_WITNESSES",
        "MaxHookReport",
        "MaxHookWitness",
        "TooManyWitnesses",
        "gamma_partition",
        "hl_of_skew",
        "max_hl_characters",
        "min_durfee",
        "pi_max",
        "pi_min",
    ),
    "lr": (
        "CharacterSum",
        "TooManyFillings",
        "brute_decompose",
        "decompose_skew",
        "enumerate_lr_fillings",
        "lr_coefficient",
        "outer_product",
        "schubert_product",
    ),
    "ribbons": (
        "RibbonLabeling",
        "RibbonProfile",
        "nw_labeling",
        "nw_layers",
        "pi_nw",
        "ribbon_profile",
        "strip_nw_ribbons",
    ),
}
# public name -> its engine module, imported on first use of the name
_ENGINE_OF = {name: module for module, names in _ENGINES.items() for name in names}

# module by module, in alphabetical order of the modules
__all__ = [
    *_ENGINES["durfeemax"],
    *_ENGINES["equality"],
    *_ENGINES["extremal"],
    *_ENGINES["lr"],
    "GrammarError",
    "Partition",
    "conjugate",
    "contains",
    "durfee",
    "first_hook_strip",
    "format_partition",
    "from_frobenius",
    "parse_partition",
    "partitions_in_box",
    "principal_hook_lengths",
    "subpartitions",
    "render",
    "render_labels",
    "render_plain",
    *_ENGINES["ribbons"],
    "SkewDiagram",
    "components",
    "embed_disjoint",
    "format_skew",
    "normalize",
    "parse_skew",
    "rotate180",
    "skew_from_boxes",
    "translate",
]


def __getattr__(name: str):
    """An engine's public name, or an engine module, imported on first use."""
    if name in _ENGINES:
        return importlib.import_module(f".{name}", __name__)
    module = _ENGINE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ENGINES, *_ENGINE_OF})

"""Exact computations with skew characters of symmetric groups.

Decompositions via the Littlewood-Richardson rule, northwest ribbon
decompositions, hook-length-maximal constituents with multiplicities,
Durfee size extremes, and structural equality tests.
"""

from .durfeemax import (
    DurfeeMaxReport,
    DurfeeWitness,
    associated_diagram,
    complement,
    max_durfee_product,
    max_durfee_special_skew,
    verify_complementation,
)
from .equality import (
    Discrepancy,
    EqualityReport,
    FullCheck,
    LevelRecord,
    check_equality,
    full_equality,
    necessary_conditions,
)
from .extremal import (
    MaxHookReport,
    MaxHookWitness,
    gamma_partition,
    hl_of_skew,
    max_hl_characters,
    min_durfee,
    pi_max,
    pi_min,
)
from .lr import (
    CharacterSum,
    TooManyFillings,
    brute_decompose,
    decompose_skew,
    enumerate_lr_fillings,
    is_lattice_word,
    lr_coefficient,
    outer_product,
    schubert_product,
)
from .partitions import (
    GrammarError,
    Partition,
    add_partitions,
    conjugate,
    contains,
    durfee,
    first_hook_strip,
    format_partition,
    frobenius_coordinates,
    from_frobenius,
    lex_compare,
    parse_partition,
    partitions_in_box,
    partitions_of_weight_in_box,
    principal_hook_lengths,
    subpartitions,
)
from .render import render, render_labels, render_plain
from .ribbons import (
    RibbonLabeling,
    RibbonProfile,
    nw_labeling,
    pi_nw,
    ribbon_profile,
    strip_nw_ribbons,
)
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

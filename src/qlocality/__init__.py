"""Locality analysis of subsystem and stabilizer codes embedded in R^D."""

from .bounds import (
    BoundReport,
    ProofConstants,
    ball_volume,
    class_bounds,
    proof_constants,
    regime_check,
)
from .certify import Certificate, expansion_sweep, holographic_certify, theorem_partition_builder
from .codes import (
    CodeParameters,
    DistanceResult,
    LogicalPair,
    SubsystemCode,
    derive_stabilizer,
    distance,
    logical_representatives,
    parameters,
)
from .families import (
    EmbeddedCode,
    bacon_shor,
    build_concat_embedding,
    concatenate,
    saturation_report,
    small_inner_codes,
    surface_code,
)
from .geometry import (
    Box,
    Embedding,
    GridTiling,
    InteractionSet,
    check_density,
    count_long,
    extract_interactions,
    find_tiling,
    packing_bound,
    subdivide,
    validate_embedding,
    verify_tiling,
)
from .pauli import BitMatrix, PauliVector
from .regions import (
    ab_bound_check,
    abc_bound_check,
    boundary,
    check_expansion_lemma,
    check_subset_closure,
    check_union_lemma,
    is_correctable,
    is_dressed_cleanable,
)

__version__ = "0.1.0"

"""Reconstruction of random binary strings from a few deletion-channel
traces, plus the matching information-theoretic hardness constructions."""

from .strings import (
    BitString,
    Interval,
    edit_distance,
    edit_distance_bounded,
    find_closest_subword,
    find_closest_subwords,
    find_common_word,
    random_bits,
)
from .channel import (
    TraceRecord,
    apply_deletions,
    consensus_check,
    image_ceil,
    source_of,
    transmit,
)
from .deserts import contains_long_desert
from .params import (
    DESK_DEFAULTS,
    PAPER_DEFAULTS,
    ReconParams,
    RegimeReport,
    check_regime,
    derive_params,
    reduce_m_traces,
)
from .align import AlignDiagnostics, align
from .bma import BmaDiagnostics, bma_run
from .reconstruct import ReconResult, reconstruct, reconstruct_with_fallback
from .lower_bound import (
    EmbeddingSpec,
    build_alpha_beta,
    compose_traces,
    decode_prlp_bayes,
    embed_instance,
    exact_atomic_failure_prob,
    extract_z,
    find_pattern_occurrences,
    mc_atomic_failure_prob,
    mc_prlp_exact_match,
    sample_prlp,
    simulate_aprlp,
)
from .harness import ExperimentConfig, TrialResult, emit_report, run_experiment
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "Interval",
    "edit_distance",
    "edit_distance_bounded",
    "find_closest_subword",
    "find_closest_subwords",
    "find_common_word",
    "random_bits",
    "TraceRecord",
    "apply_deletions",
    "transmit",
    "source_of",
    "consensus_check",
    "image_ceil",
    "contains_long_desert",
    "DESK_DEFAULTS",
    "PAPER_DEFAULTS",
    "ReconParams",
    "RegimeReport",
    "derive_params",
    "check_regime",
    "reduce_m_traces",
    "AlignDiagnostics",
    "align",
    "BmaDiagnostics",
    "bma_run",
    "ReconResult",
    "reconstruct",
    "reconstruct_with_fallback",
    "EmbeddingSpec",
    "build_alpha_beta",
    "exact_atomic_failure_prob",
    "mc_atomic_failure_prob",
    "sample_prlp",
    "decode_prlp_bayes",
    "mc_prlp_exact_match",
    "find_pattern_occurrences",
    "embed_instance",
    "extract_z",
    "compose_traces",
    "simulate_aprlp",
    "ExperimentConfig",
    "TrialResult",
    "run_experiment",
    "emit_report",
    "stream",
    "__version__",
]

"""The paper's contribution: CDPF and CDPF-NE."""

from .cdpf import CDPFStats, CDPFTracker, bearing_log_kernel, quantization_sigma
from .multitarget import MultiTargetCDPF, Track
from .contributions import (
    contribution_of,
    estimated_contributions,
    is_normalized,
    linear_probability,
    pairwise_ratio_consistent,
)
from .propagation import (
    HolderSet,
    PropagationConfig,
    combine_shares,
    division_shares,
    implied_velocity,
    select_recorders,
)

__all__ = [
    "CDPFStats", "CDPFTracker", "bearing_log_kernel", "quantization_sigma",
    "MultiTargetCDPF", "Track",
    "contribution_of", "estimated_contributions", "is_normalized",
    "linear_probability", "pairwise_ratio_consistent",
    "HolderSet", "PropagationConfig", "combine_shares", "division_shares",
    "implied_velocity", "select_recorders",
]

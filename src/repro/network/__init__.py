"""Wireless sensor network simulation substrate."""

from .deployment import (
    Deployment,
    clustered_deployment,
    density_to_count,
    grid_deployment,
    poisson_deployment,
    uniform_deployment,
)
from .energy import EnergyBreakdown, EnergyModel
from .faults import (
    CrashFault,
    FaultPlan,
    LossBurst,
    RegionPartition,
    SleepWindow,
)
from .links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
    LinkModel,
    LinkOutcome,
)
from .codec import (
    CodecError,
    decode,
    decode_particles,
    decode_scalar,
    encode,
    encode_particles,
    encode_scalar,
    wire_size,
)
from .latency import (
    Transmission,
    broadcast_round_slots,
    conflict_matrix,
    convergecast_slots,
)
from .medium import CommAccounting, Delivery, Medium
from .mobility import GroupDriftMobility, RandomDriftMobility
from .messages import (
    AckMessage,
    DataSizes,
    EstimateReportMessage,
    FilterStateMessage,
    MeasurementMessage,
    Message,
    ParticleMessage,
    QuantizedMeasurementMessage,
    QueryMessage,
    TotalWeightMessage,
    WakeupMessage,
    WeightReportMessage,
)
from .radio import RadioModel, protocol_model_receptions
from .reliability import ReliabilityConfig, ReliableUnicast
from .routing import RoutingError, greedy_path, greedy_paths, hop_counts_bfs, path_hop_count
from .sensing import (
    DetectionModel,
    EnergyDetection,
    InstantDetection,
    ProbabilisticDetection,
    SamplingDetection,
)
from .sleep import AlwaysOnSchedule, DutyCycleSchedule, ProactiveWakeup
from .spatial import GridIndex, segment_distances
from .topology import NeighborTables, knowledge_exchange_cost

__all__ = [
    "Deployment", "clustered_deployment", "density_to_count", "grid_deployment",
    "poisson_deployment", "uniform_deployment",
    "EnergyBreakdown", "EnergyModel",
    "CrashFault", "FaultPlan", "LossBurst", "RegionPartition", "SleepWindow",
    "DelayingLink", "DistanceFadingLink", "GilbertElliottLink", "IIDLossLink",
    "LinkModel", "LinkOutcome",
    "ReliabilityConfig", "ReliableUnicast",
    "CodecError", "decode", "decode_particles", "decode_scalar",
    "encode", "encode_particles", "encode_scalar", "wire_size",
    "Transmission", "broadcast_round_slots", "conflict_matrix", "convergecast_slots",
    "CommAccounting", "Delivery", "Medium",
    "GroupDriftMobility", "RandomDriftMobility",
    "AckMessage",
    "DataSizes", "EstimateReportMessage", "FilterStateMessage", "MeasurementMessage",
    "Message", "ParticleMessage", "QuantizedMeasurementMessage", "QueryMessage",
    "TotalWeightMessage", "WakeupMessage", "WeightReportMessage",
    "RadioModel", "protocol_model_receptions",
    "RoutingError", "greedy_path", "greedy_paths", "hop_counts_bfs", "path_hop_count",
    "DetectionModel", "EnergyDetection", "InstantDetection", "ProbabilisticDetection",
    "SamplingDetection",
    "AlwaysOnSchedule", "DutyCycleSchedule", "ProactiveWakeup",
    "GridIndex", "segment_distances",
    "NeighborTables", "knowledge_exchange_cost",
]

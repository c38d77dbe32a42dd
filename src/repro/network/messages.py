"""Message types and the paper's byte-cost model.

The evaluation (§VI-B) assumes a 32-bit platform where a particle state is
four integers and a measurement or a weight is one integer each:

    Dp = 16 bytes   (particle: x, y, x', y')
    Dm = 4 bytes    (one measurement)
    Dw = 4 bytes    (one weight)

Every message class computes its own wire size from a :class:`DataSizes`
instance, so Table I's analytic formulas and the simulator's measured
accounting share a single source of truth.  A round that hands its data
over without building messages (a tracker's direct handoff when every copy
would arrive) is sized and value-checked by its message class's
``round_bytes``, next to ``payload_bytes``.  ``header`` defaults to 0 to match
the paper's accounting (which ignores MAC/PHY framing); the energy ablation
sets it non-zero to show why *message count* dominates *byte count* in
duty-cycled networks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "DataSizes",
    "Message",
    "ParticleMessage",
    "MeasurementMessage",
    "WeightReportMessage",
    "TotalWeightMessage",
    "QueryMessage",
    "AckMessage",
    "QuantizedMeasurementMessage",
    "FilterStateMessage",
    "WakeupMessage",
    "EstimateReportMessage",
    "message_to_state",
    "message_from_state",
]


@dataclass(frozen=True)
class DataSizes:
    """Per-field wire sizes in bytes (paper defaults for a 32-bit platform)."""

    particle: int = 16  # Dp
    measurement: int = 4  # Dm
    weight: int = 4  # Dw
    header: int = 0  # per-message framing overhead (0 = paper's accounting)

    def __post_init__(self) -> None:
        for name in ("particle", "measurement", "weight", "header"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} size must be non-negative")


PAPER_SIZES = DataSizes()


@dataclass(frozen=True)
class Message:
    """Base class for everything that travels over the radio.

    Subclasses override :meth:`payload_bytes`; the total wire size adds the
    (configurable) header.  Messages are immutable so a broadcast can hand
    the *same* object to every receiver without aliasing hazards.
    """

    category: ClassVar[str] = "generic"

    def payload_bytes(self, sizes: DataSizes) -> int:
        raise NotImplementedError

    def size_bytes(self, sizes: DataSizes) -> int:
        return sizes.header + self.payload_bytes(sizes)

    def dedupe_key(self) -> tuple:
        """Stable identity for receiver-side duplicate suppression.

        A retransmission resends the *same* message object, so object
        identity plus (type, sender, iteration) is exactly the stop-and-wait
        sequence tag the reliability layer needs: retransmits of one message
        collapse, while two distinct messages from the same sender in the
        same iteration never do.
        """
        return (
            type(self).__name__,
            getattr(self, "sender", None),
            getattr(self, "iteration", None),
            id(self),
        )


def _as_readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ParticleMessage(Message):
    """A batch of particles plus their weights, broadcast one hop.

    This is the *propagation* message of SDPF/CDPF/CDPF-NE.  Its payload is
    ``n * (Dp + Dw)``: the paper's propagation cost term.

    Attributes
    ----------
    states:
        ``(n, d)`` particle states (d = 4 for the CV model).
    weights:
        ``(n,)`` unnormalized weights.
    predicted_position:
        The sender's predicted target position (carried so recorders can
        evaluate the linear probability model consistently); charged at one
        particle's state cost only when ``carry_prediction`` is True.
    """

    category: ClassVar[str] = "propagation"

    sender: int
    iteration: int
    states: np.ndarray
    weights: np.ndarray
    predicted_position: np.ndarray | None = None
    carry_prediction: bool = False

    def __post_init__(self) -> None:
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if states.shape[0] != weights.shape[0]:
            raise ValueError(
                f"states/weights length mismatch: {states.shape[0]} vs {weights.shape[0]}"
            )
        self._check(weights)
        object.__setattr__(self, "states", _as_readonly(states))
        object.__setattr__(self, "weights", _as_readonly(weights))
        if self.predicted_position is not None:
            object.__setattr__(
                self, "predicted_position", _as_readonly(self.predicted_position)
            )

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @staticmethod
    def _check(weights: np.ndarray) -> None:
        if (weights < 0).any():
            raise ValueError("particle weights must be non-negative")

    def payload_bytes(self, sizes: DataSizes) -> int:
        extra = sizes.particle if (self.carry_prediction and self.predicted_position is not None) else 0
        return self.n_particles * (sizes.particle + sizes.weight) + extra

    @classmethod
    def round_bytes(cls, sizes: DataSizes, n_messages: int, weights: np.ndarray) -> int:
        """Wire bytes of ``n_messages`` messages (no carried prediction)
        whose particles' weights are ``weights``, after the check each
        message's construction makes."""
        cls._check(weights)
        return sizes.header * n_messages + (sizes.particle + sizes.weight) * len(weights)


@dataclass(frozen=True)
class MeasurementMessage(Message):
    """A single scalar measurement shared locally (or convergecast to a sink)."""

    category: ClassVar[str] = "measurement"

    sender: int
    iteration: int
    value: float
    sensor_position: np.ndarray | None = None

    def __post_init__(self) -> None:
        self._check(self.value)
        if self.sensor_position is not None:
            object.__setattr__(self, "sensor_position", _as_readonly(self.sensor_position))

    @staticmethod
    def _check(values) -> None:
        """Reject a non-finite reading (``values``: one or a sequence)."""
        finite = np.isfinite(values)
        if not finite.all():
            bad = values if finite.ndim == 0 else np.asarray(values)[~finite][0]
            raise ValueError(f"measurement must be finite, got {bad}")

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.measurement

    @classmethod
    def round_bytes(cls, sizes: DataSizes, n_messages: int, values) -> int:
        """Wire bytes of ``n_messages`` messages carrying the readings
        ``values`` (a multi-hop packet sends its one reading once per hop),
        after the check each message's construction makes."""
        cls._check(values)
        return (sizes.header + sizes.measurement) * n_messages


@dataclass(frozen=True)
class WeightReportMessage(Message):
    """SDPF: a node reports its particle weights to the global transceiver."""

    category: ClassVar[str] = "weight_aggregation"

    sender: int
    iteration: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        self._check(weights)
        object.__setattr__(self, "weights", _as_readonly(weights))

    @staticmethod
    def _check(weights: np.ndarray) -> None:
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")

    def payload_bytes(self, sizes: DataSizes) -> int:
        return self.weights.shape[0] * sizes.weight

    @classmethod
    def round_bytes(cls, sizes: DataSizes, n_messages: int, weights: np.ndarray) -> int:
        """Wire bytes of ``n_messages`` reports whose weights are
        ``weights``, after the check each report's construction makes."""
        cls._check(weights)
        return sizes.header * n_messages + sizes.weight * len(weights)


@dataclass(frozen=True)
class TotalWeightMessage(Message):
    """SDPF: the global transceiver broadcasts the aggregated total weight."""

    category: ClassVar[str] = "weight_aggregation"

    sender: int
    iteration: int
    total_weight: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.total_weight) and self.total_weight >= 0):
            raise ValueError(f"total weight must be finite and >= 0, got {self.total_weight}")

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.weight


@dataclass(frozen=True)
class QueryMessage(Message):
    """SDPF: transceiver's query in the three-way handshake (weight-sized)."""

    category: ClassVar[str] = "weight_aggregation"

    sender: int
    iteration: int

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.weight


@dataclass(frozen=True)
class AckMessage(Message):
    """Generic acknowledgement (weight-sized, header-dominated)."""

    category: ClassVar[str] = "control"

    sender: int
    iteration: int

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.weight


@dataclass(frozen=True)
class QuantizedMeasurementMessage(Message):
    """Compression-based DPF (Coates 2004): a measurement quantized to b bits."""

    category: ClassVar[str] = "measurement"

    sender: int
    iteration: int
    code: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if not (0 <= self.code < 2**self.bits):
            raise ValueError(f"code {self.code} out of range for {self.bits} bits")

    def payload_bytes(self, sizes: DataSizes) -> int:
        return max(1, (self.bits + 7) // 8)


@dataclass(frozen=True)
class FilterStateMessage(Message):
    """Compression-based DPF: a parametric posterior summary forwarded between leaders.

    ``n_params`` scalar parameters (e.g. GMM means/covs/weights), each charged
    one weight-sized integer, matching Coates' "P bytes per message" model.
    """

    category: ClassVar[str] = "state_forward"

    sender: int
    iteration: int
    params: np.ndarray

    def __post_init__(self) -> None:
        params = np.atleast_1d(np.asarray(self.params, dtype=np.float64))
        if not np.isfinite(params).all():
            raise ValueError("filter-state params must be finite")
        object.__setattr__(self, "params", _as_readonly(params))

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    def payload_bytes(self, sizes: DataSizes) -> int:
        return self.n_params * sizes.weight


@dataclass(frozen=True)
class WakeupMessage(Message):
    """TDSS-style proactive wake-up beacon toward the predicted area."""

    category: ClassVar[str] = "control"

    sender: int
    iteration: int
    predicted_position: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicted_position", _as_readonly(self.predicted_position))

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.measurement * 2  # an (x, y) coordinate pair


@dataclass(frozen=True)
class EstimateReportMessage(Message):
    """Optional per-iteration estimate report toward the sink (not counted by default)."""

    category: ClassVar[str] = "report"

    sender: int
    iteration: int
    estimate: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimate", _as_readonly(self.estimate))

    def payload_bytes(self, sizes: DataSizes) -> int:
        return sizes.measurement * 2


# ---------------------------------------------------------------------------
# checkpoint codec: messages <-> plain state dicts
# ---------------------------------------------------------------------------

#: every concrete wire type, by class name — the checkpoint registry.  The
#: wire codec (``network.codec``) is lossy fixed-point and unusable here;
#: checkpoints must restore the exact float64 fields.
_MESSAGE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ParticleMessage,
        MeasurementMessage,
        WeightReportMessage,
        TotalWeightMessage,
        QueryMessage,
        AckMessage,
        QuantizedMeasurementMessage,
        FilterStateMessage,
        WakeupMessage,
        EstimateReportMessage,
    )
}


def message_to_state(message: Message) -> dict:
    """Lossless plain-state form of one message (class name + field values).

    Arrays stay numpy arrays; the checkpoint codec serializes them exactly.
    """
    name = type(message).__name__
    if name not in _MESSAGE_TYPES:
        raise TypeError(
            f"cannot checkpoint a {name}; register it in messages._MESSAGE_TYPES"
        )
    return {
        "type": name,
        "fields": {
            f.name: getattr(message, f.name)
            for f in dataclasses.fields(message)
        },
    }


def message_from_state(state: dict) -> Message:
    """Rebuild a message from :func:`message_to_state` output.

    Construction goes through the class's own ``__post_init__`` validation,
    so a corrupted checkpoint fails loudly instead of producing an invalid
    message.
    """
    cls = _MESSAGE_TYPES.get(state.get("type"))
    if cls is None:
        raise TypeError(
            f"unknown checkpointed message type {state.get('type')!r}"
        )
    return cls(**state["fields"])

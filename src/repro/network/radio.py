"""Radio propagation: the Gupta-Kumar protocol model (§II-C2).

Transmission and interference depend only on Euclidean distance:

* node ``j`` can *hear* node ``i`` iff ``|x_i - x_j| <= R_c`` (the
  communication radius);
* a concurrent transmission from ``k`` *destroys* the reception at ``j``
  iff ``|x_k - x_j| <= (1 + delta) * R_c``.

The trackers run over an idealized MAC that serializes transmissions within a
phase (no collisions — matching the paper's cost accounting, which counts
every transmission as delivered).  The collision model is still implemented
and used by the robustness ablation to inject loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.geometry import fma_many

__all__ = ["RadioModel", "protocol_model_receptions"]


@dataclass(frozen=True)
class RadioModel:
    """Static radio parameters.

    The paper assumes the sensing radius is at most half the communication
    radius (§II-C2) — that inequality is what makes overhearing-based weight
    aggregation complete (every node in an estimation area hears every other
    one).  :meth:`validate_against_sensing` enforces it.
    """

    comm_radius: float = 30.0
    interference_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.comm_radius <= 0:
            raise ValueError(f"comm_radius must be positive, got {self.comm_radius}")
        if self.interference_delta < 0:
            raise ValueError(
                f"interference_delta must be non-negative, got {self.interference_delta}"
            )

    @property
    def interference_radius(self) -> float:
        return (1.0 + self.interference_delta) * self.comm_radius

    def validate_against_sensing(self, sensing_radius: float) -> None:
        """Enforce the paper's assumption ``R_s <= R_c / 2``."""
        if sensing_radius > self.comm_radius / 2.0 + 1e-12:
            raise ValueError(
                f"sensing radius {sensing_radius} violates the paper's assumption "
                f"R_s <= R_c/2 (R_c = {self.comm_radius}); overhearing-based "
                "aggregation is not guaranteed complete"
            )

    def in_range(self, p: np.ndarray, q: np.ndarray) -> bool:
        d = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return float(d @ d) <= self.comm_radius**2

    def in_range_many(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """:meth:`in_range` over the rows of ``p`` and ``q`` (broadcast), bit
        for bit: its ``d @ d`` contracts to ``fma(dy, dy, dx * dx)``."""
        d = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return fma_many(d[..., 1], d[..., 1], d[..., 0] * d[..., 0]) <= self.comm_radius**2


def protocol_model_receptions(
    tx_positions: np.ndarray,
    rx_positions: np.ndarray,
    radio: RadioModel,
) -> np.ndarray:
    """Concurrent-transmission outcome under the protocol model.

    Parameters
    ----------
    tx_positions:
        ``(t, 2)`` positions of simultaneously transmitting nodes.
    rx_positions:
        ``(r, 2)`` positions of listening nodes.

    Returns
    -------
    ``(r, t)`` boolean matrix: entry ``[j, i]`` is True iff receiver ``j``
    successfully decodes transmitter ``i`` — i.e. ``i`` is within the
    communication radius of ``j`` and **no other** transmitter is within the
    interference radius of ``j``.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=np.float64))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=np.float64))
    # (r, t) pairwise distances, vectorized via broadcasting.
    diff = rx[:, None, :] - tx[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    audible = dist <= radio.comm_radius
    interferers = dist <= radio.interference_radius
    n_interferers = interferers.sum(axis=1)
    # Reception of i at j succeeds iff i is audible and the ONLY transmitter
    # inside j's interference radius (i itself counts as one).
    sole = (n_interferers[:, None] - interferers.astype(np.intp)) == 0
    return audible & sole

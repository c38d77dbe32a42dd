"""Measurement models and their likelihoods.

The paper's evaluation uses bearings-only measurements (Eq. 5):

    z_k = arctan(y_k / x_k) + n_k,      n_k ~ N(0, sigma_n^2)

i.e. the bearing of the target as seen from the coordinate origin — the
classic single-observer benchmark [26].  For a *multi-node* WSN each
detecting sensor naturally measures the bearing from *its own position*
(otherwise co-located sensors carry zero extra information), so
:class:`BearingMeasurement` supports both reference conventions; the
distributed evaluation uses ``reference="node"`` and the single-filter sanity
benches use ``reference="origin"`` (see DESIGN.md, substitutions).

All likelihoods handle bearing wrap-around: the innovation is reduced to
(-pi, pi] before the Gaussian density is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "wrap_angle",
    "BearingMeasurement",
    "RangeMeasurement",
    "RangeBearingMeasurement",
    "RSSMeasurement",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Reduce angles to the interval (-pi, pi]."""
    t = np.asarray(theta, dtype=np.float64)
    wrapped = np.mod(t + np.pi, 2.0 * np.pi) - np.pi
    # np.mod maps exact -pi to -pi; keep the half-open convention (-pi, pi].
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def _positions_of(states: np.ndarray) -> np.ndarray:
    """Extract (x, y) from states that may be (n, 2) or (n, 4)."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] not in (2, 4):
        raise ValueError(f"states must be (n, 2) or (n, 4), got {states.shape}")
    return states[:, :2]


def _gaussian_loglik(residual: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError(f"noise std must be positive, got {sigma}")
    return -0.5 * (residual / sigma) ** 2 - np.log(sigma) - 0.5 * _LOG_2PI


@dataclass(frozen=True)
class BearingMeasurement:
    """Bearings-only measurement with selectable reference point.

    Parameters
    ----------
    noise_std:
        sigma_n, standard deviation of the additive bearing noise (radians).
    reference:
        ``"origin"`` — paper Eq. 5, bearing measured from (0, 0);
        ``"node"`` — bearing measured from the sensor's own position
        (``sensor_position`` must then be supplied to every call).
    """

    noise_std: float = 0.05
    reference: str = "node"

    def __post_init__(self) -> None:
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")
        if self.reference not in ("origin", "node"):
            raise ValueError(f"reference must be 'origin' or 'node', got {self.reference!r}")

    def _reference_point(self, sensor_position: np.ndarray | None) -> np.ndarray:
        if self.reference == "origin":
            return np.zeros(2)
        if sensor_position is None:
            raise ValueError("reference='node' requires sensor_position")
        return np.asarray(sensor_position, dtype=np.float64)

    def true_value(self, state: np.ndarray, sensor_position: np.ndarray | None = None) -> float:
        """Noise-free bearing h(x)."""
        pos = _positions_of(state)[0]
        ref = self._reference_point(sensor_position)
        d = pos - ref
        return float(np.arctan2(d[1], d[0]))

    def measure(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        sensor_position: np.ndarray | None = None,
    ) -> float:
        z = self.true_value(state, sensor_position) + rng.normal(0.0, self.noise_std)
        return float(wrap_angle(z))

    def measure_many(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        sensor_positions: np.ndarray,
    ) -> np.ndarray:
        """:meth:`measure` for ``n`` sensors in one vectorized pass.

        Entry ``i`` equals ``measure(state, rng, sensor_positions[i])`` with
        the calls made in row order: every operation is elementwise, and
        ``Generator.normal(size=n)`` produces the stream of ``n`` scalar
        draws.  With ``reference="origin"`` only the row count is read.
        """
        sensors = np.asarray(sensor_positions, dtype=np.float64).reshape(-1, 2)
        refs = np.zeros_like(sensors) if self.reference == "origin" else sensors
        d = _positions_of(state)[0] - refs
        noise = rng.normal(0.0, self.noise_std, size=sensors.shape[0])
        return wrap_angle(np.arctan2(d[:, 1], d[:, 0]) + noise)

    def log_likelihood(
        self,
        states: np.ndarray,
        z: float,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        pos = _positions_of(states)
        ref = self._reference_point(sensor_position)
        d = pos - ref
        predicted = np.arctan2(d[:, 1], d[:, 0])
        residual = wrap_angle(z - predicted)
        return _gaussian_loglik(residual, self.noise_std)

    def likelihood(
        self,
        states: np.ndarray,
        z: float,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        return np.exp(self.log_likelihood(states, z, sensor_position))

    def log_kernel(
        self,
        states: np.ndarray,
        z: float,
        sensor_position: np.ndarray | None = None,
        *,
        noise_std: float | None = None,
    ) -> np.ndarray:
        """log of the normalized kernel exp(-r^2 / 2 sigma^2), always <= 0.

        The distributed trackers multiply many per-sensor factors into one
        particle weight; the kernel form keeps each factor <= 1 so products
        can only underflow (toward a drop), never overflow.  States whose
        position coincides with the sensor get a flat factor (log 0 = 0): a
        bearing constrains direction only, and direction is undefined at the
        sensor itself.  ``noise_std`` overrides the model's sigma (used for
        discretization-aware inflation on node-hosted particles).
        """
        sigma = self.noise_std if noise_std is None else float(noise_std)
        if sigma <= 0:
            raise ValueError(f"noise_std must be positive, got {sigma}")
        pos = _positions_of(states)
        ref = self._reference_point(sensor_position)
        d = pos - ref
        r2 = np.sum(d * d, axis=1)
        predicted = np.arctan2(d[:, 1], d[:, 0])
        residual = wrap_angle(z - predicted)
        out = -0.5 * (residual / sigma) ** 2
        return np.where(r2 < 1e-12, 0.0, out)

    def reference_point(self, sensor_position: np.ndarray | None = None) -> np.ndarray:
        """The point bearings are measured from (origin, or the sensor itself)."""
        return self._reference_point(sensor_position)


@dataclass(frozen=True)
class RangeMeasurement:
    """Range (distance) measurement from a sensor with additive Gaussian noise."""

    noise_std: float = 0.5

    def __post_init__(self) -> None:
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")

    def true_value(self, state: np.ndarray, sensor_position: np.ndarray) -> float:
        pos = _positions_of(state)[0]
        d = pos - np.asarray(sensor_position, dtype=np.float64)
        return float(np.sqrt(d @ d))

    def measure(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        sensor_position: np.ndarray | None = None,
    ) -> float:
        if sensor_position is None:
            raise ValueError("RangeMeasurement requires sensor_position")
        return max(0.0, self.true_value(state, sensor_position) + rng.normal(0.0, self.noise_std))

    def log_likelihood(
        self,
        states: np.ndarray,
        z: float,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        if sensor_position is None:
            raise ValueError("RangeMeasurement requires sensor_position")
        pos = _positions_of(states)
        d = pos - np.asarray(sensor_position, dtype=np.float64)
        predicted = np.sqrt(np.sum(d * d, axis=1))
        return _gaussian_loglik(z - predicted, self.noise_std)

    def likelihood(
        self, states: np.ndarray, z: float, sensor_position: np.ndarray | None = None
    ) -> np.ndarray:
        return np.exp(self.log_likelihood(states, z, sensor_position))


@dataclass(frozen=True)
class RangeBearingMeasurement:
    """Joint range + bearing measurement (2-vector ``z``)."""

    range_std: float = 0.5
    bearing_std: float = 0.05

    def __post_init__(self) -> None:
        # frozen dataclass: use object.__setattr__ for derived members
        object.__setattr__(self, "_range", RangeMeasurement(self.range_std))
        object.__setattr__(
            self, "_bearing", BearingMeasurement(self.bearing_std, reference="node")
        )

    def measure(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        if sensor_position is None:
            raise ValueError("RangeBearingMeasurement requires sensor_position")
        return np.array(
            [
                self._range.measure(state, rng, sensor_position),
                self._bearing.measure(state, rng, sensor_position),
            ]
        )

    def log_likelihood(
        self,
        states: np.ndarray,
        z: np.ndarray,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (2,):
            raise ValueError(f"z must be a (range, bearing) pair, got shape {z.shape}")
        return self._range.log_likelihood(states, float(z[0]), sensor_position) + (
            self._bearing.log_likelihood(states, float(z[1]), sensor_position)
        )

    def likelihood(
        self, states: np.ndarray, z: np.ndarray, sensor_position: np.ndarray | None = None
    ) -> np.ndarray:
        return np.exp(self.log_likelihood(states, z, sensor_position))


@dataclass(frozen=True)
class RSSMeasurement:
    """Received-signal-strength measurement, log-distance path-loss model.

    z = p0 - 10 * eta * log10(max(d, d_min)) + noise.  Used by the adaptive
    initial-weight option of particle creation (§III-B: weight "adaptively
    determined according to the received signal strength").
    """

    p0_dbm: float = -40.0
    path_loss_exponent: float = 2.5
    noise_std: float = 2.0
    d_min: float = 0.1

    def __post_init__(self) -> None:
        if self.noise_std <= 0 or self.path_loss_exponent <= 0 or self.d_min <= 0:
            raise ValueError("noise_std, path_loss_exponent, d_min must be positive")

    def true_value(self, state: np.ndarray, sensor_position: np.ndarray) -> float:
        pos = _positions_of(state)[0]
        d = pos - np.asarray(sensor_position, dtype=np.float64)
        dist = max(float(np.sqrt(d @ d)), self.d_min)
        return self.p0_dbm - 10.0 * self.path_loss_exponent * np.log10(dist)

    def measure(
        self,
        state: np.ndarray,
        rng: np.random.Generator,
        sensor_position: np.ndarray | None = None,
    ) -> float:
        if sensor_position is None:
            raise ValueError("RSSMeasurement requires sensor_position")
        return self.true_value(state, sensor_position) + float(rng.normal(0.0, self.noise_std))

    def log_likelihood(
        self,
        states: np.ndarray,
        z: float,
        sensor_position: np.ndarray | None = None,
    ) -> np.ndarray:
        if sensor_position is None:
            raise ValueError("RSSMeasurement requires sensor_position")
        pos = _positions_of(states)
        d = pos - np.asarray(sensor_position, dtype=np.float64)
        dist = np.maximum(np.sqrt(np.sum(d * d, axis=1)), self.d_min)
        predicted = self.p0_dbm - 10.0 * self.path_loss_exponent * np.log10(dist)
        return _gaussian_loglik(z - predicted, self.noise_std)

    def likelihood(
        self, states: np.ndarray, z: float, sensor_position: np.ndarray | None = None
    ) -> np.ndarray:
        return np.exp(self.log_likelihood(states, z, sensor_position))

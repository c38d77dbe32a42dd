"""Batched likelihood evaluation: all sensors against all holders/particles.

Two call shapes cover every likelihood hot path in the simulator:

* :func:`batch_likelihood` — the distributed trackers' node-hosted form:
  an ``(n_holders, n_sensors)`` matrix of bearing *log-kernels* with the
  discretization-aware sigma inflation of CDPF/SDPF (paper §IV-B): each
  entry replicates ``quantization_sigma`` + ``BearingMeasurement.
  log_kernel`` for one (holder, sensor) pair, bit for bit.
* :func:`batch_bearing_log_likelihood` — the centralized form used by the
  SIR update (CPF / DPF leaders): an ``(n_obs, n_particles)`` matrix of
  full Gaussian bearing log-likelihoods; summing its rows sequentially is
  bit-identical to the per-observation accumulation it replaces.

Plus the vectorized bearing quantizer/dequantizer of the compression DPF.

All formulas are elementwise transcriptions of the scalar code (see
``models/measurement.py`` and ``core/cdpf.py``); elementwise numpy ops are
bitwise independent of batch shape, which is what keeps the golden
differential suite byte-identical after the rewiring.
"""

from __future__ import annotations

import numpy as np

from .geometry import norm2d_many

__all__ = [
    "wrap_angle_many",
    "batch_likelihood",
    "batch_bearing_log_likelihood",
    "quantize_bearings",
    "dequantize_bearings",
    "fused_bearing",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def wrap_angle_many(theta: np.ndarray) -> np.ndarray:
    """Reduce angles to (-pi, pi] (same convention as models.wrap_angle)."""
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def batch_likelihood(
    holder_positions: np.ndarray,
    lam: np.ndarray,
    sensor_positions: np.ndarray,
    zs: np.ndarray,
    noise_std: float,
) -> np.ndarray:
    """Bearing log-kernels of every sensor reading at every particle holder.

    Parameters
    ----------
    holder_positions:
        ``(n, 2)`` positions of the node-hosted particles.
    lam:
        ``(n,)`` per-holder local node density (``(degree + 1) / (pi r_c^2)``),
        driving the discretization sigma ``arctan(h / max(d, h))`` with
        ``h = 0.5 / sqrt(lam)``.
    sensor_positions:
        ``(m, 2)`` reference points of the measurements (the sensing nodes).
    zs:
        ``(m,)`` measured bearings.
    noise_std:
        The measurement model's sigma_n; per-entry it is inflated to
        ``hypot(noise_std, sigma_quant)`` exactly as the scalar path does.

    Returns an ``(n, m)`` matrix; entry ``[i, j]`` equals the scalar chain
    ``quantization_sigma`` -> ``log_kernel`` evaluated for holder ``i`` and
    sensor ``j`` (flat 0.0 where holder and sensor coincide, the kernel's
    undefined-bearing guard).
    """
    hp = np.asarray(holder_positions, dtype=np.float64)
    sp = np.asarray(sensor_positions, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    dx = hp[:, 0, None] - sp[None, :, 0]
    dy = hp[:, 1, None] - sp[None, :, 1]
    # two squared distances on purpose: the scalar chain measures d_sr with
    # np.linalg.norm (FMA-contracted dot) but guards the flat factor with the
    # kernel's own plain mul-add r2 — replicate both bit patterns
    r2 = dx * dx + dy * dy
    d = norm2d_many(dx, dy)
    h = (0.5 / np.sqrt(lam))[:, None]
    sigma_quant = np.where(d > 0, np.arctan(h / np.maximum(d, h)), 0.0)
    sigma_eff = np.hypot(noise_std, sigma_quant)
    predicted = np.arctan2(dy, dx)
    residual = wrap_angle_many(zs[None, :] - predicted)
    out = -0.5 * (residual / sigma_eff) ** 2
    return np.where(r2 < 1e-12, 0.0, out)


def batch_bearing_log_likelihood(
    positions: np.ndarray,
    zs: np.ndarray,
    refs: np.ndarray,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Full Gaussian bearing log-likelihoods: (n_obs, n_particles).

    Row ``i`` equals ``BearingMeasurement(noise_std=sigmas[i]).
    log_likelihood(states, zs[i], refs[i])`` — the centralized SIR update
    sums these rows sequentially, preserving its reduction order.
    """
    positions = np.asarray(positions, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    dx = positions[None, :, 0] - refs[:, 0:1]
    dy = positions[None, :, 1] - refs[:, 1:2]
    predicted = np.arctan2(dy, dx)
    residual = wrap_angle_many(zs[:, None] - predicted)
    return (
        -0.5 * (residual / sigmas[:, None]) ** 2
        - np.log(sigmas)[:, None]
        - 0.5 * _LOG_2PI
    )


def quantize_bearings(zs: np.ndarray, bits: int) -> np.ndarray:
    """Uniformly quantize bearings in (-pi, pi] to b-bit codes (vectorized)."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    levels = 2**bits
    frac = (np.asarray(zs, dtype=np.float64) + np.pi) / (2 * np.pi)
    codes = np.floor(frac * levels).astype(np.int64)
    return np.clip(codes, 0, levels - 1)


def dequantize_bearings(codes: np.ndarray, bits: int) -> np.ndarray:
    """Centers of the codes' quantization cells (vectorized)."""
    levels = 2**bits
    codes = np.asarray(codes)
    if np.any((codes < 0) | (codes >= levels)):
        raise ValueError(f"codes out of range for {bits} bits")
    return (codes + 0.5) / levels * 2 * np.pi - np.pi


def fused_bearing(values: np.ndarray, noise_std: float, bias_std: float):
    """Sufficient statistic of M same-quantity bearings: circular mean + sigma.

    ``sigma_eff^2 = sigma_n^2 / M + sigma_b^2`` — per-sensor noise averages
    down, the common-mode bias does not.
    """
    values = np.asarray(values, dtype=np.float64)
    mean = float(np.arctan2(np.mean(np.sin(values)), np.mean(np.cos(values))))
    sigma_eff = float(np.sqrt(noise_std**2 / values.size + bias_std**2))
    return mean, sigma_eff

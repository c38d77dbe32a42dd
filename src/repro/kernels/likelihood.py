"""Batched likelihood evaluation: holder/reading pairs, sensors x particles.

Two call shapes cover every likelihood hot path in the simulator:

* :func:`batch_likelihood` — the distributed trackers' node-hosted form:
  bearing *log-kernels* with the discretization-aware sigma inflation of
  CDPF/SDPF (paper §IV-B), elementwise over (holder, reading) pairs: each
  entry replicates ``quantization_sigma`` + ``BearingMeasurement.
  log_kernel`` for one pair, bit for bit.
* :func:`batch_bearing_log_likelihood` — the centralized form used by the
  SIR update (CPF / DPF leaders): an ``(n_obs, n_particles)`` matrix of
  full Gaussian bearing log-likelihoods; summing its rows sequentially is
  bit-identical to the per-observation accumulation it replaces.  It can
  run in a caller-owned :class:`Workspace`.

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
    "Workspace",
    "quantize_bearings",
    "dequantize_bearings",
    "fused_bearing",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


#: below this many angles one ``np.mod`` pass is cheaper than the bounded
#: wrap's range check and passes
_BOUNDED_WRAP_MIN = 1024
#: angles per pass of the bounded wrap: its temporaries stay cache-sized
_WRAP_CHUNK = 8192
_TWO_PI = 2.0 * np.pi


def wrap_angle_many(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce angles to (-pi, pi] (same convention as models.wrap_angle).

    ``theta`` is an array; the steps after the first run in place, so the
    result costs one array allocation, or none with ``out`` (which may be
    ``theta`` itself).

    A bearing residual (a wrapped bearing minus an ``arctan2``) lies in
    [-2 pi, 2 pi], so ``w = theta + pi`` lies in [-pi, 3 pi].  There
    ``np.mod(w, 2 pi)`` is ``w - 2 pi`` where ``w >= 2 pi`` (exact, by
    Sterbenz's lemma) and ``w + 2 pi`` where ``w < 0`` (the addition of
    ``np.mod``'s sign fix-up), so two in-place steps give its bits without
    its division.  Elsewhere they subtract or add 0.0, which keeps every
    ``w`` in that range (``w`` is never -0.0 there).  They run over chunks,
    whose temporaries stay cache-sized.  Small arrays, and inputs outside
    that range (NaN included), take ``np.mod``.
    """
    wrapped = np.add(theta, np.pi, out=out)
    if (
        wrapped.size >= _BOUNDED_WRAP_MIN
        and -np.pi <= wrapped.min()
        and wrapped.max() <= 3.0 * np.pi
    ):
        flat = wrapped.reshape(-1)
        for start in range(0, flat.size, _WRAP_CHUNK):
            part = flat[start : start + _WRAP_CHUNK]
            part -= _TWO_PI * (part >= _TWO_PI)
            part += _TWO_PI * (part < 0.0)
    else:
        np.mod(wrapped, _TWO_PI, out=wrapped)
    wrapped -= np.pi
    wrapped[wrapped == -np.pi] = np.pi
    return wrapped


def batch_likelihood(
    holder_positions: np.ndarray,
    lam: np.ndarray,
    sensor_positions: np.ndarray,
    zs: np.ndarray,
    noise_std: float,
) -> np.ndarray:
    """Bearing log-kernels of sensor readings at particle holders, elementwise.

    Entry ``i`` scores the reading ``zs[i]``, taken at
    ``sensor_positions[i]``, at the holder ``holder_positions[i]`` whose
    local density is ``lam[i]``.  The arguments broadcast against each
    other (positions along their last axis), so ``(n, 1, 2)`` holders with
    ``(n, 1)`` densities against ``(m, 2)`` sensors with ``(m,)`` readings
    give the ``(n, m)`` matrix of every pair.

    Parameters
    ----------
    holder_positions:
        ``(..., 2)`` positions of the node-hosted particles.
    lam:
        Per-holder local node density (``(degree + 1) / (pi r_c^2)``),
        driving the discretization sigma ``arctan(h / max(d, h))`` with
        ``h = 0.5 / sqrt(lam)``.
    sensor_positions:
        ``(..., 2)`` reference points of the measurements (the sensing nodes).
    zs:
        Measured bearings.
    noise_std:
        The measurement model's sigma_n; per-entry it is inflated to
        ``hypot(noise_std, sigma_quant)`` exactly as the scalar path does.

    Each entry equals the scalar chain ``quantization_sigma`` ->
    ``log_kernel`` for its holder and reading (flat 0.0 where holder and
    sensor coincide, the kernel's undefined-bearing guard).  Every step is
    an elementwise ufunc, so an entry's bits do not depend on the shape or
    content of the rest of the call.
    """
    hp = np.asarray(holder_positions, dtype=np.float64)
    sp = np.asarray(sensor_positions, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    dx = hp[..., 0] - sp[..., 0]
    dy = hp[..., 1] - sp[..., 1]
    # two squared distances on purpose: the scalar chain measures d_sr with
    # np.linalg.norm (FMA-contracted dot) but guards the flat factor with the
    # kernel's own plain mul-add r2 — replicate both bit patterns
    r2 = dx * dx + dy * dy
    d = norm2d_many(dx, dy)
    h = 0.5 / np.sqrt(lam)
    sigma_quant = np.where(d > 0, np.arctan(h / np.maximum(d, h)), 0.0)
    sigma_eff = np.hypot(noise_std, sigma_quant)
    predicted = np.arctan2(dy, dx)
    residual = wrap_angle_many(zs - predicted)
    out = -0.5 * (residual / sigma_eff) ** 2
    return np.where(r2 < 1e-12, 0.0, out)


class Workspace:
    """Scratch for :func:`batch_bearing_log_likelihood`'s chain, reused
    across calls by its one owner (a filter).

    At density 40 the chain's ``(n_obs, n_particles)`` arrays are ~1 MB,
    above glibc's threshold for serving a block from the heap, so arrays
    allocated per call are fresh, page-faulting mappings whose cost depends
    on what the rest of the process freed.  The workspace holds one
    ``(2, capacity)`` block, grows it when a call needs more and hands out
    views of its prefix otherwise; it is freed with its owner.
    """

    __slots__ = ("_block",)

    def __init__(self) -> None:
        self._block = np.empty((2, 0))

    def arrays(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Two C-contiguous float64 arrays of ``shape`` over the block."""
        size = shape[0] * shape[1]
        if self._block.shape[1] < size:
            self._block = np.empty((2, size))
        return self._block[0, :size].reshape(shape), self._block[1, :size].reshape(shape)


def batch_bearing_log_likelihood(
    positions: np.ndarray,
    zs: np.ndarray,
    refs: np.ndarray,
    sigmas: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Full Gaussian bearing log-likelihoods: (n_obs, n_particles).

    Row ``i`` equals ``BearingMeasurement(noise_std=sigmas[i]).
    log_likelihood(states, zs[i], refs[i])`` — the centralized SIR update
    sums these rows sequentially, preserving its reduction order.

    The chain runs in place (the same operations in the same order) over
    the two arrays of ``workspace`` (a fresh one by default); the result is
    a view into it, which the workspace's next call overwrites.
    """
    positions = np.asarray(positions, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if workspace is None:
        workspace = Workspace()
    dx, dy = workspace.arrays((refs.shape[0], positions.shape[0]))
    np.subtract(positions[None, :, 0], refs[:, 0:1], out=dx)
    np.subtract(positions[None, :, 1], refs[:, 1:2], out=dy)
    predicted = np.arctan2(dy, dx, out=dy)
    out = wrap_angle_many(np.subtract(zs[:, None], predicted, out=predicted), out=predicted)
    out /= sigmas[:, None]
    np.square(out, out=out)
    out *= -0.5
    out -= np.log(sigmas)[:, None]
    out -= 0.5 * _LOG_2PI
    return out


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

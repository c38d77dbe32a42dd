"""Batched estimated-contribution evaluation (paper Definition 2).

``estimated_contributions`` normalizes ``1 / max(d_i, d_min)`` over one
estimation area; CDPF-NE evaluates it once per particle holder per
iteration, each time over that holder's own neighborhood.  The batched form
takes every holder's distances concatenated into one flat array plus CSR
offsets and evaluates all areas with two vectorized passes.

Bit-identity contract: numpy's pairwise summation depends only on the
length, order and values of the summed array, so each group's total is
computed with a contiguous per-group ``.sum()`` (NOT ``np.add.reduceat``,
whose sequential accumulation diverges from pairwise summation for groups
of 9+ elements).  The elementwise inverse and the final divide are shared
across groups — elementwise ops are bitwise independent of batching.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_contributions", "group_sums"]


def group_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-group sums of a CSR-flattened array, pairwise per group.

    ``offsets`` has ``n_groups + 1`` entries; group ``g`` is
    ``values[offsets[g]:offsets[g + 1]]``.  Each group is summed with
    numpy's pairwise reduction — bit-identical to summing the group as a
    standalone array.
    """
    offsets = np.asarray(offsets)
    n_groups = offsets.size - 1
    out = np.empty(n_groups, dtype=np.float64)
    for g in range(n_groups):
        out[g] = values[offsets[g] : offsets[g + 1]].sum()
    return out


def batch_contributions(
    distances: np.ndarray,
    offsets: np.ndarray | None = None,
    *,
    d_min: float = 1e-3,
) -> np.ndarray:
    """Normalized ``1 / (d_i * D)`` contributions for one or many areas.

    Parameters
    ----------
    distances:
        Flat float64 array of distances, all areas concatenated.
    offsets:
        CSR offsets (``n_groups + 1`` entries) delimiting the areas.
        ``None`` treats ``distances`` as a single area (the scalar-path
        call shape of :func:`repro.core.contributions.estimated_contributions`).
    d_min:
        Distance clamp keeping a sensor at the target's exact position from
        absorbing all the weight.

    Returns the flat contribution array, same shape as ``distances``; each
    group sums to 1.  Inputs are validated by the caller (the core module
    keeps its own error surface); this kernel assumes finite non-negative
    distances and non-empty groups.
    """
    distances = np.asarray(distances, dtype=np.float64)
    inv = 1.0 / np.maximum(distances, d_min)
    if offsets is None:
        return inv / inv.sum()
    offsets = np.asarray(offsets)
    totals = group_sums(inv, offsets)
    counts = np.diff(offsets)
    return inv / np.repeat(totals, counts)

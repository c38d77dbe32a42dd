"""Batched estimated-contribution evaluation (paper Definition 2), and the
per-segment reductions every batched round shares.

``estimated_contributions`` normalizes ``1 / max(d_i, d_min)`` over one
estimation area; CDPF-NE evaluates it once per particle holder per
iteration, each time over that holder's own neighborhood.  The batched form
takes every holder's distances concatenated into one flat array plus CSR
offsets and evaluates all areas with two vectorized passes.

Bit-identity contract: numpy's pairwise summation depends only on the
length, order and values of the summed array, so a segment's total must be
a pairwise reduction over exactly that segment (NOT ``np.add.reduceat``,
whose sequential accumulation diverges from pairwise summation for
segments of 9+ elements).  :func:`segment_buckets` groups the segments by
length: the G segments of length L are gathered into one C-contiguous
``(G, L)`` array, and a reduction along its last axis runs numpy's pairwise
sum once per row — the same tree as each segment's own ``.sum()``.  So a
round costs one pass per distinct segment length instead of one per
segment.  Padding segments to a common length would change the tree; the
elementwise inverse and the final divide are shared across segments, and
elementwise ops are bitwise independent of batching.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batch_contributions",
    "group_means",
    "group_sums",
    "group_weighted_means",
    "segment_buckets",
]


def segment_buckets(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The segments of a CSR array grouped by length.

    ``offsets`` has ``n_segments + 1`` non-decreasing entries; segment ``g``
    is ``values[offsets[g]:offsets[g + 1]]``.  Returns one ``(segments,
    index)`` pair per distinct length L: ``segments`` are the ids of the G
    segments of that length, ascending, and ``index`` is their ``(G, L)``
    element index — row ``i`` is ``offsets[segments[i]] + arange(L)``.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    lengths = offsets[1:] - offsets[:-1]
    if lengths.size == 0:
        return []
    if (lengths == lengths[0]).all():
        return [(np.arange(lengths.size), offsets[:-1, None] + np.arange(lengths[0]))]
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    cuts = np.flatnonzero(sorted_lengths[1:] != sorted_lengths[:-1]) + 1
    bounds = [0, *cuts.tolist(), lengths.size]
    buckets = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        segments = by_length[a:b]
        buckets.append((segments, offsets[segments, None] + np.arange(sorted_lengths[a])))
    return buckets


def group_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a CSR-flattened array, each bit-identical to the
    segment's own ``.sum()`` (an empty segment sums to 0.0)."""
    out = np.zeros(np.size(offsets) - 1, dtype=np.float64)
    for segments, index in segment_buckets(offsets):
        out[segments] = values[index].sum(axis=1)
    return out


def group_means(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment means, each bit-identical to the segment's own
    ``.mean()``; segments must be non-empty."""
    out = np.empty(np.size(offsets) - 1, dtype=np.float64)
    for segments, index in segment_buckets(offsets):
        out[segments] = values[index].mean(axis=1)
    return out


def group_weighted_means(
    weights: np.ndarray, rows: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per non-empty segment, the total weight and the weight-averaged row.

    For segment ``a:b`` this is ``total = weights[a:b].sum()`` and
    ``(weights[a:b] / total) @ rows[a:b]`` — or ``rows[a:b].mean(axis=0)``
    when ``total`` is not positive — bit for bit: the G segments of one
    length run as one stacked ``(G, 1, L) @ (G, L, k)`` matmul, which
    calls the same routine with the same length and strides as each
    segment's own product.  ``rows`` is ``(n, k)``; returns ``(totals,
    means)`` of shapes ``(n_segments,)`` and ``(n_segments, k)``.
    """
    n_segments = np.size(offsets) - 1
    totals = np.empty(n_segments, dtype=np.float64)
    means = np.empty((n_segments, rows.shape[1]), dtype=np.float64)
    for segments, index in segment_buckets(offsets):
        w, r = weights[index], rows[index]
        total = w.sum(axis=1)
        totals[segments] = total
        pos = total > 0.0
        if not pos.all():
            means[segments[~pos]] = r[~pos].mean(axis=1)
            segments, w, r, total = segments[pos], w[pos], r[pos], total[pos]
        means[segments] = ((w / total[:, None])[:, None, :] @ r)[:, 0]
    return totals, means


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
    return inv / np.repeat(group_sums(inv, offsets), np.diff(offsets))

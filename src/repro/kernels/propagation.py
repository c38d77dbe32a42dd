"""Batched recorder selection + weight division over a propagation round.

One propagation round evaluates, for every broadcast particle (a *row*),
which candidate nodes record it (linear probability model over the
predicted area), splits the particle's weight across those recorders, and
assigns each recorded share a velocity.  The scalar path does this once per
particle via ``core.propagation.select_recorders`` + ``division_shares``;
this kernel evaluates the whole round as one flat list of (row, candidate)
pairs, so each row only ever touches the candidates of its own area.

Bit-identity contract (pinned by ``tests/kernels/test_propagation_kernel.py``,
``tests/fuzz/test_record_round.py`` and the golden differential suite):

* distances use the scalar form ``sqrt(dx * dx + dy * dy)`` — bitwise the
  per-row ``np.sum(d ** 2, axis=1)`` it replaces;
* the top-k cut uses the same ``np.lexsort((ids, -p))`` tie-break, whose
  selected *set* is independent of candidate order because a row's ids are
  unique;
* each row's share normalizer ``p.sum()`` is a pairwise reduction over
  its contiguous id-sorted slice (:func:`~repro.kernels.contributions.
  group_sums`, one pass per distinct row length), reproducing the scalar
  ``division_shares`` call exactly.
"""

from __future__ import annotations

import numpy as np

from .contributions import group_sums

__all__ = ["batch_propagate", "batch_implied_velocities"]


def batch_propagate(
    predicted: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_positions: np.ndarray,
    *,
    area_radius: float,
    record_threshold: float,
    max_recorders: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recorders and weight shares for a round of broadcast particles.

    Parameters
    ----------
    predicted:
        ``(B, 2)`` predicted positions, one per row (broadcast particle).
    weights:
        ``(B,)`` particle weights to divide.
    rows / candidate_ids / candidate_positions:
        The ``(P,)`` pair list: pair ``i`` offers candidate
        ``candidate_ids[i]``, at ``candidate_positions[i]`` (``(P, 2)``), to
        row ``rows[i]``.  A row's candidate ids must be distinct; pairs may
        come in any order.  Filters (range, availability, lost copies) are
        applied by dropping pairs.
    area_radius / record_threshold / max_recorders:
        The ``PropagationConfig`` geometry knobs.

    Returns ``(sel, probs, shares)``: ``sel`` indexes the pair arrays — the
    recorded pairs, by ascending row and, within a row, by ascending id —
    ``probs`` are their linear probabilities and ``shares`` the divided
    weights.  A row with no recorders has no pairs in ``sel``.
    """
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    ids = np.asarray(candidate_ids, dtype=np.intp)
    pos = np.asarray(candidate_positions, dtype=np.float64).reshape(-1, 2)

    pred = predicted[rows]
    dx = pos[:, 0] - pred[:, 0]
    dy = pos[:, 1] - pred[:, 1]
    p = np.maximum(0.0, 1.0 - np.sqrt(dx * dx + dy * dy) / area_radius)
    sel = np.flatnonzero(p > max(record_threshold, 0.0))
    if sel.size == 0:
        return sel, np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.float64)
    # one sort lays every row out as a contiguous id-sorted slice
    sel = sel[np.lexsort((ids[sel], rows[sel]))]
    sel_rows = rows[sel]
    probs = p[sel]
    bounds = _row_bounds(sel_rows)

    if max_recorders is not None:
        keep = np.ones(sel.size, dtype=bool)
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a > max_recorders:
                # top-k by probability, ties broken by id — the selected set
                # is independent of candidate order because (p, id) keys are
                # unique
                top = np.lexsort((ids[sel[a:b]], -probs[a:b]))[:max_recorders]
                keep[a:b] = False
                keep[a + top] = True  # the slice stays id-sorted
        if not keep.all():
            sel, sel_rows, probs = sel[keep], sel_rows[keep], probs[keep]
            bounds = _row_bounds(sel_rows)

    # per-row normalizers over contiguous slices; the division itself is
    # elementwise, so one flat pass reproduces ``w * (p / p.sum())``
    sums = group_sums(probs, bounds)
    shares = weights[sel_rows] * (probs / np.repeat(sums, np.diff(bounds)))
    return sel, probs, shares


def _row_bounds(sorted_rows: np.ndarray) -> list[int]:
    """Start of every run of equal rows, plus the end (non-empty input)."""
    change = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    return [0, *change.tolist(), sorted_rows.size]


def batch_implied_velocities(
    sender_position: np.ndarray,
    recorder_positions: np.ndarray,
    sender_velocity: np.ndarray,
    dt: float,
    mode: str,
    alpha: float = 0.5,
    track_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Recorded-particle velocities for a batch of recorders.

    Row ``i`` equals ``core.propagation.implied_velocity(sender_position,
    recorder_positions[i], ...)``.  The sender arguments are one sender's
    ``(2,)`` values or ``(n, 2)`` per-recorder rows (a whole round's
    recorders of many broadcasts in one call) — every mode is an
    elementwise expression, so batching over recorders is bitwise free.
    """
    rec = np.atleast_2d(np.asarray(recorder_positions, dtype=np.float64))
    n = rec.shape[0]
    sender_velocity = np.asarray(sender_velocity, dtype=np.float64)
    if mode == "track":
        v = sender_velocity if track_velocity is None else np.asarray(
            track_velocity, dtype=np.float64
        )
        return np.broadcast_to(v, (n, 2)).copy()
    if mode == "inherit":
        return np.broadcast_to(sender_velocity, (n, 2)).copy()
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    disp = (rec - np.asarray(sender_position, dtype=np.float64)) / dt
    if mode == "displacement":
        return disp
    if mode == "blend":
        return (1.0 - alpha) * sender_velocity + alpha * disp
    raise ValueError(f"unknown velocity mode {mode!r}")

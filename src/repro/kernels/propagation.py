"""Batched recorder selection + weight division over many broadcasts.

One propagation round evaluates, for every broadcast particle, which
candidate nodes record it (linear probability model over the predicted
area), splits the particle's weight across those recorders, and assigns
each recorded share a velocity.  The scalar path does this once per
broadcast via ``core.propagation.select_recorders`` + ``division_shares``;
this kernel evaluates the whole round against one shared candidate array.

Bit-identity contract (pinned by ``tests/kernels/test_propagation_kernel.py``
and the golden differential suite):

* distances use the scalar form ``sqrt((pos - pred) ** 2 summed over x, y)``
  — elementwise ``dx * dx + dy * dy`` is bitwise identical to the per-row
  ``np.sum(d ** 2, axis=1)`` it replaces;
* the top-k cut uses the same ``np.lexsort((ids, -p))`` tie-break, whose
  selected *set* is independent of candidate order because ids are unique;
* each broadcast's share normalizer ``p.sum()`` is taken over a fresh
  contiguous id-sorted gather, reproducing the pairwise reduction of the
  scalar ``division_shares`` call exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_propagate", "batch_implied_velocities"]


def batch_propagate(
    predicted: np.ndarray,
    weights: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_positions: np.ndarray,
    *,
    area_radius: float,
    record_threshold: float,
    max_recorders: int | None = None,
    keep_masks: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Recorders and weight shares for a batch of broadcast particles.

    Parameters
    ----------
    predicted:
        ``(B, 2)`` predicted positions, one per broadcast particle.
    weights:
        ``(B,)`` particle weights to divide.
    candidate_ids / candidate_positions:
        ``(C,)`` ids and ``(C, 2)`` positions of the shared candidate set
        (e.g. the predicted area's spatial-query result).
    area_radius / record_threshold / max_recorders:
        The ``PropagationConfig`` geometry knobs.
    keep_masks:
        Optional ``(B, C)`` bool eligibility (range / availability / lost-copy
        filters composed by the caller); ``None`` keeps every candidate.

    Returns a list of ``B`` tuples ``(sel, probs, shares)``: ``sel`` indexes
    the candidate arrays in ascending-id order, ``probs`` are the linear
    probabilities and ``shares`` the divided weights of those recorders.
    A broadcast with no recorders yields three empty arrays.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    ids = np.asarray(candidate_ids, dtype=np.intp)
    pos = np.asarray(candidate_positions, dtype=np.float64)
    n_b = predicted.shape[0]
    empty = (
        np.zeros(0, dtype=np.intp),
        np.zeros(0, dtype=np.float64),
        np.zeros(0, dtype=np.float64),
    )
    if ids.size == 0:
        return [empty] * n_b

    # pre-sort candidates by id once: the per-broadcast selections below
    # then come out id-ascending for free.  Bitwise neutral: probabilities
    # are elementwise per candidate, and the id-sorted prob sequence each
    # broadcast normalizes over is identical either way.
    id_order = np.argsort(ids)
    ids_s = ids[id_order]
    pos_s = pos[id_order]

    dx = pos_s[None, :, 0] - predicted[:, 0:1]
    dy = pos_s[None, :, 1] - predicted[:, 1:2]
    d = np.sqrt(dx * dx + dy * dy)
    p = np.maximum(0.0, 1.0 - d / area_radius)
    keep = p > max(record_threshold, 0.0)
    if keep_masks is not None:
        keep &= np.asarray(keep_masks)[:, id_order]

    # one global nonzero pass replaces B flatnonzero calls; rows come out
    # sorted, so each broadcast's selection is a contiguous slice of cols
    cols = np.nonzero(keep)[1]
    bounds = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])

    out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for b in range(n_b):
        sel = cols[bounds[b] : bounds[b + 1]]
        if sel.size == 0:
            out.append(empty)
            continue
        probs = p[b, sel]
        if max_recorders is not None and sel.size > max_recorders:
            # top-k by probability, ties broken by id — the selected set is
            # independent of candidate order because (p, id) keys are unique
            order = np.lexsort((ids_s[sel], -probs))[:max_recorders]
            order.sort()  # back to ascending ids (sel is id-sorted already)
            sel, probs = sel[order], probs[order]
        shares = weights[b] * (probs / probs.sum())
        out.append((id_order[sel], probs, shares))
    return out


def batch_implied_velocities(
    sender_position: np.ndarray,
    recorder_positions: np.ndarray,
    sender_velocity: np.ndarray,
    dt: float,
    mode: str,
    alpha: float = 0.5,
    track_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Recorded-particle velocities for all of one broadcast's recorders.

    Row ``i`` equals ``core.propagation.implied_velocity(sender_position,
    recorder_positions[i], ...)`` — every mode is an elementwise expression,
    so batching over recorders is bitwise free.
    """
    rec = np.atleast_2d(np.asarray(recorder_positions, dtype=np.float64))
    n = rec.shape[0]
    sender_velocity = np.asarray(sender_velocity, dtype=np.float64)
    if mode == "track":
        v = sender_velocity if track_velocity is None else np.asarray(
            track_velocity, dtype=np.float64
        )
        return np.tile(v, (n, 1))
    if mode == "inherit":
        return np.tile(sender_velocity, (n, 1))
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    disp = (rec - np.asarray(sender_position, dtype=np.float64)) / dt
    if mode == "displacement":
        return disp
    if mode == "blend":
        return (1.0 - alpha) * sender_velocity + alpha * disp
    raise ValueError(f"unknown velocity mode {mode!r}")

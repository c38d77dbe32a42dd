"""Particle maintenance and propagation (paper §III).

Particles live *on nodes*: a particle's position is its host node's position,
so a particle is fully described by (host id, velocity, weight), and a
tracker's particles are one :class:`HolderSet` of those three arrays.  This
module implements the three mechanics of §III-B as pure, locally-computable
functions, shared by CDPF, CDPF-NE and SDPF:

* **recording decision** — which neighbors of a broadcasting holder record
  the particle (nodes inside the sender's *predicted area*, thinned by the
  linear probability model);
* **weight division** — a recorded particle's weight is split across the
  recorders proportionally to their linear probabilities, preserving the
  total (§III-B's two division rules);
* **combination** — shares arriving at one node from several senders merge
  into a single particle whose weight is the sum and whose velocity is the
  share-weighted mean.

Every function takes only information a node can possess locally (its
neighbor table, the broadcast message content); the tests include an explicit
consistency check that two different recorders of the same broadcast compute
identical divisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.contributions import group_weighted_means
from ..kernels.propagation import batch_propagate
from .contributions import linear_probability  # noqa: F401  (re-exported for tests)

__all__ = [
    "HolderSet",
    "PropagationConfig",
    "select_recorders",
    "division_shares",
    "combine_shares",
    "combine_shares_grouped",
    "implied_velocity",
]


class HolderSet:
    """The particles a tracker's holder nodes maintain, as one struct of
    arrays: row ``i`` is the particle node ``ids[i]`` hosts, with weight
    ``weights[i]`` and velocity ``velocities[i]`` (its position is the
    node's position).

    Weights are *unnormalized*: normalization constants travel by
    overhearing and are applied in the correction step.  Each id appears
    once.  Rows keep the order the phases build them in — ascending after
    a correction round, creators appended after — and order-dependent
    reductions (the creators' mean weight, the top holder) read that
    order; phases that need id order sort.  Iterating yields the ids.

    Construction checks the rows as arrays — finite velocities, finite
    non-negative weights — once per set a phase builds.  Phases may scale
    ``weights`` in place.
    """

    __slots__ = ("ids", "weights", "velocities")

    def __init__(self, ids=(), weights=(), velocities=()) -> None:
        self.ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        self.weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        self.velocities = np.asarray(velocities, dtype=np.float64).reshape(-1, 2)
        if not self.ids.size == self.weights.size == self.velocities.shape[0]:
            raise ValueError("holder ids, weights and velocities differ in length")
        if not np.isfinite(self.velocities).all():
            raise ValueError("velocity must be finite")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0.0).all()):
            bad = self.weights[~(np.isfinite(self.weights) & (self.weights >= 0.0))][0]
            raise ValueError(f"weight must be finite and non-negative, got {bad}")

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return iter(self.ids.tolist())

    def __contains__(self, node_id) -> bool:
        return bool((self.ids == node_id).any())

    def take(self, rows) -> "HolderSet":
        """The holders at ``rows`` (an index or mask), in that order; rows of
        a checked set need no second check."""
        out = HolderSet.__new__(HolderSet)
        out.ids, out.weights, out.velocities = (
            self.ids[rows], self.weights[rows], self.velocities[rows]
        )
        return out

    def append(self, ids, weights, velocities) -> "HolderSet":
        """This set with new holders' rows added after its own."""
        return HolderSet(
            np.concatenate((self.ids, np.asarray(ids, dtype=np.intp).reshape(-1))),
            np.concatenate((self.weights, np.asarray(weights, dtype=np.float64).reshape(-1))),
            np.concatenate((self.velocities, np.asarray(velocities, dtype=np.float64).reshape(-1, 2))),
        )

    def states(self, positions: np.ndarray) -> np.ndarray:
        """The ``(n, 4)`` full states (position ++ velocity), given node positions."""
        return np.concatenate((positions[self.ids], self.velocities), axis=1)


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of the propagation mechanism.

    Attributes
    ----------
    predicted_area_radius:
        Radius of the predicted area around a sender's predicted position
        (Definition 1 uses the sensing radius; the paper's dotted circles).
    record_threshold:
        Minimum linear probability for a candidate to record.  0 keeps every
        node in the predicted area; 0.5 (default) keeps nodes within half the
        radius of the prediction — the paper's "highly likely to detect"
        thinning, and the knob that bounds the holder count N_s.
    max_recorders:
        Optional hard cap: keep only the top-k candidates by probability
        (the paper notes N_s "is controllable"; None disables the cap).
    velocity_mode:
        ``"track"`` — every recorded particle carries the *track velocity*,
        the displacement of consecutive consensus estimates
        ``(x_hat_k - x_hat_{k-1}) / dt`` (default).  Both estimates are
        common knowledge in the active region (the region advances ~15 m
        per iteration while the radio reaches 30 m, so holders overhear
        consecutive propagation rounds), and it is the only velocity signal
        that actually follows the target's turns; per-particle displacement
        velocities are centered on the *old* velocity and never converge.
        ``"blend"`` — mix the sender's velocity with the sender->recorder
        displacement, ``v = (1 - a) v_s + a (x_r - x_s) / dt`` (``a < 1``
        damps the geometric growth of prediction spread that pure
        displacement causes);
        ``"displacement"`` — the sender->recorder displacement over one
        filter period;
        ``"inherit"`` — the recorder keeps the sender's velocity.
    velocity_alpha:
        The displacement fraction ``a`` of the blend mode.
    drop_threshold:
        Correction-step resampling (§III-B's "zero or almost zero density"
        rule): a recorder drops its particle when its recorded share is
        below ``drop_threshold`` times the *largest* recorded share.  All
        shares are deterministic functions of overheard data, so the rule is
        locally evaluable without communication; being scale-free in the
        weights it cannot extinguish the whole population, and the surviving
        holder count N_s is set by geometry — growing with the deployment
        density exactly as §III-A describes ("bounded when given a certain
        deployment density").
    creation_slack:
        A detecting non-holder creates a fresh particle when it is farther
        than ``creation_slack * predicted_area_radius`` from *every*
        overheard predicted position (the paper's "node outside of any
        predicted areas" case), or when it heard no propagation at all.
        This is the only channel that re-anchors a drifted track to reality,
        which is what bounds CDPF-NE's dead-reckoning error.
    creation_limit:
        Expected number of creators per iteration when *every* detector is
        eligible: each eligible detector creates with probability
        ``creation_limit / n_expected_detectors``, where the denominator is
        its locally estimated co-detector count (degree scaled by the
        sensing/comm area ratio).  Without this, a drifted prediction makes
        every detector create at once and the holder count — hence the
        communication cost — spikes with the deployment density.
    """

    predicted_area_radius: float = 10.0
    record_threshold: float = 0.5
    max_recorders: int | None = None
    velocity_mode: str = "track"
    velocity_alpha: float = 0.5
    drop_threshold: float = 0.5
    creation_slack: float = 1.5
    creation_limit: float = 4.0
    #: Degeneracy-aware area adaptation (the paper's future-work item 2:
    #: carrying PF degeneracy countermeasures into the distributed setting).
    #: When the overheard weight population's ESS ratio falls below
    #: ``ess_target``, the recording geometry widens by ``area_scale_max``
    #: for that round, re-diversifying the support — the node-hosted analog
    #: of sample-impoverishment mitigation.  The trigger is the overheard
    #: weight vector, identical at every participant, so the widened
    #: geometry stays consistent without communication.
    adaptive_area: bool = False
    ess_target: float = 0.3
    area_scale_max: float = 1.5

    def __post_init__(self) -> None:
        if self.predicted_area_radius <= 0:
            raise ValueError("predicted_area_radius must be positive")
        if not 0.0 <= self.record_threshold < 1.0:
            raise ValueError(f"record_threshold must be in [0, 1), got {self.record_threshold}")
        if self.max_recorders is not None and self.max_recorders < 1:
            raise ValueError("max_recorders must be >= 1 or None")
        if self.velocity_mode not in ("track", "blend", "displacement", "inherit"):
            raise ValueError(f"unknown velocity_mode {self.velocity_mode!r}")
        if not 0.0 <= self.velocity_alpha <= 1.0:
            raise ValueError(f"velocity_alpha must be in [0, 1], got {self.velocity_alpha}")
        if self.drop_threshold < 0.0:
            raise ValueError(f"drop_threshold must be non-negative, got {self.drop_threshold}")
        if self.creation_slack < 1.0:
            raise ValueError(f"creation_slack must be >= 1, got {self.creation_slack}")
        if self.creation_limit <= 0:
            raise ValueError(f"creation_limit must be positive, got {self.creation_limit}")
        if not 0.0 < self.ess_target <= 1.0:
            raise ValueError(f"ess_target must be in (0, 1], got {self.ess_target}")
        if self.area_scale_max < 1.0:
            raise ValueError(f"area_scale_max must be >= 1, got {self.area_scale_max}")

    def recording_radius(self) -> float:
        """Radius within which linear probability exceeds the record threshold."""
        return self.predicted_area_radius * (1.0 - self.record_threshold)

    def expected_recorders(self, degree: int, comm_radius: float) -> float:
        """Locally estimated recorder count: degree scaled by the area ratio.

        ``degree + 1`` counts the node itself; the recording disk has radius
        :meth:`recording_radius`.
        """
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if comm_radius <= 0:
            raise ValueError("comm_radius must be positive")
        ratio = (self.recording_radius() / comm_radius) ** 2
        return max(1.0, (degree + 1) * ratio)


def select_recorders(
    candidate_ids: np.ndarray,
    candidate_positions: np.ndarray,
    predicted_position: np.ndarray,
    config: PropagationConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Which candidates record a broadcast particle, and their probabilities.

    ``candidate_ids/positions`` are the nodes that *heard* the broadcast
    (typically the sender's awake one-hop neighbors).  Returns
    ``(recorder_ids, probabilities)`` sorted by id.  Deterministic, and a
    function of shared data only — every candidate can evaluate it
    identically for the whole candidate set, which is what makes the division
    rule consistent without extra communication.
    """
    ids = np.asarray(candidate_ids, dtype=np.intp)
    pos = np.atleast_2d(np.asarray(candidate_positions, dtype=np.float64))
    if ids.shape[0] != pos.shape[0]:
        raise ValueError("candidate ids/positions length mismatch")
    if ids.size == 0:
        return ids, np.zeros(0)
    pred = np.asarray(predicted_position, dtype=np.float64)
    sel, probs, _ = batch_propagate(
        pred[None, :],
        np.ones(1),
        np.zeros(ids.size, dtype=np.intp),
        ids,
        pos,
        area_radius=config.predicted_area_radius,
        record_threshold=config.record_threshold,
        max_recorders=config.max_recorders,
    )
    return ids[sel], probs


def division_shares(probabilities: np.ndarray, weight: float) -> np.ndarray:
    """Split ``weight`` across recorders proportionally to their probabilities.

    Implements §III-B's division rules: shares sum to the original weight,
    and the ratio of any two shares equals the ratio of the recorders'
    linear probabilities.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    if (p <= 0).any():
        raise ValueError("recorders must have strictly positive probability")
    if not (np.isfinite(weight) and weight >= 0):
        raise ValueError(f"weight must be finite and non-negative, got {weight}")
    return weight * (p / p.sum())


def implied_velocity(
    sender_position: np.ndarray,
    recorder_position: np.ndarray,
    sender_velocity: np.ndarray,
    dt: float,
    mode: str,
    alpha: float = 0.5,
    track_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Velocity of a recorded particle under the configured mode."""
    sender_velocity = np.asarray(sender_velocity, dtype=np.float64)
    if mode == "track":
        if track_velocity is None:
            # no consensus velocity yet (e.g. the first propagation round):
            # fall back to the sender's carried velocity
            return sender_velocity.copy()
        return np.asarray(track_velocity, dtype=np.float64).copy()
    if mode == "inherit":
        return sender_velocity.copy()
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    disp = (
        np.asarray(recorder_position, dtype=np.float64)
        - np.asarray(sender_position, dtype=np.float64)
    ) / dt
    if mode == "displacement":
        return disp
    if mode == "blend":
        return (1.0 - alpha) * sender_velocity + alpha * disp
    raise ValueError(f"unknown velocity mode {mode!r}")


def combine_shares(
    shares: list[tuple[float, np.ndarray]],
) -> tuple[float, np.ndarray]:
    """Merge shares ``(weight, velocity)`` from several senders into one
    particle's ``(weight, velocity)``.

    §III-A: particles on the same node are combined; the combined weight is
    the sum and the velocity is the weight-averaged velocity (falling back to
    the plain mean when all shares carry zero weight).
    """
    if not shares:
        raise ValueError("need at least one share to combine")
    weights = np.array([s[0] for s in shares], dtype=np.float64)
    velocities = np.array([np.asarray(s[1], dtype=np.float64).reshape(2) for s in shares])
    if (weights < 0).any():
        raise ValueError("share weights must be non-negative")
    total = float(weights.sum())
    if total > 0.0:
        velocity = (weights / total) @ velocities
    else:
        velocity = velocities.mean(axis=0)
    return total, velocity


def combine_shares_grouped(
    recorders: np.ndarray,
    weights: np.ndarray,
    velocities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`combine_shares` for a whole round of recorded shares at once.

    Share ``i`` — weight ``weights[i]``, velocity ``velocities[i]`` — was
    recorded by node ``recorders[i]``.  Returns ``(ids, weights,
    velocities)``: the distinct recorders ascending, each with its combined
    weight and velocity, bit-identical to calling :func:`combine_shares` on
    each recorder's shares in input order.  One stable sort groups the
    shares without reordering any recorder's own, and
    :func:`~repro.kernels.contributions.group_weighted_means` combines the
    groups of each length in one pass, with the same sum and weighted-mean
    reduction trees as each group's own.
    """
    rids = np.asarray(recorders, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("share weights must be non-negative")
    if rids.size == 0:
        return rids, np.zeros(0), np.zeros((0, 2))
    order = np.argsort(rids, kind="stable")
    rids = rids[order]
    first = np.flatnonzero(np.concatenate(([True], rids[1:] != rids[:-1])))
    offsets = np.append(first, rids.size)
    v = np.asarray(velocities, dtype=np.float64).reshape(-1, 2)[order]
    totals, means = group_weighted_means(w[order], v, offsets)
    return rids[first], totals, means

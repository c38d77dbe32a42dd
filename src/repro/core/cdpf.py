"""CDPF and CDPF-NE: the completely distributed particle filter (paper §IV-§V).

One :class:`CDPFTracker` iteration executes Algorithm 1 with the reordered
steps of Fig. 2(b):

1.  **Prediction / propagation** — every holder broadcasts its particle
    (state + weight) one hop; nodes in the sender's predicted area decide
    *locally* whether to record it (linear probability model), split the
    weight (division rules), and merge shares from several senders
    (combination).
2.  **Correction** — every node that overheard the propagation knows the
    total weight as a side product, so it normalizes its recorded share,
    applies the drop rule (the paper's resampling for node-hosted
    particles), and computes the estimate *for the previous iteration*.
3.  **Likelihood** — holders that detected the target broadcast their
    measurements one hop; every holder evaluates the joint likelihood of its
    own (node-position) state.       [CDPF only]
4.  **Assign weight** — ``w_{k+1} = share * likelihood`` — or, for CDPF-NE,
    ``w_{k+1} = share * c_0`` with the estimated neighbor contribution of
    §V replacing the likelihood, which removes step 3's traffic entirely.

The estimate returned by :meth:`step` at iteration ``k`` therefore refers to
iteration ``k - 1``: the one-iteration correction latency is inherent to the
reordering and the runner accounts for it explicitly.

Implementation discipline: every per-node decision uses only that node's
local knowledge (its position, its neighbor table, its inbox).  The harness
computes *which* nodes to iterate over globally — a pure scheduling shortcut
that does not leak information into any node's decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.contributions import batch_contributions, group_means
from ..kernels.geometry import norm2d_many
from ..kernels.likelihood import batch_likelihood
from ..kernels.propagation import batch_implied_velocities, batch_propagate
from ..models.measurement import wrap_angle
from ..network.messages import MeasurementMessage, ParticleMessage
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext
from .propagation import HolderSet, PropagationConfig, combine_shares_grouped

__all__ = ["CDPFTracker", "CDPFStats", "bearing_log_kernel"]

#: Measurements taken closer than this to a particle's position are skipped:
#: a bearing constrains direction only, and at the sensor itself the
#: direction to the target is undefined (atan2(0, 0)).
_SENSOR_EPS = 1e-6


def quantization_sigma(
    local_density_per_m2: float, sensor_distance: float
) -> float:
    """Bearing-sigma inflation for node-hosted (position-quantized) particles.

    A node stands in for its Voronoi cell (~ half-spacing ``h = 0.5 / sqrt(lambda)``
    across); evaluating a bearing likelihood *at the node* instead of anywhere
    in the cell is an angular error up to ``atan(h / d)`` as seen from a
    sensor at distance ``d``.  Without this term the raw kernel selects the
    single node nearest the measured ray and the holder population collapses
    to one — fatal at low densities.  Locally computable: a node estimates
    ``lambda`` from its own one-hop degree.
    """
    if local_density_per_m2 <= 0:
        raise ValueError("local density must be positive")
    h = 0.5 / np.sqrt(local_density_per_m2)
    return float(np.arctan(h / max(sensor_distance, h)))


def bearing_log_kernel(
    particle_position: np.ndarray,
    z: float,
    sensor_position: np.ndarray,
    noise_std: float,
) -> float:
    """log of the *normalized* bearing likelihood kernel exp(-r^2 / 2 sigma^2).

    The 1/(sigma sqrt(2 pi)) constant cancels under weight normalization, and
    keeping the kernel <= 1 prevents overflow when many measurements are
    fused on one node.
    """
    d = np.asarray(particle_position, dtype=np.float64) - np.asarray(
        sensor_position, dtype=np.float64
    )
    if float(d @ d) < _SENSOR_EPS**2:
        return 0.0  # own-position measurement carries no positional information
    predicted = np.arctan2(d[1], d[0])
    residual = float(wrap_angle(z - predicted))
    return -0.5 * (residual / noise_std) ** 2


def share_measurements(
    medium, sharers: list[int], receivers: list[int], measurements, iteration: int, *, direct: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One measurement round (CDPF's likelihood phase, SDPF's share phase):
    every reading a receiver's inbox holds, as ``(rows, senders, values)``
    arrays — ``receivers[rows[k]]`` heard ``values[k]`` from ``senders[k]``.
    Rows ascend, and each row's readings come in arrival order (the
    sharers' broadcast order).  The round ends with every inbox cleared.

    ``direct`` (only when ``Medium.delivers_all``) skips message transport:
    a receiver hears each other sharer within comm radius under the medium's
    own ``d2 <= r*r`` test on its physical positions, and the round is
    charged as one aggregated ledger row.  Otherwise the round is a
    :class:`TransmissionBatch` whose inboxes are read with one
    ``Medium.collect_many``, delayed stale copies included.
    """
    sharer_ids = np.asarray(sharers, dtype=np.intp)
    if direct:
        values = np.array([float(measurements[s]) for s in sharers], dtype=np.float64)
        if sharers:
            medium.accounting.record(
                iteration,
                MeasurementMessage.category,
                MeasurementMessage.round_bytes(medium.sizes, len(sharers), values),
                len(sharers),
            )
        receiver_ids = np.asarray(receivers, dtype=np.intp)
        spos = medium.positions[sharer_ids]
        rpos = medium.positions[receiver_ids]
        dx = rpos[:, None, 0] - spos[None, :, 0]
        dy = rpos[:, None, 1] - spos[None, :, 1]
        radius = medium.radio.comm_radius
        in_range = dx * dx + dy * dy <= radius * radius
        in_range &= receiver_ids[:, None] != sharer_ids[None, :]
        rows, col = np.nonzero(in_range)  # row-major: each receiver's sharers ascending
        heard = rows, sharer_ids[col], values[col]
    else:
        batch = medium.transmission_batch(iteration)
        for s in sharers:
            value = float(measurements[s])
            batch.broadcast(s, MeasurementMessage(sender=s, iteration=iteration, value=value))
        batch.flush()
        rows, inbox = medium.collect_many(receivers)
        keep = [k for k, m in enumerate(inbox) if isinstance(m, MeasurementMessage)]
        heard = (
            rows[keep],
            np.array([inbox[k].sender for k in keep], dtype=np.intp),
            np.array([inbox[k].value for k in keep], dtype=np.float64),
        )
    medium.clear_inboxes()
    return heard


def joint_log_likelihoods(
    scenario: Scenario, neighbors, receivers, heard, detectors, measurements
) -> tuple[np.ndarray, np.ndarray]:
    """Each receiver's tempered joint bearing log-likelihood at its own position.

    ``heard`` is :func:`share_measurements`' output for ``receivers``; a
    detector (``detectors``: any collection of ids) adds its own reading
    after what it heard, and a receiver with no reading is left out (weight
    unchanged).  Returns ``(ids, log_liks)``: the receivers that have a
    reading, in ``receivers`` order, and their log-likelihoods.

    Every (receiver, sender, value) pair is one entry of an elementwise
    :func:`batch_likelihood` call — a delayed channel can deliver stale
    copies whose value differs from this iteration's reading, and each is
    scored as heard — and :func:`~repro.kernels.contributions.group_means`
    takes each row's ``.mean()`` (one pass per distinct row length).
    """
    rows, senders, values = heard
    receivers = np.asarray(receivers, dtype=np.intp)
    det = np.sort(np.fromiter(detectors, dtype=np.intp, count=len(detectors)))
    own = np.flatnonzero(_in_sorted(receivers, det))
    if own.size:
        own_ids = receivers[own]
        # each row's pairs: what it heard, then its own reading (a stable
        # sort keeps the concatenation's order within a row)
        rows = np.concatenate((rows, own))
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        senders = np.concatenate((senders, own_ids))[by_row]
        values = np.concatenate((values, [measurements[r] for r in own_ids.tolist()]))[by_row]
    if rows.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    new_row = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    row_start = np.flatnonzero(new_row)
    holders = receivers[rows[row_start]]
    positions = scenario.deployment.positions
    measurement = scenario.measurement
    if measurement.reference == "node":
        refs = positions[senders]
    else:
        refs = np.zeros((senders.size, 2))
    # discretization-aware sigma: local density from each node's degree
    lam = (neighbors.warm_degrees(holders) + 1) / (np.pi * scenario.radio.comm_radius**2)
    kernels = batch_likelihood(
        positions[receivers[rows]], lam[np.cumsum(new_row) - 1], refs, values,
        measurement.noise_std,
    )
    # tempered fusion (mean log-kernel): the per-sensor bearings share a
    # common-mode error, so treating them as fully independent would sharpen
    # the joint likelihood far below the node-position quantization scale and
    # randomly annihilate every holder
    return holders, group_means(kernels, np.append(row_start, rows.size))


def _in_sorted(ids: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """Mask of the ``ids`` that occur in the ascending ``sorted_ids``."""
    if sorted_ids.size == 0:
        return np.zeros(ids.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
    return sorted_ids[at] == ids


def _lost_weight(ids: np.ndarray, lost: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Per recorder of the ascending ``ids``, the total weight of the
    broadcasts whose copy it lost (``lost[b]`` lost broadcast ``b``, of
    weight ``weights[b]``), summed in broadcast order: ``np.add.at`` applies
    its additions in index order, as a running per-recorder sum would."""
    lost_ids = np.concatenate(lost)
    lost_of = np.repeat(weights, [a.size for a in lost])
    at = np.minimum(np.searchsorted(ids, lost_ids), ids.size - 1)
    hit = ids[at] == lost_ids
    out = np.zeros(ids.size)
    np.add.at(out, at[hit], lost_of[hit])
    return out


def broadcast_particles(
    medium, senders: list[int], counts, states: np.ndarray, weights: np.ndarray,
    iteration: int, *, direct: bool,
) -> list[np.ndarray] | None:
    """One propagation round (CDPF's and SDPF's propagation phase): sender
    ``senders[i]`` broadcasts one :class:`ParticleMessage` carrying its
    ``counts[i]`` consecutive rows of the ``(rows, 4)`` ``states`` and their
    ``weights``.

    ``direct`` (only when ``Medium.delivers_all``) skips message transport:
    every in-range node hears every copy, so the round is charged as one
    aggregated ledger row — what one message per sender costs — and None is
    returned.  Otherwise the round is a :class:`TransmissionBatch`, and the
    result holds, per sender, the ids of the recipients that lost its copy
    (dropped or delayed).
    """
    if direct:
        if senders:
            medium.accounting.record(
                iteration,
                ParticleMessage.category,
                ParticleMessage.round_bytes(medium.sizes, len(senders), weights),
                len(senders),
            )
        return None
    batch = medium.transmission_batch(iteration)
    bounds = np.cumsum([0, *counts]).tolist()
    for s, a, b in zip(senders, bounds[:-1], bounds[1:]):
        msg = ParticleMessage(sender=s, iteration=iteration, states=states[a:b], weights=weights[a:b])
        batch.broadcast(s, msg)
    return [np.concatenate((d.dropped, d.delayed)) for d in batch.flush()]


def record_shares(
    scenario: Scenario,
    medium,
    config: PropagationConfig,
    states: np.ndarray,
    weights: np.ndarray,
    counts,
    lost: list[np.ndarray] | None,
    *,
    track_velocity: np.ndarray | None = None,
    shared_prediction: np.ndarray | None = None,
    anticipate=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record/divide step of a :func:`broadcast_particles` round: every share
    recorded, as ``(recorder ids, shares, implied velocities)``.

    Rows come in broadcast order, and each row's recorders in ascending id
    order.  ``lost`` is :func:`broadcast_particles`' result: None on the
    direct path, where every copy arrived and every node is up.

    The recording decision and the division are functions of *shared* data
    only (the broadcast row, static positions, anticipated availability), so
    every candidate computes the identical result — Theorem 2's argument —
    and the round is evaluated once instead of once per receiver.  The
    candidates are (row, id) pairs from one grid walk over the disks that
    can hold a row's recorder: the recording radius around its predicted
    position, padded so that :func:`batch_propagate`'s own probability
    test decides.  ``shared_prediction`` (track mode's consensus area)
    makes that one ``query_disk`` for every row.  A pair is dropped when the
    candidate is out of the row's sender's comm radius, not anticipated
    available (``anticipate``: a pure ``ids -> bool mask`` hook), or lost
    the sender's copy.  Off the direct path, an anticipated recorder that is
    actually unavailable loses its share (weight leak — the §V-D
    uncertain-factor case).
    """
    positions = scenario.deployment.positions
    index = scenario.deployment.index
    dt = scenario.dynamics.dt
    radius = config.predicted_area_radius
    n_rows = weights.shape[0]
    sender_pos = states[:, :2]
    # a candidate records only while its linear probability exceeds the
    # threshold, i.e. strictly inside the recording radius
    reach = radius * (1.0 - max(config.record_threshold, 0.0)) * (1.0 + 1e-9)
    if shared_prediction is not None:
        preds = np.broadcast_to(shared_prediction, (n_rows, 2))
        cand = index.query_disk(shared_prediction, reach)
        rows = np.repeat(np.arange(n_rows), cand.size)
        ids = np.repeat(cand[None, :], n_rows, axis=0).ravel()
    else:
        preds = sender_pos + states[:, 2:] * dt
        rows, ids = index.query_disk_pairs(preds, reach)
    cand_pos = positions[ids]
    dx = cand_pos[:, 0] - sender_pos[rows, 0]
    dy = cand_pos[:, 1] - sender_pos[rows, 1]
    keep = np.sqrt(dx * dx + dy * dy) <= scenario.radio.comm_radius
    if anticipate is not None and ids.size:
        keep &= np.asarray(anticipate(ids), dtype=bool)
    if lost is not None and any(lost_ids.size for lost_ids in lost):
        # a candidate that lost a sender's copy heard none of its rows
        broadcast_of = np.repeat(np.arange(len(counts)), counts)
        lost_keys = np.repeat(np.arange(len(lost)), [a.size for a in lost]) << 32
        lost_keys |= np.concatenate(lost)
        keep &= ~np.isin(broadcast_of[rows] << 32 | ids, lost_keys)
    rows, ids, cand_pos = rows[keep], ids[keep], cand_pos[keep]
    sel, _, shares = batch_propagate(
        preds, weights, rows, ids, cand_pos, area_radius=radius,
        record_threshold=config.record_threshold, max_recorders=config.max_recorders,
    )
    rows, rids = rows[sel], ids[sel]
    velocities = batch_implied_velocities(
        sender_pos[rows], positions[rids], states[rows, 2:], dt,
        config.velocity_mode, config.velocity_alpha, track_velocity=track_velocity,
    )
    if lost is not None:
        up = medium.available_mask(rids)
        rids, shares, velocities = rids[up], shares[up], velocities[up]
    return rids, shares, velocities


def drop_and_normalize(
    combined: HolderSet,
    drop_threshold: float,
    total: float,
    lost: list[np.ndarray] | None = None,
    broadcast_weights: np.ndarray | None = None,
) -> tuple[HolderSet, int, bool]:
    """The correction round's drop rule and normalization over the combined
    particles (ascending ids): ``(kept holders, dropped count, short)``.

    Drop rule (the correction step's "resampling"): discard recorded
    particles whose share is below ``drop_threshold`` times the largest
    recorded share.  Every recorder can evaluate this locally: shares are
    deterministic functions of the overheard broadcasts and static positions
    (the same shared data Theorem 2 relies on), so each node can
    reconstruct every other recorder's share without communication.
    Relative-to-max pruning is scale-free in the weights, so it cannot go
    extinct and the surviving holder count is set by geometry — growing
    with deployment density exactly as §III-A describes.

    Each kept particle is then divided by the total weight its recorder
    overheard: ``total``, less the ``broadcast_weights`` of the broadcasts
    whose copy it lost (``lost``, one id array per broadcast; None when no
    copy was lost), or ``total`` again if nothing would remain.  ``short``
    is True when some kept recorder renormalized against a smaller total.
    """
    max_share = float(combined.weights.max()) if combined else 0.0
    kept = combined.take(~(combined.weights < drop_threshold * max_share))
    denom: float | np.ndarray = total
    short = False
    if lost is not None and kept:
        lost_w = _lost_weight(kept.ids, lost, broadcast_weights)
        missed = lost_w > 0.0
        short = bool(missed.any())
        if short:
            rest = total - lost_w[missed]
            denom = np.full(len(kept), total)
            denom[missed] = np.where(rest <= 0.0, total, rest)
    kept.weights = kept.weights / denom
    return kept, len(combined) - len(kept), short


@dataclass
class CDPFStats(TrackerStats):
    """Per-run bookkeeping the experiments read out.

    Extends the shared :class:`~repro.runtime.stats.TrackerStats` (holder /
    creator / track-lost / degraded counters, per-phase timings) with the
    CDPF-specific series.  ``degraded_iterations`` counts iterations where
    channel loss forced graceful degradation: a recorder renormalized against
    an incomplete overheard total, or the whole correction round lost quorum
    and fell back to prior-weight propagation.  Always 0 on a reliable
    medium.
    """

    dropped_per_iteration: list[int] = field(default_factory=list)
    estimate_disagreement: list[float] = field(default_factory=list)
    partial_overhearing: list[int] = field(default_factory=list)
    area_widenings: int = 0


class CDPFTracker:
    """The completely distributed particle filter (set ``neighborhood_estimation``
    for CDPF-NE).

    Parameters
    ----------
    scenario:
        Static world configuration (deployment, radio, models, byte sizes).
    rng:
        Randomness source (only the sensing layer consumes randomness inside
        the tracker-facing pipeline; propagation itself is deterministic).
    config:
        Propagation mechanism knobs; defaults to the paper's geometry
        (predicted-area radius = sensing radius).
    neighborhood_estimation:
        When True, run CDPF-NE: skip measurement sharing and weight by the
        estimated neighbor contribution c_0 instead of the likelihood.
    check_consistency:
        When True, compute the correction-step estimate independently at
        every recorder and record the maximum disagreement (slow; used by
        integration tests to validate Theorem 2's operational consequence).
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        config: PropagationConfig | None = None,
        neighborhood_estimation: bool = False,
        initial_weight: float = 1.0,
        medium=None,
        check_consistency: bool = False,
        report_to_sink: bool = False,
    ) -> None:
        self.scenario = scenario
        self.rng = rng
        if config is None:
            if neighborhood_estimation:
                # NE has no likelihood channel: detection-driven particle
                # creation is its only grounding, so it anchors more eagerly
                # (tighter slack, higher creation rate); and with no
                # likelihood to concentrate weights, the holder population is
                # bounded geometrically instead (tighter recording radius) so
                # that NE stays the minimum-cost option at every density.
                config = PropagationConfig(
                    predicted_area_radius=scenario.sensing_radius,
                    record_threshold=0.65,
                    creation_slack=1.2,
                    creation_limit=6.0,
                )
            else:
                config = PropagationConfig(predicted_area_radius=scenario.sensing_radius)
        self.config = config
        self.neighborhood_estimation = neighborhood_estimation
        self.name = "CDPF-NE" if neighborhood_estimation else "CDPF"
        if initial_weight <= 0:
            raise ValueError(f"initial_weight must be positive, got {initial_weight}")
        self.initial_weight = float(initial_weight)
        self.medium = medium if medium is not None else scenario.make_medium()
        self.neighbors = scenario.make_neighbor_tables()
        self.check_consistency = check_consistency
        #: §IV-A step 2: "possibly report it to sink nodes".  Off by default
        #: (Table I's CDPF cost excludes reporting); when on, the highest-
        #: share holder unicasts each correction-step estimate to the sink,
        #: charged under the "report" category.
        self.report_to_sink = report_to_sink
        self._sink = scenario.sink_node() if report_to_sink else None

        #: the single (combined) particle each holder node maintains
        self.holders = HolderSet()
        self.stats = CDPFStats()
        #: anticipated availability hook: callable(ids) -> bool mask, or None
        self.anticipate_available = None

        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self._velocity_estimate: np.ndarray | None = None
        self._last_sender_positions: np.ndarray | None = None
        self._last_predictions: np.ndarray | None = None
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def phases(self) -> tuple[Phase, ...]:
        """Fig. 2(b)'s reordered iteration as declared phases: CDPF-NE has no
        likelihood channel, so its phase list simply omits that phase (the
        traffic difference between the variants is one missing phase row).

        Built on each read: a stored tuple of bound methods would make the
        tracker a reference cycle, alive with its world until a full
        garbage collection."""
        phases = [
            Phase("propagation", self._phase_propagation),
            Phase("correction", self._phase_correction),
            Phase("creation", self._phase_creation),
        ]
        if not self.neighborhood_estimation:
            phases.append(Phase("likelihood", self._phase_likelihood))
        phases.append(Phase("assign_weight", self._phase_assign_weight))
        return tuple(phases)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> np.ndarray | None:
        """One CDPF iteration; returns the estimate for the *previous* iteration."""
        return self.pipeline.run(ctx)

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable tracker state only.  The medium is owned by the run layer
        (and shared across trackers under :class:`~repro.core.multitarget.
        MultiTargetCDPF`), so it snapshots separately; static configuration
        (scenario, config, phase list) is rebuilt from the spec on restore.

        Holders are listed in row order, which creation's base weight (a
        mean over the rows) reads; a checkpoint that lists them by id, as
        older ones do, restores them in that order."""
        from ..runtime.checkpoint import snapshot_rng

        holders = self.holders
        return {
            "holders": [
                [nid, velocity.copy(), weight]
                for nid, velocity, weight in zip(
                    holders.ids.tolist(), holders.velocities, holders.weights.tolist()
                )
            ],
            "estimate": None if self._estimate is None else self._estimate.copy(),
            "estimate_iter": self._estimate_iter,
            "velocity_estimate": (
                None
                if self._velocity_estimate is None
                else np.asarray(self._velocity_estimate, dtype=np.float64).copy()
            ),
            "last_sender_positions": (
                None
                if self._last_sender_positions is None
                else self._last_sender_positions.copy()
            ),
            "last_predictions": (
                None if self._last_predictions is None else self._last_predictions.copy()
            ),
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        rows = state["holders"]
        self.holders = HolderSet(
            [int(nid) for nid, _, _ in rows],
            [float(weight) for _, _, weight in rows],
            [np.asarray(velocity, dtype=np.float64).reshape(2) for _, velocity, _ in rows],
        )
        est = state["estimate"]
        self._estimate = None if est is None else np.asarray(est, dtype=np.float64).copy()
        self._estimate_iter = (
            None if state["estimate_iter"] is None else int(state["estimate_iter"])
        )
        vel = state["velocity_estimate"]
        self._velocity_estimate = (
            None if vel is None else np.asarray(vel, dtype=np.float64).copy()
        )
        sp = state["last_sender_positions"]
        self._last_sender_positions = (
            None if sp is None else np.asarray(sp, dtype=np.float64).copy()
        )
        lp = state["last_predictions"]
        self._last_predictions = (
            None if lp is None else np.asarray(lp, dtype=np.float64).copy()
        )
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

    # ------------------------------------------------------------------
    # initialization (paper §III-B: first detectors get unit-weight particles)
    # ------------------------------------------------------------------

    def _initialize(self, ctx: StepContext, detectors: np.ndarray) -> None:
        if not detectors.size:
            return
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        self.holders = HolderSet(
            detectors, np.full(detectors.size, self.initial_weight), np.tile(v0, (detectors.size, 1))
        )
        self.stats.holders_per_iteration.append(len(self.holders))
        self.stats.creators_per_iteration.append(detectors.size)

    # ------------------------------------------------------------------
    # steps 1 + 2: propagation, overheard total, correction
    # ------------------------------------------------------------------

    def _available_mask(self, ids: np.ndarray) -> np.ndarray:
        """Locally *anticipated* availability of candidate recorders (§V-D)."""
        if self.anticipate_available is None:
            return np.ones(ids.shape[0], dtype=bool)
        return np.asarray(self.anticipate_available(ids), dtype=bool)

    def _direct_handoff(self) -> bool:
        """Whether a round may hand its data over without message transport.

        True when the medium delivers every copy (no link model, override,
        partition or parked delayed copy; every node awake and alive) and no
        consistency check reads the inboxes.  Each receiver then hears
        exactly its in-range senders, so the inbox round trip is a
        formality: the phase builds what the inboxes would hold directly
        and charges the ledger one aggregated row per round, which every
        ``(iteration, category, phase)`` view reads the same as one row per
        message.
        """
        return self.medium.delivers_all and not self.check_consistency

    def _phase_propagation(self, state: IterationState) -> None:
        """Step 1 (first half): every available holder broadcasts its particle
        (:func:`broadcast_particles`, one row per holder).

        Also hosts the birth iteration (§III-B initialization): with no
        holders yet there is nothing to propagate, the detectors seed the
        first particles, and the iteration ends early.

        Leaves ``state.broadcast = (states, weights)`` — the ``(B, 4)``
        sender states (position ++ velocity, sorted sender order) and their
        weights, or None when nothing was sent — and ``state.lost``, per
        broadcast the recipients that lost the copy (None under direct
        handoff, where nothing is lost).
        """
        ctx = state.ctx
        #: this iteration's detector ids, ascending
        state.detectors = np.unique(np.asarray(ctx.detectors, dtype=np.intp))
        if not self.holders:
            self._initialize(ctx, state.detectors)
            state.finish(None)
            return
        # A holder that slept or failed before its broadcast loses its
        # particle — the weight leaks, exactly the §V-D uncertain-factor case.
        # Under an unreliable channel each broadcast's per-recipient loss
        # record is kept: a node that lost a copy can neither record a share
        # from it nor count its weight in the overheard total.
        by_id = np.argsort(self.holders.ids)
        senders = self.holders.take(by_id[self.medium.available_mask(self.holders.ids[by_id])])
        states = senders.states(self.scenario.deployment.positions)
        state.lost = broadcast_particles(
            self.medium, senders.ids.tolist(), [1] * len(senders), states, senders.weights,
            state.iteration, direct=self._direct_handoff(),
        )
        if not senders:
            # the whole population became unavailable: the track is lost and
            # detection-driven creation must rebuild it
            self.holders = HolderSet()
            state.broadcast = None
            return
        state.broadcast = (states, senders.weights)

    def _phase_correction(self, state: IterationState) -> None:
        """Steps 1b + 2: overheard total, record/divide/combine, normalize, drop."""
        if state.broadcast is None:
            return  # nothing was propagated; the estimate stays unavailable
        states, weights = state.broadcast
        #: None under direct handoff: every copy arrived, every node is up
        lost: list[np.ndarray] | None = state.lost
        n_sent = weights.shape[0]
        k = state.iteration
        dt = self.scenario.dynamics.dt
        cfg = self.config

        # --- overheard aggregate (identical at every in-area node) --------
        total = float(weights.sum())
        w_eff = weights if total > 0 else np.full(n_sent, 1.0 / n_sent)
        total_eff = float(w_eff.sum())
        estimate = (w_eff @ states[:, :2]) / total_eff
        # Track velocity: blend the carried-velocity mean with the
        # displacement of consecutive consensus estimates.  The displacement
        # is the only signal that follows the target's turns, but it carries
        # ~2x the estimate noise amplified by 1/dt, so it is smoothed into
        # the carried mean rather than used raw.
        carried = (w_eff @ states[:, 2:]) / total_eff
        if self._estimate is not None and self._estimate_iter == k - 2:
            displacement = (estimate - self._estimate) / dt
            beta = self.config.velocity_alpha
            self._velocity_estimate = (1.0 - beta) * carried + beta * displacement
        else:
            self._velocity_estimate = carried
        self._estimate = estimate
        self._estimate_iter = k - 1

        # --- steps 1b + 2: record, divide, combine; normalize; drop -------
        self._last_sender_positions = states[:, :2]
        self._last_predictions = states[:, :2] + states[:, 2:] * dt
        # In track mode every holder carries the same consensus velocity, and
        # the natural propagation target is the *consensus* predicted
        # position (Definition 1's estimation area is the disk around "the
        # target's predicted position", singular) — all predicted areas
        # coincide, which is what bounds the recorder union.
        consensus_pred = (
            estimate + self._velocity_estimate * dt
            if cfg.velocity_mode == "track"
            else None
        )
        if consensus_pred is not None:
            self._last_predictions = consensus_pred[None, :]

        # degeneracy-aware area adaptation (future-work item 2): all
        # participants see the same overheard weights, hence the same ESS
        # and the same widened geometry
        if cfg.adaptive_area and n_sent > 1:
            w_norm = w_eff / total_eff
            ess_ratio = float(1.0 / np.sum(w_norm * w_norm)) / n_sent
            if ess_ratio < cfg.ess_target:
                from dataclasses import replace as _replace

                cfg = _replace(
                    cfg,
                    predicted_area_radius=cfg.predicted_area_radius * cfg.area_scale_max,
                )
                self.stats.area_widenings += 1
        # Every recorded share of the round, in broadcast order, combined per
        # recorder by one grouped pass (§III-A: weights sum, velocities
        # average by share).
        rids, shares, velocities = record_shares(
            self.scenario, self.medium, cfg, states, w_eff, [1] * n_sent, lost,
            track_velocity=self._velocity_estimate,
            shared_prediction=consensus_pred,
            anticipate=self.anticipate_available,
        )
        # one validity check for the whole round's particles
        combined = HolderSet(*combine_shares_grouped(rids, shares, velocities))
        any_lost = lost is not None and any(lost_ids.size for lost_ids in lost)
        if not combined and any_lost:
            # Graceful degradation: the correction round lost quorum — every
            # share was lost to the channel.  Fall back to prior-weight
            # propagation: surviving holders keep their particles and weights
            # for one iteration instead of declaring the track lost, so a
            # single deep fade does not erase the whole posterior.
            self.stats.degraded_iterations += 1
            self.stats.dropped_per_iteration.append(0)
            self.holders = self.holders.take(self.medium.available_mask(self.holders.ids))
            if self.check_consistency:
                self._record_consistency()
            self.medium.clear_inboxes()
            state.estimate = estimate
            return

        kept, dropped, short = drop_and_normalize(
            combined, cfg.drop_threshold, total_eff, lost if any_lost else None, w_eff
        )
        if short:
            self.stats.degraded_iterations += 1

        if self.check_consistency:
            self._record_consistency()

        self.holders = kept
        self.stats.dropped_per_iteration.append(dropped)
        if self.report_to_sink and kept:
            self._send_estimate_report(estimate, k)
        self.medium.clear_inboxes()
        state.estimate = estimate

    def _send_estimate_report(self, estimate: np.ndarray, k: int) -> None:
        """Route the correction-step estimate from the top holder to the sink."""
        from ..network.messages import EstimateReportMessage
        from ..network.routing import RoutingError, greedy_path

        reporter = int(self.holders.ids[np.argmax(self.holders.weights)])
        msg = EstimateReportMessage(sender=reporter, iteration=k, estimate=estimate)
        if reporter == self._sink:
            return
        try:
            path = greedy_path(
                self.scenario.deployment.index, reporter, self._sink, self.scenario.radio
            )
            self.medium.unicast_path(path, msg, k)
        except (RoutingError, RuntimeError):
            pass  # the report is best-effort; tracking is unaffected

    def _record_consistency(self) -> None:
        """Per-receiver estimates from actual inboxes (Theorem 2's operational check).

        The paper's consistency claim holds for nodes with *complete*
        overhearing ("as long as the propagation does not reach too far",
        §IV-A): those must agree to numerical precision.  Nodes that heard a
        strict subset are recorded separately as a coverage statistic.
        """
        n_broadcast = len(self.holders)
        per_node_estimates: list[np.ndarray] = []
        n_partial = 0
        for r in self.medium.pending_nodes():
            inbox = [m for m in self.medium.peek(r) if isinstance(m, ParticleMessage)]
            if not inbox:
                continue
            if len(inbox) < n_broadcast:
                n_partial += 1
                continue
            st = np.vstack([m.states for m in inbox])
            wt = np.concatenate([m.weights for m in inbox])
            tw = wt.sum()
            if tw > 0:
                per_node_estimates.append((wt @ st[:, :2]) / tw)
        if len(per_node_estimates) > 1:
            ests = np.vstack(per_node_estimates)
            spread = float(np.max(np.linalg.norm(ests - ests.mean(axis=0), axis=1)))
            self.stats.estimate_disagreement.append(spread)
        self.stats.partial_overhearing.append(n_partial)

    # ------------------------------------------------------------------
    # new-particle creation (§III-B: detectors that heard no propagation)
    # ------------------------------------------------------------------

    def _create_new_particles(self, ctx: StepContext, detectors: np.ndarray) -> np.ndarray:
        """§III-B: a detector outside every overheard predicted area (or out of
        earshot entirely) creates a particle "as in the initialization step".

        Created particles keep the initialization weight this iteration (no
        likelihood/NE multiplier — initialization assigns a constant weight),
        which is the channel that re-anchors a drifting track to physical
        detections.  They are appended after the existing holders; returns
        their node ids, ascending.

        Each candidate's hearing and slack tests are one row of a
        (candidates, senders) matrix op; the rate limit's draws are one
        ``uniform(size=n)`` batch consumed in sorted-candidate order, the
        same stream as one scalar draw per gated candidate.  The gate
        ``draw < min(1, limit / max(1, (degree + 1)·(R_s/R_c)²))`` is
        non-increasing in the degree in IEEE arithmetic (each operation
        rounds monotonically), so it admits at the upper degree bound only
        if it admits at the exact degree, and refuses at the lower bound
        only if it refuses there: the degree is counted exactly (and
        cached) only for the candidates whose bounds disagree, and
        ``admits(upper)`` is every candidate's exact decision.
        """
        positions = self.scenario.deployment.positions
        holders = self.holders
        if holders:
            base_weight = float(np.mean(holders.weights))  # over the rows' order
        else:
            base_weight = self.initial_weight
        cand = detectors[~_in_sorted(detectors, np.sort(holders.ids))]
        cand = cand[self.medium.available_mask(cand)]
        if not cand.size:
            return cand
        sender_pos = self._last_sender_positions
        predictions = self._last_predictions
        if sender_pos is not None and sender_pos.size:
            cpos = positions[cand]
            d2 = np.sum((sender_pos[None, :, :] - cpos[:, None, :]) ** 2, axis=2)
            heard = d2 <= self.scenario.radio.comm_radius**2
            heard_any = heard.any(axis=1)
            # a candidate that overheard propagation creates only if it sits
            # outside every predicted area (with slack).  Under consensus
            # prediction there is a single area; otherwise one per overheard
            # sender.
            slack_r = self.config.creation_slack * self.config.predicted_area_radius
            d_pred = np.sqrt(
                np.sum((predictions[None, :, :] - cpos[:, None, :]) ** 2, axis=2)
            )
            within = d_pred <= slack_r
            if predictions.shape[0] == sender_pos.shape[0]:
                within &= heard
            inside = within.any(axis=1) & heard_any
        else:
            heard_any = inside = np.zeros(cand.size, dtype=bool)
        # Local creation rate limit for the outside-area case: keep the
        # expected creator count at ~creation_limit network-wide.  Detectors
        # out of earshot entirely skip the limit — they are the re-anchoring
        # channel and behave like initialization.
        create = ~inside
        gated = heard_any & create if holders else np.zeros(cand.size, dtype=bool)
        if gated.any():
            area_ratio = (self.scenario.sensing_radius / self.scenario.radio.comm_radius) ** 2
            limit = self.config.creation_limit
            draws = self.rng.uniform(size=int(np.count_nonzero(gated)))

            def admits(degrees: np.ndarray) -> np.ndarray:
                n_codetectors = np.maximum(1.0, (degrees + 1) * area_ratio)
                return draws < np.minimum(1.0, limit / n_codetectors)

            # the gate is non-increasing in the degree, so a candidate its
            # degree bounds agree on needs no exact count
            _lower, upper = self.neighbors.degree_bounds(
                cand[gated], lambda lower, upper: admits(lower) & ~admits(upper)
            )
            create[gated] = admits(upper)
        created = cand[create]
        if not created.size:
            return created
        if self._estimate is not None:
            # The creator detects the target *now*, so the displacement
            # from the last consensus estimate to its own position is a
            # direct (locally computable) velocity observation — the
            # channel through which the track velocity re-learns turns.
            velocities = (positions[created] - self._estimate) / self.scenario.dynamics.dt
        else:
            v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
            velocities = np.tile(v0, (created.size, 1))
        self.holders = holders.append(created, np.full(created.size, base_weight), velocities)
        return created

    # ------------------------------------------------------------------
    # new-particle creation phase
    # ------------------------------------------------------------------

    def _phase_creation(self, state: IterationState) -> None:
        state.created = self._create_new_particles(state.ctx, state.detectors)

    # ------------------------------------------------------------------
    # step 3, CDPF flavor: measurement sharing + likelihood evaluation
    # ------------------------------------------------------------------

    def _phase_likelihood(self, state: IterationState) -> None:
        """Share measurements one hop and evaluate each holder's joint kernel
        (:func:`share_measurements` + :func:`joint_log_likelihoods`, the same
        round SDPF runs in its share and likelihood phases).

        Only computes the per-holder log-likelihoods (into ``state.log_liks``
        as ``(holder rows, log-likelihoods)``); the weight multiplication is
        the assign_weight phase.  The kernels read only
        prior-weight-independent data (states, measurements), so deferring
        the multiply is bit-identical to the fused loop.
        """
        holders = self.holders
        by_id = np.argsort(holders.ids)
        ids = holders.ids[by_id]
        sharers = ids[_in_sorted(ids, state.detectors)]
        sharers = sharers[self.medium.available_mask(sharers)]
        # holders created this iteration keep their initialization weight;
        # creation appended them after the holders that recorded shares
        old = by_id[by_id < len(holders) - len(state.created)]
        receivers = holders.ids[old]
        heard = share_measurements(
            self.medium, sharers.tolist(), receivers.tolist(), state.ctx.measurements,
            state.iteration, direct=self._direct_handoff(),
        )
        lik_ids, log_liks = joint_log_likelihoods(
            self.scenario, self.neighbors, receivers, heard, state.detectors,
            state.ctx.measurements,
        )
        state.log_liks = (old[np.searchsorted(receivers, lik_ids)], log_liks)

    # ------------------------------------------------------------------
    # step 4: assign weight (likelihood multiply, or NE contribution)
    # ------------------------------------------------------------------

    def _phase_assign_weight(self, state: IterationState) -> None:
        if self.neighborhood_estimation:
            self._assign_weights_ne(state.iteration, n_created=len(state.created))
        else:
            rows, log_liks = state.log_liks
            self.holders.weights[rows] *= np.exp(log_liks)
        self.stats.record_population(len(self.holders), len(state.created))

    # ------------------------------------------------------------------
    # steps 3 + 4, CDPF-NE flavor: estimated neighbor contributions
    # ------------------------------------------------------------------

    def _assign_weights_ne(self, k: int, n_created: int = 0) -> None:
        """Multiply every holder's weight by its estimated contribution c_0,
        except the last ``n_created`` rows (this iteration's creators).

        Holder ``r``'s estimation area is its available one-hop neighbors
        plus itself, restricted to the disk of radius R_s around the
        consensus prediction.  One disk query finds that disk's members; a
        (holders, members) comm-radius mask — the neighbor tables'
        ``d2 <= r*r`` test — picks each holder's group, and one CSR
        :func:`batch_contributions` call evaluates every group.  This holds
        for any geometry, not only under R_s <= R_c/2.
        """
        if self._estimate is None or self._velocity_estimate is None:
            return  # no consensus prediction yet; weights stay as recorded
        positions = self.scenario.deployment.positions
        dt = self.scenario.dynamics.dt
        r_s = self.scenario.sensing_radius
        predicted_now = self._estimate + self._velocity_estimate * dt
        weights = self.holders.weights
        by_id = np.argsort(self.holders.ids[: weights.size - n_created])
        holders = self.holders.ids[by_id]
        if not holders.size:
            return
        # Own distances in the np.linalg.norm (FMA) form, area distances in
        # the plain sqrt-of-squares form — the two differ in the last bit and
        # both are replicated.
        own_diff = positions[holders] - predicted_now
        d_own = norm2d_many(own_diff[:, 0], own_diff[:, 1])
        # the area's members, ascending; the query radius is padded so the
        # exact plain-form test decides membership
        cand = self.scenario.deployment.index.query_disk(predicted_now, r_s * (1.0 + 1e-9))
        cand.sort()
        cand_pos = positions[cand]
        diff = cand_pos - predicted_now
        d_cand = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        inside = d_cand <= r_s
        members, d_members, m_pos = cand[inside], d_cand[inside], cand_pos[inside]
        # A holder outside the area contributes nothing: weight 0, dropped
        # later.  That includes a holder the plain form puts outside its own
        # area while the FMA form puts it inside.
        in_area = d_own <= r_s
        if members.size:
            at = np.minimum(np.searchsorted(members, holders), members.size - 1)
            in_area &= members[at] == holders
        else:
            in_area[:] = False
        weights[by_id[~in_area]] = 0.0
        if not in_area.any():
            return
        at = at[in_area]
        n_rows, n_members = at.size, members.size
        # (holders, members) one-hop mask: the neighbor tables' d2 <= r*r
        radius = self.scenario.radio.comm_radius
        mask = np.sum((m_pos[None, :, :] - m_pos[at][:, None, :]) ** 2, axis=2) <= (
            radius * radius
        )
        mask[np.arange(n_rows), at] = False  # the holder itself goes last
        mask &= self._available_mask(members)[None, :]  # self is always available
        # CSR groups: each holder's in-area neighbors in ascending id order,
        # then the holder itself
        keep = np.ones((n_rows, n_members + 1), dtype=bool)
        keep[:, :n_members] = mask
        values = np.empty((n_rows, n_members + 1))
        values[:, :n_members] = d_members
        values[:, n_members] = d_members[at]
        offsets = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(keep.sum(axis=1), out=offsets[1:])
        contributions = batch_contributions(values[keep], offsets)
        weights[by_id[in_area]] *= contributions[offsets[1:] - 1]

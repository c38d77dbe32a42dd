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

from ..kernels.geometry import norm2d_many
from ..kernels.likelihood import batch_likelihood
from ..kernels.propagation import batch_implied_velocities, batch_propagate
from ..models.measurement import wrap_angle
from ..network.messages import MeasurementMessage, ParticleMessage
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext
from .contributions import estimated_contributions
from .propagation import HeldParticle, PropagationConfig, combine_shares

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

        #: node id -> the single (combined) particle it maintains
        self.holders: dict[int, HeldParticle] = {}
        self.stats = CDPFStats()
        #: anticipated availability hook: callable(ids) -> bool mask, or None
        self.anticipate_available = None

        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self._velocity_estimate: np.ndarray | None = None
        self._last_sender_positions: np.ndarray | None = None
        self._last_predictions: np.ndarray | None = None

        # Fig. 2(b)'s reordered iteration as declared phases: CDPF-NE has no
        # likelihood channel, so its phase list simply omits that phase (the
        # traffic difference between the variants is one missing phase row).
        phases = [
            Phase("propagation", self._phase_propagation),
            Phase("correction", self._phase_correction),
            Phase("creation", self._phase_creation),
        ]
        if not neighborhood_estimation:
            phases.append(Phase("likelihood", self._phase_likelihood))
        phases.append(Phase("assign_weight", self._phase_assign_weight))
        self.phases = tuple(phases)
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

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
        (scenario, config, phase list) is rebuilt from the spec on restore."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "holders": [
                [int(nid), p.velocity.copy(), float(p.weight)]
                for nid, p in sorted(self.holders.items())
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

        self.holders = {
            int(nid): HeldParticle(
                velocity=np.asarray(velocity, dtype=np.float64), weight=float(weight)
            )
            for nid, velocity, weight in state["holders"]
        }
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

    def _initialize(self, ctx: StepContext, detectors: set[int]) -> None:
        if not detectors:
            return
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        for nid in sorted(detectors):
            self.holders[nid] = HeldParticle(velocity=v0.copy(), weight=self.initial_weight)
        self.stats.holders_per_iteration.append(len(self.holders))
        self.stats.creators_per_iteration.append(len(detectors))

    # ------------------------------------------------------------------
    # steps 1 + 2: propagation, overheard total, correction
    # ------------------------------------------------------------------

    def _available_mask(self, ids: np.ndarray) -> np.ndarray:
        """Locally *anticipated* availability of candidate recorders (§V-D)."""
        if self.anticipate_available is None:
            return np.ones(ids.shape[0], dtype=bool)
        return np.asarray(self.anticipate_available(ids), dtype=bool)

    def _phase_propagation(self, state: IterationState) -> None:
        """Step 1 (first half): every available holder broadcasts its particle.

        Also hosts the birth iteration (§III-B initialization): with no
        holders yet there is nothing to propagate, the detectors seed the
        first particles, and the iteration ends early.
        """
        ctx = state.ctx
        state.detectors = set(int(d) for d in np.asarray(ctx.detectors).ravel())
        if not self.holders:
            self._initialize(ctx, state.detectors)
            state.finish(None)
            return
        k = state.iteration
        positions = self.scenario.deployment.positions

        # A holder that slept or failed before its broadcast loses its
        # particle — the weight leaks, exactly the §V-D uncertain-factor case.
        # Under an unreliable channel each broadcast's per-recipient drop
        # record is kept: a node that lost a copy can neither record a share
        # from it nor count its weight in the overheard total.
        broadcast: list[ParticleMessage] = []
        batch = self.medium.transmission_batch(k)
        for nid in sorted(self.holders):
            if not self.medium.is_available(nid):
                continue
            particle = self.holders[nid]
            msg = ParticleMessage(
                sender=nid,
                iteration=k,
                states=particle.state(positions[nid])[None, :],
                weights=np.array([particle.weight]),
            )
            batch.broadcast(nid, msg)
            broadcast.append(msg)
        state.broadcast = broadcast
        # per-broadcast recipients that lost the copy, aligned with broadcast
        state.lost_sets = [
            set(delivery.dropped.tolist()) | set(delivery.delayed.tolist())
            for delivery in batch.flush()
        ]
        if not broadcast:
            # the whole population became unavailable: the track is lost and
            # detection-driven creation must rebuild it
            self.holders = {}

    def _phase_correction(self, state: IterationState) -> None:
        """Steps 1b + 2: overheard total, record/divide/combine, normalize, drop."""
        broadcast: list[ParticleMessage] = state.broadcast
        if not broadcast:
            return  # nothing was propagated; the estimate stays unavailable
        lost_sets: list[set[int]] = state.lost_sets
        k = state.iteration
        positions = self.scenario.deployment.positions
        index = self.scenario.deployment.index
        dt = self.scenario.dynamics.dt
        cfg = self.config

        # --- overheard aggregate (identical at every in-area node) --------
        states = np.vstack([m.states for m in broadcast])
        weights = np.concatenate([m.weights for m in broadcast])
        total = float(weights.sum())
        w_eff = weights if total > 0 else np.full(weights.shape[0], 1.0 / weights.shape[0])
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
        #
        # The recording decision and the division shares are functions of
        # *shared* data only (sender state in the broadcast message, static
        # node positions, anticipated availability), so — exactly as Theorem 2
        # argues for contributions — every candidate computes the identical
        # result.  The simulator exploits that consistency and evaluates each
        # broadcast's recorder set once instead of once per receiver; the
        # per-receiver equivalence is asserted by a dedicated test.
        comm_radius = self.scenario.radio.comm_radius
        self._last_sender_positions = states[:, :2]
        self._last_predictions = states[:, :2] + states[:, 2:] * dt
        shares_at: dict[int, list[tuple[float, np.ndarray]]] = {}
        all_recorder_ids: set[int] = set()
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
        if cfg.adaptive_area and weights.shape[0] > 1:
            w_norm = w_eff / total_eff
            ess_ratio = float(1.0 / np.sum(w_norm * w_norm)) / weights.shape[0]
            if ess_ratio < cfg.ess_target:
                from dataclasses import replace as _replace

                cfg = _replace(
                    cfg,
                    predicted_area_radius=cfg.predicted_area_radius * cfg.area_scale_max,
                )
                self.stats.area_widenings += 1
        # One spatial query + one batched recorder selection for the whole
        # round instead of per-broadcast scalar calls.  In track mode every
        # broadcast shares the consensus predicted area, so the candidate set
        # is queried once; otherwise the per-sender areas are unioned and each
        # broadcast keeps only its own in-area candidates (``query_disk``'s
        # ``d2 <= r*r`` test replicated bitwise — the sqrt'd probability cut
        # alone is NOT equivalent at the disk boundary).  The availability
        # hook is evaluated once over the shared candidate set; hooks are
        # pure functions of the ids (all in-repo hooks are).
        sender_pos_all = states[:, :2]
        sender_vel_all = states[:, 2:]
        if consensus_pred is not None:
            preds = np.broadcast_to(consensus_pred, (len(broadcast), 2))
            cand = index.query_disk(consensus_pred, cfg.predicted_area_radius)
            in_area_masks = None
        else:
            preds = sender_pos_all + sender_vel_all * dt
            cand = index.query_disk_many(preds, cfg.predicted_area_radius)
        if cand.size:
            cand_pos = positions[cand]
            if consensus_pred is None:
                pdx = cand_pos[None, :, 0] - preds[:, 0:1]
                pdy = cand_pos[None, :, 1] - preds[:, 1:2]
                in_area_masks = pdx * pdx + pdy * pdy <= (
                    cfg.predicted_area_radius * cfg.predicted_area_radius
                )
            sdx = cand_pos[None, :, 0] - sender_pos_all[:, 0:1]
            sdy = cand_pos[None, :, 1] - sender_pos_all[:, 1:2]
            keep_masks = np.sqrt(sdx * sdx + sdy * sdy) <= comm_radius
            if in_area_masks is not None:
                keep_masks &= in_area_masks
            keep_masks &= self._available_mask(cand)[None, :]
            for bi, lost in enumerate(lost_sets):
                if lost:
                    # a candidate that lost this copy never heard the
                    # particle: it cannot record a share of it
                    keep_masks[bi] &= np.fromiter(
                        (int(c) not in lost for c in cand), dtype=bool, count=cand.size
                    )
            selected = batch_propagate(
                preds,
                w_eff,
                cand,
                cand_pos,
                area_radius=cfg.predicted_area_radius,
                record_threshold=cfg.record_threshold,
                max_recorders=cfg.max_recorders,
                keep_masks=keep_masks,
            )
        else:
            selected = [(np.zeros(0, dtype=np.intp),) * 3] * len(broadcast)
        for bi in range(len(broadcast)):
            sel, _, rec_shares = selected[bi]
            if sel.size == 0:
                continue
            rec_ids = cand[sel]
            all_recorder_ids.update(rec_ids.tolist())
            vels = batch_implied_velocities(
                sender_pos_all[bi],
                positions[rec_ids],
                sender_vel_all[bi],
                dt,
                cfg.velocity_mode,
                cfg.velocity_alpha,
                track_velocity=self._velocity_estimate,
            )
            for i, (rid, share) in enumerate(zip(rec_ids.tolist(), rec_shares.tolist())):
                # anticipated recorders that are actually unavailable lose
                # their share (weight leak — the §V-D uncertain-factor case)
                if not self.medium.is_available(rid):
                    continue
                shares_at.setdefault(rid, []).append((share, vels[i]))

        # Drop rule (the correction step's "resampling"): discard recorded
        # particles whose share is below drop_threshold times the largest
        # recorded share.  Every recorder can evaluate this locally: shares
        # are deterministic functions of the overheard broadcasts and static
        # positions (the same shared data Theorem 2 relies on), so each node
        # can reconstruct every other recorder's share without communication.
        # Relative-to-max pruning is scale-free in the weights, so it cannot
        # go extinct and the surviving holder count is set by geometry —
        # growing with deployment density exactly as §III-A describes.
        combined = {rid: combine_shares(shares_at[rid]) for rid in sorted(shares_at)}
        any_lost = any(lost_sets)
        if not combined and any_lost:
            # Graceful degradation: the correction round lost quorum — every
            # share was lost to the channel.  Fall back to prior-weight
            # propagation: surviving holders keep their particles and weights
            # for one iteration instead of declaring the track lost, so a
            # single deep fade does not erase the whole posterior.
            self.stats.degraded_iterations += 1
            self.stats.dropped_per_iteration.append(0)
            self.holders = {
                nid: p for nid, p in self.holders.items() if self.medium.is_available(nid)
            }
            if self.check_consistency:
                self._record_consistency()
            self.medium.clear_inboxes()
            state.estimate = estimate
            return

        # Per-recorder overheard totals: a recorder that lost copies saw a
        # *smaller* total weight than the full round carried.  It renormalizes
        # by what it actually overheard (the locally correct denominator) —
        # on a reliable medium this is exactly the shared total.
        lost_weight_at: dict[int, float] = {}
        if any_lost:
            for bi, lost in enumerate(lost_sets):
                w_bi = float(w_eff[bi])
                for r in lost:
                    lost_weight_at[r] = lost_weight_at.get(r, 0.0) + w_bi

        max_share = max((p.weight for p in combined.values()), default=0.0)
        threshold = cfg.drop_threshold * max_share
        new_holders: dict[int, HeldParticle] = {}
        dropped = 0
        degraded = False
        for rid, particle in combined.items():
            if particle.weight < threshold:
                dropped += 1
                continue
            lost_w = lost_weight_at.get(rid, 0.0)
            if lost_w > 0.0:
                degraded = True
                denom = total_eff - lost_w
                if denom <= 0.0:
                    denom = total_eff
            else:
                denom = total_eff
            particle.weight = particle.weight / denom
            new_holders[rid] = particle
        if degraded:
            self.stats.degraded_iterations += 1

        if self.check_consistency:
            self._record_consistency()

        self.holders = new_holders
        self.stats.dropped_per_iteration.append(dropped)
        if self.report_to_sink and new_holders:
            self._send_estimate_report(estimate, k)
        self.medium.clear_inboxes()
        state.estimate = estimate

    def _send_estimate_report(self, estimate: np.ndarray, k: int) -> None:
        """Route the correction-step estimate from the top holder to the sink."""
        from ..network.messages import EstimateReportMessage
        from ..network.routing import RoutingError, greedy_path

        reporter = max(self.holders, key=lambda nid: self.holders[nid].weight)
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

    def _create_new_particles(self, ctx: StepContext, detectors: set[int]) -> set[int]:
        """§III-B: a detector outside every overheard predicted area (or out of
        earshot entirely) creates a particle "as in the initialization step".

        Created particles keep the initialization weight this iteration (no
        likelihood/NE multiplier — initialization assigns a constant weight),
        which is the channel that re-anchors a drifting track to physical
        detections.  Returns the created node ids.
        """
        positions = self.scenario.deployment.positions
        if self.holders:
            base_weight = float(np.mean([p.weight for p in self.holders.values()]))
        else:
            base_weight = self.initial_weight
        sender_pos = self._last_sender_positions
        predictions = self._last_predictions
        comm_r2 = self.scenario.radio.comm_radius**2
        slack_r = self.config.creation_slack * self.config.predicted_area_radius
        area_ratio = (self.scenario.sensing_radius / self.scenario.radio.comm_radius) ** 2
        track_alive = bool(self.holders)
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        created: set[int] = set()
        for nid in sorted(detectors):
            if nid in self.holders or not self.medium.is_available(nid):
                continue
            heard_any = False
            if sender_pos is not None and sender_pos.size:
                heard = np.sum((sender_pos - positions[nid]) ** 2, axis=1) <= comm_r2
                heard_any = bool(heard.any())
                if heard_any:
                    # it overheard propagation: create only if it sits outside
                    # every predicted area (with slack).  Under consensus
                    # prediction there is a single area; otherwise one per
                    # overheard sender.
                    if predictions.shape[0] == sender_pos.shape[0]:
                        preds_heard = predictions[heard]
                    else:
                        preds_heard = predictions
                    d_pred = np.sqrt(
                        np.sum((preds_heard - positions[nid]) ** 2, axis=1)
                    )
                    if (d_pred <= slack_r).any():
                        continue
            if track_alive and heard_any:
                # local creation rate limit for the outside-area case: keep
                # the expected creator count at ~creation_limit network-wide.
                # Detectors out of earshot entirely skip the limit — they are
                # the re-anchoring channel and behave like initialization.
                n_codetectors = max(1.0, (self.neighbors.degree(nid) + 1) * area_ratio)
                if self.rng.uniform() >= min(1.0, self.config.creation_limit / n_codetectors):
                    continue
            if self._estimate is not None:
                # The creator detects the target *now*, so the displacement
                # from the last consensus estimate to its own position is a
                # direct (locally computable) velocity observation — the
                # channel through which the track velocity re-learns turns.
                velocity = (positions[nid] - self._estimate) / self.scenario.dynamics.dt
            else:
                velocity = v0.copy()
            self.holders[nid] = HeldParticle(velocity=velocity, weight=base_weight)
            created.add(nid)
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
        """Share measurements one hop and evaluate each holder's joint kernel.

        Only computes the per-holder log-likelihood (into ``state.log_liks``);
        the weight multiplication is the assign_weight phase.  The kernels
        read only prior-weight-independent data (states, measurements), so
        deferring the multiply is bit-identical to the fused loop.
        """
        ctx = state.ctx
        detectors: set[int] = state.detectors
        positions = self.scenario.deployment.positions
        measurement = self.scenario.measurement
        k = state.iteration
        sharers = sorted(
            nid
            for nid in self.holders
            if nid in detectors and self.medium.is_available(nid)
        )
        batch = self.medium.transmission_batch(k)
        for s in sharers:
            msg = MeasurementMessage(sender=s, iteration=k, value=float(ctx.measurements[s]))
            batch.broadcast(s, msg)
        batch.flush()
        # Gather every holder's (sender, measurement) pairs, then evaluate the
        # whole round as one (holders, measurements) log-kernel matrix.  The
        # matrix columns are the distinct pairs actually sitting in inboxes —
        # a delayed channel can deliver stale copies whose value differs from
        # this iteration's reading, so columns key on the pair, not the sender.
        rows: list[int] = []
        pair_lists: list[list[tuple[int, float]]] = []
        for r in sorted(self.holders):
            if r in state.created:
                self.medium.collect(r)  # drain; initialization weight stands
                continue
            inbox = [m for m in self.medium.collect(r) if isinstance(m, MeasurementMessage)]
            # a node's own measurement needs no radio message
            own = [(r, ctx.measurements[r])] if r in detectors else []
            pairs = [(m.sender, m.value) for m in inbox] + own
            if not pairs:
                continue  # no information this iteration; weight unchanged
            rows.append(r)
            pair_lists.append(pairs)
        log_liks: dict[int, float] = {}
        if rows:
            col_of: dict[tuple[int, float], int] = {}
            for pairs in pair_lists:
                for pair in pairs:
                    if pair not in col_of:
                        col_of[pair] = len(col_of)
            refs = np.vstack(
                [measurement.reference_point(positions[s]) for s, _ in col_of]
            )
            zs = np.array([z for _, z in col_of], dtype=np.float64)
            # discretization-aware sigma: local density from each node's degree
            lam_denom = np.pi * self.scenario.radio.comm_radius**2
            lam = np.array(
                [(self.neighbors.degree(r) + 1) / lam_denom for r in rows]
            )
            matrix = batch_likelihood(
                positions[rows], lam, refs, zs, measurement.noise_std
            )
            # tempered fusion (mean log-kernel): the per-sensor bearings share
            # a common-mode error, so treating them as fully independent would
            # sharpen the joint likelihood far below the node-position
            # quantization scale and randomly annihilate every holder
            for i, (r, pairs) in enumerate(zip(rows, pair_lists)):
                cols = [col_of[pair] for pair in pairs]
                log_liks[r] = float(matrix[i, cols].mean())
        state.log_liks = log_liks
        self.medium.clear_inboxes()

    # ------------------------------------------------------------------
    # step 4: assign weight (likelihood multiply, or NE contribution)
    # ------------------------------------------------------------------

    def _phase_assign_weight(self, state: IterationState) -> None:
        if self.neighborhood_estimation:
            self._assign_weights_ne(state.iteration, skip=state.created)
        else:
            for r, log_lik in state.log_liks.items():
                particle = self.holders[r]
                particle.weight = particle.weight * float(np.exp(log_lik))
        self.stats.record_population(len(self.holders), len(state.created))

    # ------------------------------------------------------------------
    # steps 3 + 4, CDPF-NE flavor: estimated neighbor contributions
    # ------------------------------------------------------------------

    def _assign_weights_ne(self, k: int, skip: set[int] = frozenset()) -> None:
        if self._estimate is None or self._velocity_estimate is None:
            return  # no consensus prediction yet; weights stay as recorded
        positions = self.scenario.deployment.positions
        dt = self.scenario.dynamics.dt
        r_s = self.scenario.sensing_radius
        predicted_now = self._estimate + self._velocity_estimate * dt
        holders = [r for r in sorted(self.holders) if r not in skip]
        if not holders:
            return
        # Own distances batched in the scalar path's np.linalg.norm (FMA) form;
        # neighborhood distances batched below in its plain sqrt-of-squares
        # form — the two differ in the last bit and both are replicated.
        own_diff = positions[holders] - predicted_now
        d_own = norm2d_many(own_diff[:, 0], own_diff[:, 1])
        groups: list[tuple[int, np.ndarray]] = []
        for i, r in enumerate(holders):
            particle = self.holders[r]
            if d_own[i] > r_s:
                # outside the estimation area: zero contribution -> drop later
                particle.weight = 0.0
                continue
            neigh = self.neighbors.neighbors(r)
            avail = self._available_mask(neigh)
            groups.append((r, np.append(neigh[avail], r)))  # self is always available
        if not groups:
            return
        flat_ids = np.concatenate([ids for _, ids in groups])
        diff = positions[flat_ids] - predicted_now
        d_flat = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
        offset = 0
        for r, ids in groups:
            d_all = d_flat[offset : offset + ids.size]
            offset += ids.size
            in_area = d_all <= r_s
            area_ids = ids[in_area]
            d_area = d_all[in_area]
            contributions = estimated_contributions(d_area)
            own_idx = int(np.nonzero(area_ids == r)[0][0])
            particle = self.holders[r]
            particle.weight = particle.weight * float(contributions[own_idx])

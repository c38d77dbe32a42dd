"""SDPF: the semi-distributed particle filter baseline (Coates & Ing [7]).

Particles are maintained on sensor nodes exactly as in CDPF — the propagation,
division and combination mechanics are shared with
:mod:`repro.core.propagation` — but the filter keeps the *classic* step order,
which forces weight aggregation through a **global transceiver** assumed to be
one radio hop from every node.  Each iteration:

1. **propagation** — every holder broadcasts its (up to ``particles_per_node``)
   particles one hop; recorders record/divide/combine           [N_s (D_p + D_w)]
2. **measurement sharing** — holders that detected broadcast     [N_n D_m]
3. **likelihood + weight update** locally on every holder
   (steps 1-3 run CDPF's rounds — :func:`~repro.core.cdpf.broadcast_particles`
   and :func:`~repro.core.cdpf.record_shares` with one row per particle, then
   :func:`~repro.core.cdpf.share_measurements` and
   :func:`~repro.core.cdpf.joint_log_likelihoods` — and take CDPF's direct
   handoff on a medium that delivers every copy)
4. **weight aggregation** — three-way handshake with the transceiver:
   query broadcast, per-holder weight reports, total broadcast  [N_s D_w + 2 msgs]
5. **resampling** — holders normalize by the total and apply the drop rule;
   per-node particle lists are capped at ``particles_per_node``
6. **estimation** — the transceiver, which received every weight (and knows
   the static host positions), computes the global estimate; unlike CDPF the
   estimate is available for the *current* iteration.

The per-iteration cost is Table I's  N_s (D_p + D_m + 2 D_w)  row, which the
simulator's ledger reproduces exactly (a test asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cdpf import (
    broadcast_particles,
    joint_log_likelihoods,
    record_shares,
    share_measurements,
)
from ..core.propagation import PropagationConfig
from ..network.messages import (
    QueryMessage,
    TotalWeightMessage,
    WeightReportMessage,
)
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext

__all__ = ["SDPFTracker"]


@dataclass
class _NodeParticles:
    """A holder's particle list: velocities (n, 2) and weights (n,)."""

    velocities: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())


class SDPFTracker:
    """Semi-distributed PF with transceiver-based weight aggregation."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        config: PropagationConfig | None = None,
        particles_per_node: int = 8,
        initial_weight: float = 1.0,
        medium=None,
    ) -> None:
        if particles_per_node < 1:
            raise ValueError(f"particles_per_node must be >= 1, got {particles_per_node}")
        self.name = "SDPF"
        self.scenario = scenario
        self.rng = rng
        if config is None:
            # blend (not track) by default: SDPF's per-node particle lists
            # draw their diversity from per-particle displacement velocities
            config = PropagationConfig(
                predicted_area_radius=scenario.sensing_radius, velocity_mode="blend"
            )
        self.config = config
        self.particles_per_node = particles_per_node
        self.initial_weight = float(initial_weight)
        self.medium = medium if medium is not None else scenario.make_medium()
        self.neighbors = scenario.make_neighbor_tables()
        self.holders: dict[int, _NodeParticles] = {}
        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self._velocity_estimate: np.ndarray | None = None
        self._last_sender_positions: np.ndarray | None = None
        self._last_predictions: np.ndarray | None = None
        self.transceiver_id = -1  # pseudo-node; not part of the deployment
        self.stats = TrackerStats()
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The classic SIR order of Fig. 2(a): measurement sharing and the
        local likelihood multiply are separate phases (Table I charges the
        sharing traffic under N_n D_m), and the transceiver handshake is the
        aggregation phase whose 2-message overhead CDPF eliminates.  Built
        on each read, so the tracker holds no bound method of itself."""
        return (
            Phase("propagation", self._phase_propagation),
            Phase("creation", self._phase_creation),
            Phase("share", self._phase_share),
            Phase("likelihood", self._phase_likelihood),
            Phase("aggregation", self._phase_aggregation),
            Phase("resample", self._phase_resample),
            Phase("estimation", self._phase_estimation),
        )

    # ------------------------------------------------------------------

    @property
    def n_particles_total(self) -> int:
        """N_s: the number of particles currently maintained network-wide."""
        return sum(p.n for p in self.holders.values())

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable tracker state only; the medium snapshots at the run layer.

        Holders are listed in the dict's order, which creation's base weight
        (a mean over the holders) reads; a checkpoint that lists them by id,
        as older ones do, restores them in that order."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "holders": [
                [int(nid), p.velocities.copy(), p.weights.copy()]
                for nid, p in self.holders.items()
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
            int(nid): _NodeParticles(
                velocities=np.asarray(velocities, dtype=np.float64),
                weights=np.asarray(weights, dtype=np.float64),
            )
            for nid, velocities, weights in state["holders"]
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

    def step(self, ctx: StepContext) -> np.ndarray | None:
        """One SDPF iteration; the estimate refers to the *current* iteration."""
        return self.pipeline.run(ctx)

    # ------------------------------------------------------------------

    def _initialize(self, detectors: set[int]) -> None:
        if not detectors:
            return
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        m = self.particles_per_node
        for nid in sorted(detectors):
            # sample the velocity prior: per-particle diversity is the whole
            # point of holding m particles per node (identical velocities
            # would make the m-fold propagation cost pure waste)
            velocities = v0 + self.rng.normal(
                0.0, self.scenario.prior_velocity_std, size=(m, 2)
            )
            self.holders[nid] = _NodeParticles(
                velocities=velocities,
                weights=np.full(m, self.initial_weight / m),
            )

    def _create_new_particles(self, detectors: set[int]) -> set[int]:
        """Detectors outside every overheard predicted area create particles.

        Not CDPF's draw order: while a track is alive every eligible detector
        (not a holder, available) draws its rate-limit uniform *before* the
        hearing and slack tests, out-of-earshot detectors included.  CDPF
        draws only for detectors that heard propagation and sit outside every
        area.  The recorded goldens pin this RNG stream.
        """
        positions = self.scenario.deployment.positions
        if self.holders:
            base = float(np.mean([p.total for p in self.holders.values()]))
        else:
            base = self.initial_weight
        sender_pos = self._last_sender_positions
        predictions = self._last_predictions
        comm_r2 = self.scenario.radio.comm_radius**2
        slack_r = self.config.creation_slack * self.config.predicted_area_radius
        v0 = np.asarray(self.scenario.prior_velocity, dtype=np.float64)
        m = self.particles_per_node
        area_ratio = (self.scenario.sensing_radius / self.scenario.radio.comm_radius) ** 2
        track_alive = bool(self.holders)
        created: set[int] = set()
        eligible = [
            nid
            for nid in sorted(detectors)
            if nid not in self.holders and self.medium.is_available(nid)
        ]
        if track_alive:
            self.neighbors.warm_degrees(eligible)
        for nid in eligible:
            if track_alive:
                # local creation rate limit (see core.cdpf)
                n_codetectors = max(1.0, (self.neighbors.degree(nid) + 1) * area_ratio)
                if self.rng.uniform() >= min(1.0, self.config.creation_limit / n_codetectors):
                    continue
            if sender_pos is not None and sender_pos.size:
                heard = np.sum((sender_pos - positions[nid]) ** 2, axis=1) <= comm_r2
                if heard.any():
                    d_pred = np.sqrt(
                        np.sum((predictions[heard] - positions[nid]) ** 2, axis=1)
                    )
                    if (d_pred <= slack_r).any():
                        continue
            if self._estimate is not None:
                # displacement from the last global estimate to the creator —
                # a direct velocity observation (see core.cdpf)
                velocity = (positions[nid] - self._estimate) / self.scenario.dynamics.dt
            else:
                velocity = v0
            velocities = velocity + self.rng.normal(
                0.0, self.scenario.prior_velocity_std, size=(m, 2)
            )
            self.holders[nid] = _NodeParticles(
                velocities=velocities,
                weights=np.full(m, base / m),
            )
            created.add(nid)
        return created

    # ------------------------------------------------------------------

    def _phase_propagation(self, state: IterationState) -> None:
        """Step 1: broadcast particle lists; record/divide per particle, then
        combine and thin per recorder.

        The round is CDPF's (:func:`~repro.core.cdpf.broadcast_particles` and
        :func:`~repro.core.cdpf.record_shares`) with one row per particle
        and one message per available holder, handed over directly when the
        medium delivers every copy.

        Also hosts the birth iteration: with no holders yet the detectors seed
        the first particle lists and the iteration jumps straight to the
        aggregation handshake (``state.birth`` short-circuits the in-between
        phases), exactly as the classic order prescribes.
        """
        state.detectors = set(int(d) for d in np.asarray(state.ctx.detectors).ravel())
        state.birth = False
        if not self.holders:
            self._initialize(state.detectors)
            if not self.holders:
                state.finish(None)
            else:
                state.birth = True
            return
        positions = self.scenario.deployment.positions

        # a sleeping/failed holder does not broadcast: its particles leak away
        senders = [nid for nid in sorted(self.holders) if self.medium.is_available(nid)]
        lists = [self.holders[nid] for nid in senders]
        counts = [p.n for p in lists]
        if senders:
            states = np.concatenate(
                [
                    np.repeat(positions[senders], counts, axis=0),
                    np.concatenate([p.velocities for p in lists]),
                ],
                axis=1,
            )
            weights = np.concatenate([p.weights for p in lists])
        else:
            states, weights = np.zeros((0, 4)), np.zeros(0)
        lost = broadcast_particles(
            self.medium, senders, counts, states, weights, state.iteration,
            direct=self.medium.delivers_all,
        )
        if not senders:
            self.holders = {}
            return

        self._last_sender_positions = states[:, :2]
        self._last_predictions = states[:, :2] + states[:, 2:] * self.scenario.dynamics.dt
        rids, shares, velocities = record_shares(
            self.scenario, self.medium, self.config, states, weights, counts, lost,
            track_velocity=self._velocity_estimate,
        )
        # one stable sort groups each recorder's shares in row order: holder,
        # then particle, then recorder id
        order = np.argsort(rids, kind="stable")
        rids, shares, velocities = rids[order], shares[order], velocities[order]
        starts = np.flatnonzero(np.diff(rids, prepend=-1)).tolist()
        m = self.particles_per_node
        new_holders: dict[int, _NodeParticles] = {}
        for a, b in zip(starts, starts[1:] + [rids.size]):
            w, v = shares[a:b], velocities[a:b]
            # local thinning: keep the top particles_per_node shares,
            # preserving the node's total weight through the cut
            if b - a > m:
                keep = np.argsort(w)[::-1][:m]
                total_before = w.sum()
                w, v = w[keep], v[keep]
                kept = w.sum()
                if kept > 0:
                    w = w * (total_before / kept)
            new_holders[int(rids[a])] = _NodeParticles(velocities=v, weights=w)

        if not new_holders and lost is not None and any(ids.size for ids in lost):
            # Graceful degradation: every share was lost to the channel.
            # Prior-weight propagation — surviving holders keep their particle
            # lists for one iteration instead of the track dying in one fade.
            self.stats.degraded_iterations += 1
            new_holders = {
                nid: p for nid, p in self.holders.items() if self.medium.is_available(nid)
            }
        self.holders = new_holders
        self.medium.clear_inboxes()

    # ------------------------------------------------------------------

    def _phase_creation(self, state: IterationState) -> None:
        if state.birth:
            return
        state.created = self._create_new_particles(state.detectors)

    def _phase_share(self, state: IterationState) -> None:
        """Step 2: holders that detected broadcast their measurements (N_n D_m).

        CDPF's measurement round, handed over directly when the medium
        delivers every copy; holders created this iteration keep their
        initialization weight, so only the others collect.
        """
        if state.birth:
            return
        sharers = sorted(
            nid
            for nid in self.holders
            if nid in state.detectors and self.medium.is_available(nid)
        )
        state.receivers = [r for r in sorted(self.holders) if r not in state.created]
        state.heard = share_measurements(
            self.medium, sharers, state.receivers, state.ctx.measurements,
            state.iteration, direct=self.medium.delivers_all,
        )

    def _phase_likelihood(self, state: IterationState) -> None:
        """Step 3: every holder multiplies its weights by CDPF's joint
        (tempered) likelihood of its own position."""
        if state.birth:
            return
        ids, log_liks = joint_log_likelihoods(
            self.scenario, self.neighbors, state.receivers, state.heard,
            state.detectors, state.ctx.measurements,
        )
        for r, log_lik in zip(ids.tolist(), log_liks.tolist()):
            p = self.holders[r]
            p.weights = p.weights * float(np.exp(log_lik))

    # ------------------------------------------------------------------

    def _phase_aggregation(self, state: IterationState) -> None:
        """Step 4: three-way transceiver handshake (query, reports, total)."""
        k = state.iteration

        # (a) transceiver query broadcast (1 global message)
        self.medium.global_broadcast(
            QueryMessage(sender=self.transceiver_id, iteration=k), k
        )
        # (b) every holder reports its weights (N_s * D_w bytes, one msg each);
        #     the transceiver is simulated by the harness, so the reports are
        #     charged out of band rather than delivered to a field inbox, as
        #     one aggregated ledger row that WeightReportMessage checks and sizes
        reported = [(nid, self.holders[nid].weights) for nid in sorted(self.holders)]
        if reported:
            weights = np.concatenate([w for _, w in reported])
            self.medium.charge_out_of_band(
                k,
                WeightReportMessage.category,
                WeightReportMessage.round_bytes(self.medium.sizes, len(reported), weights),
                len(reported),
            )
        total = float(sum(w.sum() for _, w in reported))
        # (c) transceiver broadcasts the total (1 global message)
        self.medium.global_broadcast(
            TotalWeightMessage(sender=self.transceiver_id, iteration=k, total_weight=max(total, 0.0)),
            k,
        )
        self.medium.clear_inboxes()
        state.reported = reported
        state.total = total

    def _phase_resample(self, state: IterationState) -> None:
        """Step 5: normalize by the total; a holder drops out when its share
        falls below drop_threshold times the average per-node share
        (scale-free, so a freshly initialized population of equal-weight
        holders always survives)."""
        total = state.total
        if total > 0 and self.holders:
            threshold = self.config.drop_threshold / len(self.holders)
            for nid in list(self.holders):
                p = self.holders[nid]
                p.weights = p.weights / total
                if p.weights.sum() < threshold:
                    del self.holders[nid]

    def _phase_estimation(self, state: IterationState) -> None:
        """Step 6: the transceiver computes the global (current-iteration) estimate."""
        self.stats.record_population(len(self.holders), len(state.created))
        reported = state.reported
        if not reported:
            return  # estimate stays unavailable this iteration
        k = state.iteration
        positions = self.scenario.deployment.positions
        # transceiver-side estimate: weights + static (a-priori known) host positions
        ids = [nid for nid, _ in reported]
        w_sums = np.array([float(w.sum()) for _, w in reported])
        w_total = float(w_sums.sum())
        if w_total > 0:
            est = (w_sums / w_total) @ positions[ids]
        else:
            est = positions[ids].mean(axis=0)
        # velocity estimate for new-particle seeding: finite difference of
        # successive global estimates (the transceiver never sees velocities)
        if self._estimate is not None and self._estimate_iter == k - 1:
            self._velocity_estimate = (est - self._estimate) / self.scenario.dynamics.dt
        self._estimate = est
        self._estimate_iter = k
        state.estimate = self._estimate

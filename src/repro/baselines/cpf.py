"""CPF: the centralized particle filter baseline (paper §II-A, Table I).

Every detecting node forwards its raw measurement to a sink node at the field
center over multi-hop greedy geographic routing; the sink runs a standard SIR
filter (N_s = 1000 in the paper's configuration) fusing all bearings.  The
communication cost is exactly Table I's convergecast term

    sum_i D_m * H_i   (one D_m-sized message per hop per detector)

which the medium's ledger records per round.  Each round's new routes come
from one batched greedy pass (:func:`~repro.network.routing.greedy_paths`);
on a medium that delivers every copy the round is charged as one aggregated
ledger row instead of walking each path hop by hop.
"""

from __future__ import annotations

import numpy as np

from ..filters.sir import Observation, SIRFilter
from ..kernels.likelihood import fused_bearing
from ..models.measurement import BearingMeasurement
from ..network.messages import MeasurementMessage
from ..network.routing import greedy_paths
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext

__all__ = ["CPFTracker", "fuse_origin_bearings"]


def fuse_origin_bearings(
    values: np.ndarray, noise_std: float, bias_std: float
) -> tuple[float, float]:
    """Optimal fusion of M same-quantity bearings: circular mean + sigma_eff.

    With independent per-sensor noise sigma_n and a common-mode error
    sigma_b shared by all sensors in an iteration, the sufficient statistic
    is the (circular) mean bearing with

        sigma_eff^2 = sigma_n^2 / M + sigma_b^2.

    The common-mode term is what keeps the fused bearing from sharpening
    without bound as the node density grows.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one bearing to fuse")
    return fused_bearing(values, noise_std, bias_std)


class CPFTracker:
    """Centralized SIR at the sink; the reference for accuracy and cost."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        n_particles: int = 1000,
        resampler: str = "systematic",
        roughening: float = 0.2,
        process_noise_inflation: float = 10.0,
        medium=None,
    ) -> None:
        self.name = "CPF"
        self.scenario = scenario
        self.rng = rng
        self.medium = medium if medium is not None else scenario.make_medium()
        self.sink = scenario.sink_node()
        if process_noise_inflation <= 0:
            raise ValueError("process_noise_inflation must be positive")
        # Standard maneuvering-target Q tuning: the simulated target turns up
        # to +-15 deg/s, so the filter's CV process noise must cover the
        # turn-induced velocity changes or the cloud lags every maneuver.
        from ..models.constant_velocity import ConstantVelocityModel

        dyn = scenario.dynamics
        filter_dynamics = ConstantVelocityModel(
            dt=dyn.dt,
            sigma_x=dyn.sigma_x * process_noise_inflation,
            sigma_y=dyn.sigma_y * process_noise_inflation,
        )
        # Roughening is on by default: fusing tens of sharp bearings per
        # iteration collapses a plain SIR filter's ESS to ~1 and the track
        # diverges (see filters.sir).
        self.filter = SIRFilter(
            filter_dynamics, n_particles, rng=rng, resampler=resampler,
            roughening=roughening,
        )
        self._initialized = False
        self._estimate_iter: int | None = None
        self._path_cache: dict[int, list[int]] = {}
        self.hop_counts: list[int] = []  # per-message hop counts (for Table I checks)
        self._reliable = None  # lazy ARQ layer, built only for a lossy medium
        self.stats = TrackerStats()
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def phases(self) -> tuple[Phase, ...]:
        """All of CPF's traffic is the convergecast phase — exactly Table I's
        single sum_i D_m H_i term; sensing and the sink-side SIR update are
        radio-silent.  Built on each read, so the tracker holds no bound
        method of itself."""
        return (
            Phase("sense", self._phase_sense),
            Phase("convergecast", self._phase_convergecast),
            Phase("sir_update", self._phase_sir_update),
        )

    # ------------------------------------------------------------------

    def _route_new(self, sources) -> dict[int, list[int] | None]:
        """Routes for the uncached ``sources``, from one batched greedy pass
        around the ARQ layer's current blacklist; None marks an unroutable
        (disconnected) detector.  Nothing is cached here."""
        fresh = [s for s in sources if s not in self._path_cache]
        exclude = self._reliable.blacklist if self._reliable is not None else None
        paths = greedy_paths(
            self.scenario.deployment.index, fresh, self.sink, self.scenario.radio,
            exclude=exclude,
        )
        return dict(zip(fresh, paths))

    def _arq(self):
        if self._reliable is None:
            from ..network.reliability import ReliableUnicast

            self._reliable = ReliableUnicast(
                self.medium,
                index=self.scenario.deployment.index,
                radio=self.scenario.radio,
            )
        return self._reliable

    def _phase_sense(self, state: IterationState) -> None:
        """Read out each detector's bearing (no radio traffic)."""
        ctx = state.ctx
        state.detectors = sorted(int(d) for d in np.asarray(ctx.detectors).ravel())
        state.readings = [(nid, float(ctx.measurements[nid])) for nid in state.detectors]

    def _phase_convergecast(self, state: IterationState) -> None:
        """Forward every detector's measurement to the sink; fuse the batch.

        The observation order follows the sorted detector ids; the circular
        mean in :meth:`_fuse` is evaluated over that exact order, so the
        convergecast stays one phase (splitting it would reorder the float
        reduction).
        """
        ctx = state.ctx
        positions = self.scenario.deployment.positions
        sent = [(nid, z) for nid, z in state.readings if nid != self.sink]
        if self.medium.is_unreliable:
            arrived = self._send_arq(sent, ctx.iteration)
        else:
            arrived = self._send_lossless(sent, ctx.iteration)
        # fuse in sorted-reading order (the circular mean in _fuse is order-
        # sensitive, so successful reports keep their pre-batch positions)
        observations: list[Observation] = []
        for nid, z in state.readings:
            if nid == self.sink:
                # the sink's own measurement needs no transmission
                observations.append(
                    Observation(self.scenario.measurement, z, positions[nid])
                )
                continue
            if not arrived.get(nid, False):
                continue
            self.hop_counts.append(len(self._path_cache[nid]) - 1)
            observations.append(Observation(self.scenario.measurement, z, positions[nid]))
        self.medium.clear_inboxes()
        state.observations = self._fuse(observations)

    def _send_arq(self, sent: list[tuple[int, float]], iteration: int) -> dict[int, bool]:
        """Lossy channel: the convergecast runs over the bounded ack/retransmit
        layer (hop-by-hop ARQ + route repair), every attempt charged to the
        ledger.

        Routes resolve as each packet is sent, so one packet's route repair
        (blacklist growth) feeds the next packet's route.  The round's new
        routes are built up front in one batched pass, and one built before
        the blacklist grew is rebuilt alone at its turn when that growth can
        have changed it: when a node it forwards to is now blacklisted, or
        when it found no route.  Blacklisting a node that is not a relay's
        chosen next hop leaves that relay's choice unchanged, so every route
        is the one a per-packet resolution would build.

        The routes known up front, built or cached, are handed to the ARQ
        round, which draws the copy fates of all their links in one batched
        call before the first packet; repair tails and routes rebuilt at
        their turn draw theirs when they appear.
        """
        arq = self._arq()
        fresh = self._route_new(nid for nid, _z in sent)
        routed_with = len(arq.blacklist)
        known = (fresh.get(nid) or self._path_cache.get(nid) for nid, _z in sent)
        known = [path for path in known if path is not None]

        def route(nid: int) -> list[int] | None:
            if nid not in fresh:
                return self._path_cache[nid]
            path = fresh[nid]
            if len(arq.blacklist) != routed_with and (
                path is None or any(n in arq.blacklist for n in path[1:])
            ):
                path = greedy_paths(
                    self.scenario.deployment.index, [nid], self.sink, self.scenario.radio,
                    exclude=arq.blacklist,
                )[0]
            if path is not None:
                self._path_cache[nid] = path
            return path

        requests = [
            (
                lambda nid=nid: route(nid),
                MeasurementMessage(sender=nid, iteration=iteration, value=z),
            )
            for nid, z in sent
        ]
        arrived: dict[int, bool] = {}
        for (nid, _z), delivery in zip(sent, arq.send_many(requests, iteration, known)):
            if delivery is None:
                continue  # disconnected detector: measurement lost
            if delivery.receivers.size == 0:
                # timed out (or parked for next iteration): the sink never
                # fuses it this iteration; drop the cached path so the next
                # report re-routes around whatever died
                self._path_cache.pop(nid, None)
                arrived[nid] = False
            else:
                arrived[nid] = True
        return arrived

    def _send_lossless(self, sent: list[tuple[int, float]], iteration: int) -> dict[int, bool]:
        """Lossless channel: every routed detector's packet walks its path.

        A packet is lost, neither sent nor charged nor fused, when its
        detector is unroutable, when a hop of its route fails the medium's
        range test on the physical positions (routes come from the believed
        deployment, which mobility leaves behind), or when a relay on the
        transmitting prefix sleeps.  When the medium delivers every copy the
        round is handed over directly: one aggregated ledger row of
        ``sum(hops) * (header + D_m)``, what the per-hop messages cost.
        Otherwise the packets walk their paths in one
        :class:`~repro.network.medium.UnicastRound`, where a crashed relay
        silently eating the packet is the only loss.
        """
        for nid, path in self._route_new(nid for nid, _z in sent).items():
            if path is not None:
                self._path_cache[nid] = path
        routed = [(nid, z, self._path_cache[nid]) for nid, z in sent if nid in self._path_cache]
        if routed:
            reach = self._hops_in_range([path for _nid, _z, path in routed])
            routed = [entry for entry, ok in zip(routed, reach.tolist()) if ok]
        if self.medium.delivers_all:
            hops = sum(len(path) - 1 for _nid, _z, path in routed)
            n_bytes = MeasurementMessage.round_bytes(
                self.medium.sizes, hops, [z for _nid, z, _path in routed]
            )
            if hops:
                self.medium.accounting.record(
                    iteration, MeasurementMessage.category, n_bytes, hops
                )
            return {nid: True for nid, _z, _path in routed}
        arrived: dict[int, bool] = {}
        rnd = self.medium.unicast_round(iteration)
        try:
            for nid, z, path in routed:
                if any(self.medium.is_asleep(n) for n in path[:-1]):
                    continue  # a sleeping relay refuses to forward: lost
                msg = MeasurementMessage(sender=nid, iteration=iteration, value=z)
                arrived[nid] = not rnd.walk(path, msg).dropped.size
        finally:
            rnd.commit()
        return arrived

    def _hops_in_range(self, paths: list[list[int]]) -> np.ndarray:
        """Per path, whether every hop passes the medium's range test on its
        physical positions, in one array pass over all hops."""
        positions = self.medium.positions
        ok = self.medium.radio.in_range_many(
            positions[[a for path in paths for a in path[:-1]]],
            positions[[b for path in paths for b in path[1:]]],
        )
        owner = np.repeat(np.arange(len(paths)), [len(path) - 1 for path in paths])
        return np.bincount(owner[~ok], minlength=len(paths)) == 0

    def _fuse(self, observations: list[Observation]) -> list[Observation]:
        """Collapse origin-referenced bearings into their sufficient statistic."""
        meas = self.scenario.measurement
        if (
            len(observations) <= 1
            or not isinstance(meas, BearingMeasurement)
            or meas.reference != "origin"
        ):
            return observations
        values = np.array([obs.z for obs in observations])
        z_fused, sigma_eff = fuse_origin_bearings(
            values, meas.noise_std, self.scenario.measurement_bias_std
        )
        fused_model = BearingMeasurement(noise_std=sigma_eff, reference="origin")
        return [Observation(fused_model, z_fused, None)]

    def _initialize(self, ctx: StepContext, observations: list[Observation]) -> None:
        """Track birth: a Gaussian prior centered on the detectors' centroid."""
        if not observations:
            return
        positions = self.scenario.deployment.positions
        ids = [int(d) for d in np.asarray(ctx.detectors).ravel()]
        centroid = positions[ids].mean(axis=0)
        s = self.scenario
        mean = np.array([centroid[0], centroid[1], *s.prior_velocity])
        cov = np.diag(
            [
                s.prior_position_std**2,
                s.prior_position_std**2,
                s.prior_velocity_std**2,
                s.prior_velocity_std**2,
            ]
        )
        self.filter.initialize(mean, cov)
        self.filter.update(observations)
        self.filter.force_resample()
        self._initialized = True

    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> np.ndarray | None:
        return self.pipeline.run(ctx)

    def _phase_sir_update(self, state: IterationState) -> None:
        """Sink-side SIR update (or track birth) on the fused observations."""
        observations = state.observations
        if not self._initialized:
            self._initialize(state.ctx, observations)
            if not self._initialized:
                return  # no detections yet: the track is unborn
        else:
            self.filter.step(observations)
        self._estimate_iter = state.iteration
        state.estimate = self.filter.estimate()[:2]

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # -- checkpoint protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """Filter cloud, route caches, and the ARQ layer (when built).  The
        tracker and its SIR filter share one generator object, so the RNG
        stream is captured once here, not inside the filter snapshot."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "filter": self.filter.snapshot(),
            "initialized": bool(self._initialized),
            "estimate_iter": self._estimate_iter,
            "path_cache": [
                [int(src), [int(n) for n in path]]
                for src, path in sorted(self._path_cache.items())
            ],
            "hop_counts": [int(h) for h in self.hop_counts],
            "reliable": None if self._reliable is None else self._reliable.snapshot(),
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        self.filter.restore(state["filter"])
        self._initialized = bool(state["initialized"])
        self._estimate_iter = (
            None if state["estimate_iter"] is None else int(state["estimate_iter"])
        )
        self._path_cache = {
            int(src): [int(n) for n in path] for src, path in state["path_cache"]
        }
        self.hop_counts = [int(h) for h in state["hop_counts"]]
        if state["reliable"] is None:
            self._reliable = None
        else:
            self._arq().restore(state["reliable"])
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

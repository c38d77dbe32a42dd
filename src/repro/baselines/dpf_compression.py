"""Compression-based DPFs: the Table-I "DPF" row (Coates [10], Sheng [5]).

The computation follows the target through a chain of *leader* nodes: each
iteration, the detector closest to the predicted target position becomes the
leader, receives the local measurements, runs a full SIR update, and hands
the posterior to the next leader.  Communication per iteration is Table I's
``N * P * H`` plus the leader hand-off:

* measurements reach the leader *quantized to b bits* (P = b/8 bytes) —
  Coates' adaptive-encoding idea;
* the posterior travels between leaders either as a **Gaussian mixture**
  (``compression="gmm"``, Sheng et al.: K(2d+1) scalars) or as a
  **quantized particle subsample** (``compression="quantized"``, Coates:
  m particles on a b-bit grid).

Dequantization noise is folded into the measurement model's sigma (uniform
quantization adds variance step^2 / 12), so the filter stays statistically
consistent with what it actually receives.
"""

from __future__ import annotations

import numpy as np

from ..filters.gmm import GaussianMixture, fit_gmm
from ..filters.sir import Observation, SIRFilter
from ..kernels.likelihood import dequantize_bearings, quantize_bearings
from ..models.constant_velocity import ConstantVelocityModel
from ..models.measurement import BearingMeasurement
from ..network.messages import FilterStateMessage, QuantizedMeasurementMessage
from ..network.routing import RoutingError, greedy_path, greedy_paths
from ..runtime import IterationState, Phase, PhasePipeline, TrackerStats
from ..scenario import Scenario, StepContext

__all__ = ["DPFTracker", "quantize_bearing", "dequantize_bearing"]


def quantize_bearing(z: float, bits: int) -> int:
    """Uniformly quantize a bearing in (-pi, pi] to a b-bit code."""
    return int(quantize_bearings(np.asarray([z]), bits)[0])


def dequantize_bearing(code: int, bits: int) -> float:
    """Center of the code's quantization cell."""
    return float(dequantize_bearings(np.asarray([code]), bits)[0])


class DPFTracker:
    """Leader-chain DPF with quantized measurements and compressed hand-offs.

    Parameters
    ----------
    quantization_bits:
        Bearing quantization depth b (P = ceil(b/8) bytes per measurement).
    compression:
        ``"gmm"`` — posterior hand-off as a diagonal GMM;
        ``"quantized"`` — hand-off as a subsample of particles, each state
        scalar charged one weight-sized integer.
    n_particles:
        SIR population maintained at the leader.
    gmm_components / handoff_particles:
        Size of the respective compressed representation.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        rng: np.random.Generator,
        quantization_bits: int = 8,
        compression: str = "gmm",
        n_particles: int = 200,
        gmm_components: int = 3,
        handoff_particles: int = 16,
        process_noise_inflation: float = 10.0,
        medium=None,
    ) -> None:
        if compression not in ("gmm", "quantized"):
            raise ValueError(f"compression must be 'gmm' or 'quantized', got {compression!r}")
        if quantization_bits <= 0:
            raise ValueError("quantization_bits must be positive")
        self.name = f"DPF-{compression}"
        self.scenario = scenario
        self.rng = rng
        self.bits = quantization_bits
        self.compression = compression
        self.n_particles = n_particles
        self.gmm_components = gmm_components
        self.handoff_particles = handoff_particles
        self.medium = medium if medium is not None else scenario.make_medium()

        dyn = scenario.dynamics
        self._filter_dynamics = ConstantVelocityModel(
            dt=dyn.dt,
            sigma_x=dyn.sigma_x * process_noise_inflation,
            sigma_y=dyn.sigma_y * process_noise_inflation,
        )
        # quantization adds uniform noise with variance step^2 / 12
        step = 2 * np.pi / 2**quantization_bits
        meas = scenario.measurement
        if not isinstance(meas, BearingMeasurement):
            raise TypeError("DPFTracker requires a BearingMeasurement scenario")
        self._meas_model = BearingMeasurement(
            noise_std=float(np.sqrt(meas.noise_std**2 + step**2 / 12.0)),
            reference=meas.reference,
        )

        self.leader: int | None = None
        self.filter: SIRFilter | None = None
        self._estimate: np.ndarray | None = None
        self._estimate_iter: int | None = None
        self.stats = TrackerStats()
        self.pipeline = PhasePipeline(self, medium=self.medium, stats=self.stats)

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The leader-chain iteration: traffic splits into the hand-off
        (posterior compression) and collection (N P H) phases; sensing,
        election, and the leader's SIR update are radio-silent.  Built on
        each read, so the tracker holds no bound method of itself."""
        return (
            Phase("sense", self._phase_sense),
            Phase("leader_election", self._phase_leader_election),
            Phase("handoff", self._phase_handoff),
            Phase("collect", self._phase_collect),
            Phase("sir_update", self._phase_sir_update),
        )

    # ------------------------------------------------------------------

    def estimate_iteration(self) -> int | None:
        return self._estimate_iter

    @property
    def accounting(self):
        return self.medium.accounting

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Leader chain, filter cloud (when born), and the shared RNG stream.
        The SIR filter shares the tracker's generator object, so its stream
        is captured once here; the filter snapshot carries particles only."""
        from ..runtime.checkpoint import snapshot_rng

        return {
            "leader": self.leader,
            "filter": None if self.filter is None else self.filter.snapshot(),
            "estimate": None if self._estimate is None else self._estimate.copy(),
            "estimate_iter": self._estimate_iter,
            "rng": snapshot_rng(self.rng),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        from ..runtime.checkpoint import restore_rng

        self.leader = None if state["leader"] is None else int(state["leader"])
        if state["filter"] is None:
            self.filter = None
        else:
            if self.filter is None:
                # same construction parameters as track birth in
                # _phase_leader_election; the cloud is transplanted next
                self.filter = SIRFilter(
                    self._filter_dynamics, self.n_particles, rng=self.rng,
                    roughening=0.2,
                )
            self.filter.restore(state["filter"])
        est = state["estimate"]
        self._estimate = None if est is None else np.asarray(est, dtype=np.float64).copy()
        self._estimate_iter = (
            None if state["estimate_iter"] is None else int(state["estimate_iter"])
        )
        restore_rng(self.rng, state["rng"])
        self.stats.restore(state["stats"])

    # ------------------------------------------------------------------

    def _elect_leader(self, detectors: np.ndarray) -> int:
        """The detector nearest the predicted target position leads."""
        positions = self.scenario.deployment.positions
        if self._estimate is not None and self.filter is not None:
            target = self.filter.estimate()[:2]
        elif self._estimate is not None:
            target = self._estimate
        else:
            target = positions[detectors].mean(axis=0)
        d2 = np.sum((positions[detectors] - target) ** 2, axis=1)
        return int(detectors[np.argmin(d2)])

    def _collect_measurements(self, ctx: StepContext, leader: int, detectors: np.ndarray) -> list[Observation]:
        """Quantized measurements routed to the leader (N * P * H of Table I)."""
        positions = self.scenario.deployment.positions
        observations: list[Observation] = []
        det_sorted = sorted(int(d) for d in detectors)
        # quantizer round-trip batched over the whole detector set
        codes = quantize_bearings(
            np.array([float(ctx.measurements[n]) for n in det_sorted]), self.bits
        )
        zs = dequantize_bearings(codes, self.bits)
        # every detector's route from one batched greedy pass (routes read
        # only the static deployment); the sends stay per packet
        paths = greedy_paths(
            self.scenario.deployment.index, det_sorted, leader, self.scenario.radio
        )
        for i, nid in enumerate(det_sorted):
            code = int(codes[i])
            z = float(zs[i])
            obs = Observation(self._meas_model, z, positions[nid])
            if nid == leader:
                observations.append(obs)
                continue
            if paths[i] is None:
                continue  # unroutable: measurement lost
            msg = QuantizedMeasurementMessage(
                sender=nid, iteration=ctx.iteration, code=code, bits=self.bits
            )
            try:
                self.medium.unicast_path(paths[i], msg, ctx.iteration)
            except RuntimeError:
                continue  # a relay unavailable: measurement lost
            observations.append(obs)
        self.medium.clear_inboxes()
        return observations

    # -- posterior hand-off ------------------------------------------------

    def _compress_posterior(self) -> np.ndarray:
        states = self.filter.particles.states
        weights = self.filter.particles.weights
        if self.compression == "gmm":
            gmm = fit_gmm(
                states, self.gmm_components, rng=self.rng, sample_weights=weights
            )
            return gmm.to_params()
        # quantized subsample: the top handoff_particles by weight
        order = np.argsort(weights)[::-1][: self.handoff_particles]
        return states[order].ravel()

    def _decompress_posterior(self, params: np.ndarray) -> None:
        if self.compression == "gmm":
            gmm = GaussianMixture.from_params(params, self.gmm_components, 4)
            states = gmm.sample(self.n_particles, self.rng)
        else:
            anchors = params.reshape(-1, 4)
            idx = self.rng.integers(anchors.shape[0], size=self.n_particles)
            jitter = self.rng.normal(0.0, 0.5, size=(self.n_particles, 4))
            states = anchors[idx] + jitter
        from ..filters.particles import ParticleSet

        self.filter.initialize_from(ParticleSet(states, copy=False))

    def _handoff(self, old_leader: int, new_leader: int, k: int) -> None:
        """Route the compressed posterior from the old leader to the new one."""
        params = self._compress_posterior()
        msg = FilterStateMessage(sender=old_leader, iteration=k, params=params)
        try:
            path = greedy_path(
                self.scenario.deployment.index, old_leader, new_leader, self.scenario.radio
            )
            self.medium.unicast_path(path, msg, k)
        except (RoutingError, RuntimeError):
            return  # hand-off failed: the new leader re-initializes from scratch
        self.medium.clear_inboxes()
        self._decompress_posterior(params)

    # ------------------------------------------------------------------

    def step(self, ctx: StepContext) -> np.ndarray | None:
        return self.pipeline.run(ctx)

    def _phase_sense(self, state: IterationState) -> None:
        """Parse the detector set; with no detections the leader coasts."""
        state.detectors = np.asarray(state.ctx.detectors).ravel()
        if state.detectors.size == 0:
            if self.filter is not None:
                self.filter.predict()
                self._estimate = self.filter.estimate()[:2]
                self._estimate_iter = state.iteration
                state.finish(self._estimate)
            else:
                state.finish(None)

    def _phase_leader_election(self, state: IterationState) -> None:
        """Elect the detector nearest the prediction; track birth claims it."""
        detectors = state.detectors
        state.new_leader = self._elect_leader(detectors)
        if self.filter is None:
            # track birth at the first leader
            positions = self.scenario.deployment.positions
            s = self.scenario
            self.filter = SIRFilter(
                self._filter_dynamics, self.n_particles, rng=self.rng, roughening=0.2
            )
            centroid = positions[detectors].mean(axis=0)
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
            self.leader = state.new_leader
            state.new_leader = None  # a newborn track needs no hand-off

    def _phase_handoff(self, state: IterationState) -> None:
        """Route the compressed posterior to the new leader when it changed."""
        if state.new_leader is not None and state.new_leader != self.leader:
            self._handoff(self.leader, state.new_leader, state.iteration)
            self.leader = state.new_leader

    def _phase_collect(self, state: IterationState) -> None:
        state.observations = self._collect_measurements(
            state.ctx, self.leader, state.detectors
        )

    def _phase_sir_update(self, state: IterationState) -> None:
        self.filter.step(state.observations)
        self._estimate = self.filter.estimate()[:2]
        self._estimate_iter = state.iteration
        state.estimate = self._estimate

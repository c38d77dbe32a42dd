"""Sequential importance sampling (SIS) and the SIR bootstrap filter.

This is the *centralized* generic particle filter of paper §II-A — the four
steps in their classic order:

1. prediction — draw particles from the importance density;
2. update — weight by the likelihood and normalize;
3. resampling — optional (SIR: every iteration);
4. estimation — weighted mean.

SIR is obtained by choosing the prior ``p(x_k | x_{k-1})`` as the importance
density and resampling every iteration — exactly the basis the paper uses for
all four simulated algorithms (§VI-A).

Measurements arrive as a sequence of ``(model, z, sensor_position)`` triples;
the joint likelihood over conditionally independent sensors is the product of
the per-sensor likelihoods (sum in log space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..kernels.likelihood import Workspace, batch_bearing_log_likelihood
from ..models.base import TransitionModel
from ..models.measurement import BearingMeasurement
from .particles import ParticleSet, normalize_log_weights
from .resampling import get_resampler

__all__ = ["Observation", "SIRFilter", "SISFilter", "joint_log_likelihood"]


@dataclass(frozen=True)
class Observation:
    """One sensor's measurement: the model that produced it, z, and where from."""

    model: object  # MeasurementModel protocol
    z: float | np.ndarray
    sensor_position: np.ndarray | None = None


def joint_log_likelihood(
    states: np.ndarray,
    observations: Sequence[Observation],
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Sum of per-sensor log-likelihoods (conditional independence across sensors).

    All-bearing observation batches (the common CPF/DPF case) evaluate as one
    ``(n_obs, n_particles)`` kernel matrix whose rows accumulate in the same
    sequential order as the scalar loop — bit-identical, one pass — in
    ``workspace`` when given.
    """
    states_2d = np.atleast_2d(states)
    n = states_2d.shape[0]
    total = np.zeros(n)
    if len(observations) > 1 and all(
        type(obs.model) is BearingMeasurement for obs in observations
    ):
        refs = np.vstack(
            [obs.model.reference_point(obs.sensor_position) for obs in observations]
        )
        zs = np.array([obs.z for obs in observations], dtype=np.float64)
        sigmas = np.array([obs.model.noise_std for obs in observations])
        matrix = batch_bearing_log_likelihood(
            states_2d[:, :2], zs, refs, sigmas, workspace=workspace
        )
        for row in matrix:
            total += row
        return total
    for obs in observations:
        total += obs.model.log_likelihood(states, obs.z, obs.sensor_position)
    return total


class SISFilter:
    """Sequential importance sampling with a pluggable proposal.

    ``proposal`` draws new states given old states and the observation batch;
    ``proposal_log_density`` evaluates q(x_k | x_{k-1}, z_k) so the importance
    correction ``p * likelihood / q`` is applied exactly.  The default
    proposal is the prior (which cancels the transition density and recovers
    the bootstrap weight update ``w *= likelihood``).
    """

    def __init__(
        self,
        transition: TransitionModel,
        n_particles: int,
        *,
        rng: np.random.Generator,
        resampler: str = "systematic",
        ess_threshold_ratio: float | None = 0.5,
        roughening: float = 0.0,
    ) -> None:
        if n_particles <= 0:
            raise ValueError(f"n_particles must be positive, got {n_particles}")
        if ess_threshold_ratio is not None and not 0.0 < ess_threshold_ratio <= 1.0:
            raise ValueError(
                f"ess_threshold_ratio must be in (0, 1] or None, got {ess_threshold_ratio}"
            )
        if roughening < 0.0:
            raise ValueError(f"roughening must be non-negative, got {roughening}")
        self.transition = transition
        self.n_particles = n_particles
        self.rng = rng
        self.resample = get_resampler(resampler)
        self.ess_threshold_ratio = ess_threshold_ratio
        #: Gordon-style roughening constant K: after each resampling pass,
        #: each state dimension is jittered with std ``K * range * n^(-1/d)``.
        #: Zero disables.  Sharp, many-sensor likelihoods collapse the ESS of
        #: a plain SIR filter to ~1; roughening restores particle diversity
        #: (Gordon, Salmond & Smith 1993, §4.2).
        self.roughening = roughening
        self.particles: ParticleSet | None = None
        self.resample_count = 0
        self.iteration = 0
        #: the likelihood matrix's scratch, reused by every update (not state)
        self._workspace = Workspace()

    # -- lifecycle ---------------------------------------------------------

    def initialize(self, mean: np.ndarray, cov: np.ndarray) -> None:
        """Draw the initial cloud from a Gaussian prior N(mean, cov)."""
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        states = self.rng.multivariate_normal(mean, cov, size=self.n_particles)
        self.particles = ParticleSet(states, copy=False)
        self.iteration = 0

    def initialize_from(self, particles: ParticleSet) -> None:
        self.particles = particles.copy()
        self.iteration = 0

    def _require_particles(self) -> ParticleSet:
        if self.particles is None:
            raise RuntimeError("filter not initialized; call initialize() first")
        return self.particles

    # -- the four steps ------------------------------------------------------

    def predict(self) -> None:
        """Step 1: draw from the importance density (prior by default)."""
        p = self._require_particles()
        new_states = self.transition.propagate(p.states, self.rng)
        self.particles = ParticleSet(new_states, p.weights.copy(), copy=False)

    def update(self, observations: Sequence[Observation]) -> None:
        """Step 2: multiply in the joint likelihood and renormalize."""
        p = self._require_particles()
        if not observations:
            return  # no information this iteration; weights unchanged
        log_lik = joint_log_likelihood(p.states, observations, workspace=self._workspace)
        with np.errstate(divide="ignore"):
            log_w = np.log(p.weights) + log_lik
        weights = normalize_log_weights(log_w)
        self.particles = ParticleSet(p.states, weights, copy=False)

    def maybe_resample(self) -> bool:
        """Step 3: resample when ESS falls below the threshold.  Returns True if done."""
        p = self._require_particles()
        if self.ess_threshold_ratio is None:
            return False
        if p.effective_sample_size() >= self.ess_threshold_ratio * p.n:
            return False
        self.force_resample()
        return True

    def force_resample(self) -> None:
        p = self._require_particles()
        idx = self.resample(p.weights, self.n_particles, rng=self.rng)
        selected = p.select(idx)
        if self.roughening > 0.0:
            # spread of the PRE-resampling population: the selected set can
            # be a single duplicated ancestor with zero spread
            spread = p.states.max(axis=0) - p.states.min(axis=0)
            scale = self.roughening * spread * selected.n ** (-1.0 / selected.dim)
            jitter = self.rng.normal(0.0, 1.0, size=selected.states.shape) * scale
            selected = ParticleSet(selected.states + jitter, selected.weights, copy=False)
        self.particles = selected
        self.resample_count += 1

    def estimate(self) -> np.ndarray:
        """Step 4: the weighted-mean state estimate."""
        return self._require_particles().mean()

    # -- checkpoint protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """The cloud and counters.  The RNG is deliberately excluded: the
        owning tracker restores its stream exactly once (CPF/DPF share one
        generator object between tracker and filter)."""
        particles = self.particles
        return {
            "particles": (
                None
                if particles is None
                else {
                    "states": particles.states.copy(),
                    "weights": particles.weights.copy(),
                }
            ),
            "resample_count": int(self.resample_count),
            "iteration": int(self.iteration),
        }

    def restore(self, state: dict) -> None:
        cloud = state["particles"]
        self.particles = (
            None
            if cloud is None
            else ParticleSet(
                np.asarray(cloud["states"], dtype=np.float64),
                np.asarray(cloud["weights"], dtype=np.float64),
            )
        )
        self.resample_count = int(state["resample_count"])
        self.iteration = int(state["iteration"])

    def step(self, observations: Sequence[Observation]) -> np.ndarray:
        """One full iteration; returns the state estimate."""
        self.predict()
        self.update(observations)
        self.maybe_resample()
        self.iteration += 1
        return self.estimate()


class SIRFilter(SISFilter):
    """Sampling-importance-resampling: prior proposal + resample every step.

    The paper adopts SIR as the basis of all four evaluated algorithms.
    """

    def __init__(
        self,
        transition: TransitionModel,
        n_particles: int,
        *,
        rng: np.random.Generator,
        resampler: str = "systematic",
        roughening: float = 0.0,
    ) -> None:
        super().__init__(
            transition,
            n_particles,
            rng=rng,
            resampler=resampler,
            ess_threshold_ratio=None,  # resampling is unconditional for SIR
            roughening=roughening,
        )

    def step(self, observations: Sequence[Observation]) -> np.ndarray:
        self.predict()
        self.update(observations)
        self.force_resample()
        self.iteration += 1
        return self.estimate()

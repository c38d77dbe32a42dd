"""Compile a :class:`~repro.config.schema.ScenarioConfig` into a runnable world.

The compiler is a thin, deterministic mapping from declarative sections onto
the constructors that already exist — deployments, detection models, link
models, :class:`~repro.scenario.Scenario`, the target trajectory, the fault
plan, and the tracker via the :func:`~repro.factory.make_tracker` registry.
It owns exactly two responsibilities the schema cannot:

* **Seeding.**  ``config.seed`` is the single entropy root; world geometry,
  tracker internals, and sensing noise draw from independent
  ``SeedSequence`` spawn-key streams (the engine's collision-free idiom),
  so the same config replays bit-for-bit and two configs differing only in
  one axis share the randomness of every other axis.
* **Field-addressed construction errors.**  A config that passes schema
  validation but names an impossible construction (unknown tracker,
  constructor kwarg the tracker does not accept) raises
  :class:`~repro.config.schema.ConfigError` naming the field, not a bare
  ``TypeError`` from three frames deep.

:func:`run_config` is the one-call entry point the fuzz harness and the
corpus replay both use; :func:`run_fingerprint` condenses a result into a
digest for bit-identical replay checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..factory import make_tracker, tracker_names
from .schema import ConfigError, ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.runner import TrackingResult
    from ..models.trajectory import Trajectory
    from ..network.deployment import Deployment
    from ..network.faults import FaultPlan
    from ..network.links import LinkModel
    from ..runtime import EventBus
    from ..scenario import Scenario

__all__ = [
    "CompiledRun",
    "build_deployment",
    "build_fault_plan",
    "build_link_model",
    "build_run_options",
    "build_scenario",
    "build_tracker",
    "build_trajectory",
    "compile_config",
    "run_config",
    "run_fingerprint",
]

#: spawn-key stream ids (disjoint from nothing — the root is the config seed,
#: which never feeds any other spawn-key scheme)
_WORLD_STREAM, _TRACKER_STREAM, _SENSING_STREAM = 0, 1, 2


def _stream(config: ScenarioConfig, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(stream_id,))
    )


def build_deployment(config: ScenarioConfig) -> "Deployment":
    """The node placement of ``config`` (drawn from the world stream)."""
    from ..network import deployment as dep

    d = config.deployment
    rng = _stream(config, _WORLD_STREAM)
    if d.kind == "uniform":
        n = dep.density_to_count(d.density_per_100m2, d.width, d.height)
        return dep.uniform_deployment(n, d.width, d.height, rng=rng,
                                      index_cell=d.index_cell)
    if d.kind == "grid":
        return dep.grid_deployment(d.n_per_side, d.width, d.height, jitter=d.jitter,
                                   rng=rng if d.jitter > 0 else None,
                                   index_cell=d.index_cell)
    if d.kind == "poisson":
        return dep.poisson_deployment(d.density_per_100m2, d.width, d.height,
                                      rng=rng, index_cell=d.index_cell)
    return dep.clustered_deployment(d.n_clusters, d.nodes_per_cluster, d.width,
                                    d.height, cluster_std=d.cluster_std, rng=rng,
                                    index_cell=d.index_cell)


def _build_detection(config: ScenarioConfig):
    from ..network.sensing import (
        EnergyDetection,
        InstantDetection,
        ProbabilisticDetection,
        SamplingDetection,
    )

    s = config.sensing
    if s.model == "instant":
        return InstantDetection(sensing_radius=s.sensing_radius)
    if s.model == "sampling":
        return SamplingDetection(sensing_radius=s.sensing_radius)
    if s.model == "probabilistic":
        return ProbabilisticDetection(sensing_radius=s.sensing_radius,
                                      inner_radius=s.inner_radius, decay=s.decay)
    return EnergyDetection(
        sensing_radius=s.sensing_radius,
        source_power=s.source_power,
        noise_std=s.noise_std,
        threshold=s.threshold,
    )


def build_link_model(config: ScenarioConfig) -> "LinkModel | None":
    """The channel model, or ``None`` for the paper's reliable radio."""
    from ..network.links import (
        DelayingLink,
        DistanceFadingLink,
        GilbertElliottLink,
        IIDLossLink,
    )

    li = config.link

    def inner(kind: str):
        if kind == "iid":
            return IIDLossLink(p_loss=li.p_loss, seed=li.seed)
        if kind == "distance":
            return DistanceFadingLink(comm_radius=config.radio.comm_radius,
                                      inner_radius=min(li.inner_radius,
                                                       config.radio.comm_radius),
                                      edge_probability=li.edge_probability,
                                      gamma=li.gamma, seed=li.seed)
        return GilbertElliottLink(p_good_to_bad=li.p_good_to_bad,
                                  p_bad_to_good=li.p_bad_to_good,
                                  loss_good=li.loss_good, loss_bad=li.loss_bad,
                                  seed=li.seed)

    if li.kind == "none":
        return None
    if li.kind == "delaying":
        return DelayingLink(inner=inner(li.inner), p_delay=li.p_delay, seed=li.seed)
    return inner(li.kind)


def build_scenario(config: ScenarioConfig) -> "Scenario":
    """The full static world: deployment + models + link, validated."""
    from ..models.constant_velocity import ConstantVelocityModel
    from ..models.measurement import BearingMeasurement
    from ..network.messages import DataSizes
    from ..network.radio import RadioModel
    from ..scenario import Scenario

    deployment = build_deployment(config)
    return Scenario(
        deployment=deployment,
        radio=RadioModel(comm_radius=config.radio.comm_radius,
                         interference_delta=config.radio.interference_delta),
        detection=_build_detection(config),
        measurement=BearingMeasurement(noise_std=config.measurement.noise_std,
                                       reference=config.measurement.reference),
        dynamics=ConstantVelocityModel(dt=config.dynamics.dt,
                                       sigma_x=config.dynamics.sigma_x,
                                       sigma_y=config.dynamics.sigma_y),
        sizes=DataSizes(particle=config.sizes.particle,
                        measurement=config.sizes.measurement,
                        weight=config.sizes.weight,
                        header=config.sizes.header),
        sink_position=(config.deployment.width / 2.0, config.deployment.height / 2.0),
        measurement_bias_std=config.measurement.bias_std,
        link_model=build_link_model(config),
    )


def build_trajectory(config: ScenarioConfig) -> "Trajectory":
    """The target path (drawn from the world stream, after the deployment)."""
    from ..scenario import make_trajectory

    t = config.trajectory
    # child stream of the world root so deployment and trajectory draws
    # never interleave (deployment size varies across configs)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(_WORLD_STREAM, 1))
    )
    return make_trajectory(t.n_iterations, rng=rng, start=t.start, speed=t.speed,
                           dt=config.dynamics.dt, substep_dt=t.substep_dt)


def build_fault_plan(config: ScenarioConfig) -> "FaultPlan | None":
    """The declarative fault plan, or ``None`` when ``faults`` is empty."""
    from ..network.faults import FaultPlan

    if not config.faults:
        return None
    return FaultPlan.from_dict({"events": list(config.faults)})


def build_tracker(config: ScenarioConfig, scenario: "Scenario"):
    """The configured algorithm via the registry (tracker stream)."""
    if config.tracker.name not in tracker_names():
        raise ConfigError(
            f"tracker.name: unknown tracker {config.tracker.name!r}; "
            f"registered: {', '.join(tracker_names())}"
        )
    rng = _stream(config, _TRACKER_STREAM)
    try:
        return make_tracker(config.tracker.name, scenario, rng=rng,
                            **config.tracker.kwargs)
    except TypeError as exc:
        raise ConfigError(f"tracker.kwargs: {exc}") from exc


def build_run_options(config: ScenarioConfig, *, bus: "EventBus | None" = None):
    """The :class:`~repro.experiments.options.RunOptions` for ``config``."""
    from ..experiments.options import RunOptions

    return RunOptions(fault_plan=build_fault_plan(config), bus=bus)


@dataclass
class CompiledRun:
    """A config compiled to live objects, ready to run.

    Exists so callers that need the world *after* the run (the fuzz oracles
    read ``tracker.accounting``) can keep references; :func:`run_config` is
    the fire-and-forget wrapper.
    """

    config: ScenarioConfig
    scenario: "Scenario"
    tracker: object
    trajectory: "Trajectory"
    options: object
    rng: np.random.Generator

    def run(self, *, checkpoint: "object | None" = None) -> "TrackingResult":
        """Drive the whole run in-process.

        ``checkpoint`` is a :class:`~repro.experiments.options.
        CheckpointPolicy` merged into the compiled
        :class:`~repro.experiments.options.RunOptions` — periodic snapshots
        to the policy's sink, and/or resume from a prior checkpoint,
        exactly as the sweep engines' ``checkpoint_every`` store records.
        """
        import dataclasses

        from ..experiments.runner import run_tracking

        options = self.options
        if checkpoint is not None:
            options = dataclasses.replace(options, checkpoint=checkpoint)
        return run_tracking(self.tracker, self.scenario, self.trajectory,
                            rng=self.rng, options=options)

    def session(self) -> "object":
        """The run as an incrementally steppable :class:`~repro.experiments.
        runner.TrackingRun` — what the service layer hosts per session."""
        from ..experiments.runner import TrackingRun

        return TrackingRun(self.tracker, self.scenario, self.trajectory,
                           rng=self.rng, options=self.options)


def compile_config(
    config: ScenarioConfig, *, bus: "EventBus | None" = None
) -> CompiledRun:
    """Build every live object a run needs, without running it."""
    scenario = build_scenario(config)
    return CompiledRun(
        config=config,
        scenario=scenario,
        tracker=build_tracker(config, scenario),
        trajectory=build_trajectory(config),
        options=build_run_options(config, bus=bus),
        rng=_stream(config, _SENSING_STREAM),
    )


def run_config(
    config: ScenarioConfig,
    *,
    bus: "EventBus | None" = None,
    checkpoint: "object | None" = None,
) -> "TrackingResult":
    """Compile ``config`` and drive the whole run; fully seed-deterministic.

    ``checkpoint`` forwards to :meth:`CompiledRun.run`, so the
    config-compiler path carries the same checkpoint/resume surface as
    ``run_sweep``/``density_sweep``.
    """
    return compile_config(config, bus=bus).run(checkpoint=checkpoint)


def run_fingerprint(result: "TrackingResult") -> str:
    """Digest of everything a replay must reproduce bit-for-bit.

    Covers the estimate arrays (exact float64 bytes) and every ledger total;
    two runs with equal fingerprints made the same estimates and spent the
    same traffic.  The golden corpus stores this next to each config.
    """
    h = hashlib.sha256()
    for k in sorted(result.estimates):
        h.update(str(k).encode())
        h.update(np.ascontiguousarray(result.estimates[k], dtype=np.float64).tobytes())
    for value in (
        result.total_bytes,
        result.total_messages,
        result.dropped_bytes,
        result.dropped_messages,
        result.degraded_iterations,
    ):
        h.update(str(int(value)).encode())
    for cat in sorted(result.bytes_by_category):
        h.update(cat.encode())
        h.update(str(int(result.bytes_by_category[cat])).encode())
    return h.hexdigest()

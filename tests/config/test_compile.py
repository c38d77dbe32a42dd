"""Config -> world compilation: determinism, stream isolation, and errors."""

import numpy as np
import pytest

from repro.config import (
    ConfigError,
    DeploymentConfig,
    LinkConfig,
    ScenarioConfig,
    SensingConfig,
    TrackerConfig,
    TrajectoryConfig,
    build_deployment,
    build_fault_plan,
    build_link_model,
    build_scenario,
    build_tracker,
    build_trajectory,
    compile_config,
    run_config,
    run_fingerprint,
)
from repro.network.faults import FaultPlan, MobilityDrift, ScheduledSleep
from repro.network.links import DelayingLink, GilbertElliottLink, IIDLossLink
from repro.network.sensing import EnergyDetection, ProbabilisticDetection


def _small(**overrides) -> ScenarioConfig:
    base = dict(
        seed=5,
        deployment=DeploymentConfig(width=60.0, height=50.0, density_per_100m2=13.0),
        trajectory=TrajectoryConfig(n_iterations=3, start=(0.0, 25.0)),
        tracker=TrackerConfig(name="CDPF"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestBuilders:
    @pytest.mark.parametrize("kind", ["uniform", "grid", "poisson", "clustered"])
    def test_every_deployment_kind_builds(self, kind):
        cfg = _small(deployment=DeploymentConfig(
            kind=kind, width=60.0, height=50.0, density_per_100m2=12.0,
            n_per_side=12, n_clusters=6, nodes_per_cluster=40, cluster_std=8.0))
        dep = build_deployment(cfg)
        assert dep.n_nodes > 0
        assert dep.width == 60.0 and dep.height == 50.0

    def test_sensing_model_selection(self):
        cfg = _small(sensing=SensingConfig(model="probabilistic"))
        assert isinstance(build_scenario(cfg).detection, ProbabilisticDetection)
        cfg = _small(sensing=SensingConfig(model="energy"))
        assert isinstance(build_scenario(cfg).detection, EnergyDetection)

    def test_link_model_selection(self):
        assert build_link_model(_small()) is None
        assert isinstance(
            build_link_model(_small(link=LinkConfig(kind="iid"))), IIDLossLink
        )
        delaying = build_link_model(
            _small(link=LinkConfig(kind="delaying", inner="gilbert_elliott"))
        )
        assert isinstance(delaying, DelayingLink)
        assert isinstance(delaying.inner, GilbertElliottLink)

    def test_fault_plan_compiles_typed_events(self):
        cfg = _small(faults=(
            {"kind": "scheduled_sleep", "start": 0, "end": 2},
            {"kind": "mobility", "start": 1, "end": 2, "model": "random"},
        ))
        plan = build_fault_plan(cfg)
        assert isinstance(plan, FaultPlan)
        assert isinstance(plan.events[0], ScheduledSleep)
        assert isinstance(plan.events[1], MobilityDrift)
        assert build_fault_plan(_small()) is None

    def test_unknown_tracker_names_the_field(self):
        cfg = _small(tracker=TrackerConfig(name="UKF"))
        with pytest.raises(ConfigError, match="tracker.name"):
            build_tracker(cfg, build_scenario(cfg))

    def test_bad_tracker_kwarg_names_the_field(self):
        cfg = _small(tracker=TrackerConfig(name="CDPF", kwargs={"warp": 9}))
        with pytest.raises(ConfigError, match="tracker.kwargs"):
            build_tracker(cfg, build_scenario(cfg))

    def test_tracker_kwargs_forward(self):
        cfg = _small(tracker=TrackerConfig(name="DPF-quantized",
                                           kwargs={"quantization_bits": 12}))
        assert build_tracker(cfg, build_scenario(cfg)).bits == 12


class TestSeeding:
    def test_same_config_same_world(self):
        a, b = build_deployment(_small()), build_deployment(_small())
        assert np.array_equal(a.positions, b.positions)
        ta, tb = build_trajectory(_small()), build_trajectory(_small())
        assert np.array_equal(ta.iteration_positions(), tb.iteration_positions())

    def test_seed_changes_world(self):
        a = build_deployment(_small())
        b = build_deployment(_small(seed=6))
        assert not np.array_equal(a.positions, b.positions)

    def test_link_axis_does_not_perturb_world(self):
        """Changing one axis leaves every other axis's randomness untouched."""
        a = _small()
        b = _small(link=LinkConfig(kind="iid", p_loss=0.3))
        assert np.array_equal(build_deployment(a).positions,
                              build_deployment(b).positions)
        assert np.array_equal(build_trajectory(a).iteration_positions(),
                              build_trajectory(b).iteration_positions())

    def test_run_config_is_deterministic(self):
        fp1 = run_fingerprint(run_config(_small()))
        fp2 = run_fingerprint(run_config(_small()))
        assert fp1 == fp2

    def test_fingerprint_sees_estimates_and_ledgers(self):
        r1 = run_config(_small())
        r2 = run_config(_small(seed=6))
        assert run_fingerprint(r1) != run_fingerprint(r2)


class TestCompiledRun:
    def test_exposes_live_objects(self):
        run = compile_config(_small())
        result = run.run()
        assert result.total_bytes == run.tracker.accounting.total_bytes
        assert result.n_iterations == 3

    def test_zero_loss_link_matches_no_link(self):
        """The zero-loss transparency contract holds through the config layer."""
        reliable = run_config(_small())
        zero_loss = run_config(_small(link=LinkConfig(kind="iid", p_loss=0.0)))
        assert run_fingerprint(reliable) == run_fingerprint(zero_loss)


class TestRunBackendsAndCheckpoints:
    """The unified per-run entry point: checkpoint= mirrors the sweep
    engines' surface on run_config/CompiledRun.run."""

    def test_checkpoint_policy_roundtrips_through_run_config(self):
        from repro import CheckpointPolicy

        checkpoints = []
        ref = run_config(
            _small(),
            checkpoint=CheckpointPolicy(every=1, sink=checkpoints.append),
        )
        assert len(checkpoints) == 3  # one per completed iteration boundary
        resumed = run_config(
            _small(), checkpoint=CheckpointPolicy(resume_from=checkpoints[1])
        )
        assert run_fingerprint(resumed) == run_fingerprint(ref)


class TestSession:
    """CompiledRun.session(): the incrementally steppable TrackingRun that
    the service layer hosts — stepping must equal the batch run bit for bit."""

    def test_stepping_matches_batch_run(self):
        from repro import TrackingRun

        session = compile_config(_small()).session()
        assert isinstance(session, TrackingRun)
        outcomes = []
        while not session.done:
            outcomes.append(session.step())
        assert [o.iteration for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[-1].done and not outcomes[0].done
        assert run_fingerprint(session.result()) == run_fingerprint(
            run_config(_small())
        )

    def test_two_interleaved_sessions_match_their_serial_runs(self):
        """Different seeds, stepped alternately on one 'worker': each must be
        bit-identical to its own uninterrupted run_config."""
        a = compile_config(_small(seed=5)).session()
        b = compile_config(_small(seed=6)).session()
        while not (a.done and b.done):
            if not a.done:
                a.step()
            if not b.done:
                b.step()
        assert run_fingerprint(a.result()) == run_fingerprint(run_config(_small(seed=5)))
        assert run_fingerprint(b.result()) == run_fingerprint(run_config(_small(seed=6)))

    def test_stepping_past_the_end_raises(self):
        session = compile_config(_small()).session()
        session.run()
        with pytest.raises(RuntimeError, match="finished"):
            session.step()

"""Mobility models and the medium's position updates."""

import numpy as np
import pytest

from repro import (
    CheckpointPolicy,
    RunOptions,
    make_paper_scenario,
    make_tracker,
    make_trajectory,
    run_tracking,
)
from repro.network.faults import FaultPlan, MobilityDrift
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.mobility import GroupDriftMobility, RandomDriftMobility
from repro.network.radio import RadioModel
from repro.runtime.checkpoint import RunCheckpoint


class TestRandomDrift:
    def test_displacement_statistics(self, rng):
        m = RandomDriftMobility(speed_std=0.2)
        pos = np.zeros((5000, 2))
        out = m.advance(pos, 5.0, rng)
        assert out.std() == pytest.approx(1.0, rel=0.05)  # 0.2 m/s * 5 s

    def test_zero_speed_is_identity(self, rng):
        m = RandomDriftMobility(speed_std=0.0)
        pos = np.ones((3, 2))
        np.testing.assert_allclose(m.advance(pos, 1.0, rng), pos)

    def test_input_not_mutated(self, rng):
        m = RandomDriftMobility(speed_std=1.0)
        pos = np.zeros((3, 2))
        m.advance(pos, 1.0, rng)
        np.testing.assert_allclose(pos, 0.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RandomDriftMobility(speed_std=-1.0)
        with pytest.raises(ValueError):
            RandomDriftMobility().advance(np.zeros((1, 2)), 0.0, rng)


class TestGroupDrift:
    def test_translates_uniformly(self, rng):
        m = GroupDriftMobility(velocity=(0.5, -0.2))
        pos = np.zeros((4, 2))
        out = m.advance(pos, 10.0, rng)
        np.testing.assert_allclose(out, np.tile([5.0, -2.0], (4, 1)))

    def test_relative_geometry_preserved(self, rng):
        m = GroupDriftMobility(velocity=(1.0, 1.0))
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = m.advance(pos, 2.0, rng)
        assert np.linalg.norm(out[1] - out[0]) == pytest.approx(5.0)


class TestMediumPositionUpdate:
    def test_delivery_follows_new_positions(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0]])
        medium = Medium(pos, RadioModel(comm_radius=30.0))
        msg = MeasurementMessage(sender=0, iteration=0, value=0.5)
        assert medium.broadcast(0, msg, 0).receivers.size == 0  # out of range
        medium.update_positions(np.array([[0.0, 0.0], [20.0, 0.0]]))
        assert medium.broadcast(0, msg, 0).receivers.tolist() == [1]

    def test_shape_mismatch_rejected(self):
        medium = Medium(np.zeros((2, 2)), RadioModel())
        with pytest.raises(ValueError):
            medium.update_positions(np.zeros((3, 2)))


class TestDriftedCheckpoint:
    """Positions that mobility moved are state: a checkpoint taken after a
    drift carries them, and a resume into a freshly built world (which
    starts from the deployment's positions) restores them."""

    PLAN = FaultPlan(
        events=(MobilityDrift(start=1, end=5, model="random", speed_std=0.5, seed=3),)
    )

    def _run(self, checkpoint=None, plan=PLAN):
        world = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(0,)))
        scenario = make_paper_scenario(density_per_100m2=5.0, rng=world)
        trajectory = make_trajectory(n_iterations=6, rng=world)
        tracker = make_tracker(
            "CDPF", scenario,
            rng=np.random.default_rng(np.random.SeedSequence(31, spawn_key=(1,))),
        )
        sensing = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(2,)))
        options = RunOptions(fault_plan=plan, checkpoint=checkpoint)
        result = run_tracking(tracker, scenario, trajectory, rng=sensing, options=options)
        return result, tracker.medium, scenario

    def test_drifted_checkpoint_carries_and_restores_positions(self):
        reference, moved, scenario = self._run()
        saved = []
        self._run(CheckpointPolicy(every=3, sink=saved.append))
        middle = RunCheckpoint.from_json(saved[0].to_json())
        carried = middle.payload["medium"]["positions"]
        assert not np.array_equal(carried, scenario.deployment.positions)
        resumed, medium, _ = self._run(CheckpointPolicy(resume_from=middle))
        assert set(resumed.estimates) == set(reference.estimates)
        for k, estimate in reference.estimates.items():
            np.testing.assert_array_equal(resumed.estimates[k], estimate)
        assert resumed.total_bytes == reference.total_bytes
        np.testing.assert_array_equal(medium.positions, moved.positions)

    @pytest.mark.parametrize("plan", [FaultPlan(), PLAN], ids=["static", "before-drift"])
    def test_unmoved_checkpoint_carries_no_positions(self, plan):
        """Until a node moves, a checkpoint leaves the positions out and a
        resume takes the freshly built deployment's."""
        reference, moved, _ = self._run(plan=plan)
        saved = []
        self._run(CheckpointPolicy(every=1, sink=saved.append), plan=plan)
        first = RunCheckpoint.from_json(saved[0].to_json())
        assert "positions" not in first.payload["medium"]
        resumed, medium, _ = self._run(CheckpointPolicy(resume_from=first), plan=plan)
        assert set(resumed.estimates) == set(reference.estimates)
        for k, estimate in reference.estimates.items():
            np.testing.assert_array_equal(resumed.estimates[k], estimate)
        assert resumed.total_bytes == reference.total_bytes
        np.testing.assert_array_equal(medium.positions, moved.positions)

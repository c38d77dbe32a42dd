"""CDPF / CDPF-NE integration tests on the small world."""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker, bearing_log_kernel
from repro.core.propagation import HolderSet, PropagationConfig
from repro.experiments.runner import generate_step_context, run_tracking
from repro.runtime import IterationState
from repro.scenario import StepContext

from ..conftest import make_small_scenario


def drive(tracker, scenario, trajectory, seed=7):
    return run_tracking(tracker, scenario, trajectory, rng=np.random.default_rng(seed))


class TestBearingLogKernel:
    def test_zero_at_exact_bearing(self):
        lk = bearing_log_kernel(np.array([10.0, 0.0]), 0.0, np.zeros(2), 0.05)
        assert lk == pytest.approx(0.0)

    def test_negative_off_bearing(self):
        lk = bearing_log_kernel(np.array([10.0, 0.0]), 0.5, np.zeros(2), 0.05)
        assert lk < -10

    def test_own_position_flat(self):
        lk = bearing_log_kernel(np.array([3.0, 3.0]), 1.0, np.array([3.0, 3.0]), 0.05)
        assert lk == 0.0


class TestLifecycle:
    def test_initialization_creates_holders_at_detectors(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        ctx = generate_step_context(
            small_scenario, small_trajectory, 0, np.random.default_rng(2)
        )
        est = tr.step(ctx)
        assert est is None  # no estimate until the first correction
        assert set(tr.holders) == {int(d) for d in ctx.detectors}

    def test_no_detection_no_holders(self, small_scenario):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        ctx = StepContext(iteration=0, detectors=np.array([], dtype=int), measurements={})
        assert tr.step(ctx) is None
        assert not tr.holders

    def test_estimate_latency_one_iteration(self, small_scenario, small_trajectory):
        """step(k) returns the estimate for iteration k - 1."""
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert est is not None
        assert tr.estimate_iteration() == 0

    def test_invalid_initial_weight(self, small_scenario):
        with pytest.raises(ValueError):
            CDPFTracker(small_scenario, rng=np.random.default_rng(1), initial_weight=0.0)


class TestTracking:
    def test_tracks_straight_crossing(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        res = drive(tr, small_scenario, small_trajectory)
        assert res.error.n_estimates >= small_trajectory.n_iterations - 1
        assert res.rmse < 6.0

    def test_ne_variant_tracks(self, small_scenario, small_trajectory):
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        res = drive(tr, small_scenario, small_trajectory)
        assert res.rmse < 10.0
        assert tr.name == "CDPF-NE"

    def test_holder_count_stays_bounded(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        drive(tr, small_scenario, small_trajectory)
        n_exp = tr.config.expected_recorders(
            400, small_scenario.radio.comm_radius
        )  # generous degree bound
        assert max(tr.stats.holders_per_iteration) < 6 * n_exp

    def test_weights_normalized_after_correction(self, small_scenario, small_trajectory):
        """Post-correction holder weights are normalized shares: their sum is
        <= 1 (drops only remove mass) and > 0."""
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(5)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        # run propagation + correction only, before the likelihood phase
        state = IterationState(generate_step_context(small_scenario, small_trajectory, 1, rng))
        tr._phase_propagation(state)
        tr._phase_correction(state)
        total = tr.holders.weights.sum()
        assert 0.0 < total <= 1.0 + 1e-9


class TestCommunication:
    def test_cdpf_has_propagation_and_measurement_traffic(
        self, small_scenario, small_trajectory
    ):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        res = drive(tr, small_scenario, small_trajectory)
        assert res.bytes_by_category.get("propagation", 0) > 0
        assert res.bytes_by_category.get("measurement", 0) > 0
        assert "weight_aggregation" not in res.bytes_by_category  # completely distributed

    def test_ne_eliminates_measurement_traffic(self, small_scenario, small_trajectory):
        """§V-C: CDPF-NE's only remaining traffic is particle propagation."""
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        res = drive(tr, small_scenario, small_trajectory)
        assert res.bytes_by_category.get("measurement", 0) == 0
        assert set(res.bytes_by_category) == {"propagation"}

    def test_propagation_messages_equal_holder_broadcasts(
        self, small_scenario, small_trajectory
    ):
        """One propagation message per holder per iteration (N_s messages)."""
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        res = drive(tr, small_scenario, small_trajectory)
        # holders at the END of iteration k broadcast at k+1; the last
        # iteration's holders never broadcast
        expected = sum(tr.stats.holders_per_iteration[:-1])
        assert res.total_messages == expected

    def test_propagation_bytes_match_cost_model(self, small_scenario, small_trajectory):
        """Measured propagation bytes == N_s * (Dp + Dw), Table I's term."""
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        res = drive(tr, small_scenario, small_trajectory)
        sizes = small_scenario.sizes
        n_broadcast = sum(tr.stats.holders_per_iteration[:-1])
        assert res.bytes_by_category["propagation"] == n_broadcast * (
            sizes.particle + sizes.weight
        )


class TestConsistency:
    def test_estimate_consistent_across_receivers(self, small_scenario, small_trajectory):
        """Theorem 2 operationally: nodes inside the predicted area compute
        (numerically) identical estimates from their own inboxes."""
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), check_consistency=True
        )
        drive(tr, small_scenario, small_trajectory)
        assert tr.stats.estimate_disagreement, "consistency check never ran"
        assert max(tr.stats.estimate_disagreement) < 1e-9


class TestCreation:
    def test_track_recovers_after_holder_wipe(self, small_scenario, small_trajectory):
        """If every holder disappears (e.g. mass failure), detection-driven
        creation re-establishes the track."""
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(11)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        tr.holders = HolderSet()  # simulated wipe
        tr.step(generate_step_context(small_scenario, small_trajectory, 2, rng))
        assert tr.holders  # re-initialized from detectors
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 3, rng))
        assert est is not None

    def test_far_detector_creates_particle(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(13)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        # a phantom detection far from every predicted area
        far = int(
            np.argmax(
                np.linalg.norm(
                    small_scenario.deployment.positions
                    - small_trajectory.position_at_iteration(1),
                    axis=1,
                )
            )
        )
        ctx = StepContext(iteration=2, detectors=np.array([far]), measurements={far: 0.0})
        tr.step(ctx)
        assert far in tr.holders


class TestConfigInteraction:
    def test_custom_config_respected(self, small_scenario, small_trajectory):
        cfg = PropagationConfig(
            predicted_area_radius=8.0, record_threshold=0.25, velocity_mode="blend"
        )
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1), config=cfg)
        res = drive(tr, small_scenario, small_trajectory)
        assert tr.config.recording_radius() == pytest.approx(6.0)
        assert np.isfinite(res.rmse)

    def test_ne_default_config_anchors_more(self, small_scenario):
        plain = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        ne = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        assert ne.config.creation_slack < plain.config.creation_slack
        assert ne.config.creation_limit > plain.config.creation_limit

"""CDPF under adverse conditions: sleep, failures, weight leaks."""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker, quantization_sigma
from repro.experiments.runner import generate_step_context
from repro.runtime import IterationState
from repro.scenario import StepContext


class TestQuantizationSigma:
    def test_decreases_with_density(self):
        assert quantization_sigma(0.4, 7.0) < quantization_sigma(0.05, 7.0)

    def test_decreases_with_distance(self):
        assert quantization_sigma(0.2, 20.0) < quantization_sigma(0.2, 5.0)

    def test_bounded_by_quarter_circle(self):
        # at zero distance the subtended angle caps at 45 degrees
        assert quantization_sigma(0.2, 0.0) == pytest.approx(np.pi / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantization_sigma(0.0, 5.0)


class TestSleepingHolders:
    def test_sleeping_holder_loses_particle_without_crash(
        self, small_scenario, small_trajectory
    ):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        victim = min(tr.holders)
        tr.medium.set_asleep([victim])
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert est is not None  # the rest of the population carries on
        assert victim not in tr.holders

    def test_all_holders_asleep_returns_none_then_recovers(
        self, small_scenario, small_trajectory
    ):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(5)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.medium.set_asleep(list(tr.holders))
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert est is None
        tr.medium.set_asleep([])
        # detection-driven re-initialization restores the track
        tr.step(generate_step_context(small_scenario, small_trajectory, 2, rng))
        assert tr.holders
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 3, rng))
        assert est is not None

    def test_failed_holder_skipped(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(7)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        victim = min(tr.holders)
        tr.medium.fail_nodes([victim])
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert est is not None
        assert victim not in tr.holders


class TestAnticipation:
    def test_anticipated_unavailable_share_leaks(self, small_scenario, small_trajectory):
        """When the anticipation hook marks every node unavailable, nothing
        records and the track dies — the extreme §V-D failure."""
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(9)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.anticipate_available = lambda ids: np.zeros(len(ids), dtype=bool)
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        recorded = tr.stats.holders_per_iteration[-1] - tr.stats.creators_per_iteration[-1]
        # nothing could be anticipated as a recorder -> no shares recorded
        # (creation may re-seed from detectors, which bypasses anticipation)
        assert recorded == 0
        # the pipeline still functions once anticipation is restored
        tr.anticipate_available = None
        tr.step(generate_step_context(small_scenario, small_trajectory, 2, rng))

    def test_partial_anticipation_reduces_recorders(self, small_scenario, small_trajectory):
        def run(anticipate):
            tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
            rng = np.random.default_rng(11)
            tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
            if anticipate is not None:
                tr.anticipate_available = anticipate
            tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
            return len(tr.holders)

        full = run(None)
        # anticipate only even node ids as available
        half = run(lambda ids: np.asarray(ids) % 2 == 0)
        assert half < full


class TestWeightConservation:
    def test_division_conserves_broadcast_mass(self, small_scenario, small_trajectory):
        """With everyone awake, the recorded (pre-drop) mass equals the
        broadcast mass: division is conservative."""
        from repro.core.propagation import PropagationConfig

        # drop_threshold 0 keeps every recorded share
        cfg = PropagationConfig(drop_threshold=0.0)
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1), config=cfg)
        rng = np.random.default_rng(13)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        broadcast_mass = tr.holders.weights.sum()
        state = IterationState(generate_step_context(small_scenario, small_trajectory, 1, rng))
        tr._phase_propagation(state)
        tr._phase_correction(state)
        recorded_mass = tr.holders.weights.sum()
        # post-correction weights are normalized by the broadcast total
        assert recorded_mass == pytest.approx(1.0, rel=1e-9)
        assert broadcast_mass > 0


class TestAdaptiveArea:
    def test_disabled_by_default(self, small_scenario, small_trajectory):
        from repro.experiments.runner import run_tracking

        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        run_tracking(tr, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        assert tr.stats.area_widenings == 0

    def test_widens_on_degenerate_weights(self, small_scenario, small_trajectory):
        from repro.core.propagation import PropagationConfig
        from repro.experiments.runner import generate_step_context

        cfg = PropagationConfig(adaptive_area=True, ess_target=0.99, area_scale_max=1.4)
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1), config=cfg)
        rng = np.random.default_rng(3)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        # make the population degenerate by hand
        first = np.argmin(tr.holders.ids)
        tr.holders.weights[:] = 1e-9
        tr.holders.weights[first] = 1.0
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert tr.stats.area_widenings >= 1

    def test_config_validation(self):
        from repro.core.propagation import PropagationConfig

        with pytest.raises(ValueError):
            PropagationConfig(ess_target=0.0)
        with pytest.raises(ValueError):
            PropagationConfig(area_scale_max=0.9)

    def test_widened_config_does_not_leak(self, small_scenario, small_trajectory):
        """The per-round widened geometry must not mutate the tracker's config."""
        from repro.core.propagation import PropagationConfig
        from repro.experiments.runner import generate_step_context

        cfg = PropagationConfig(adaptive_area=True, ess_target=0.99)
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1), config=cfg)
        rng = np.random.default_rng(5)
        for k in range(3):
            tr.step(generate_step_context(small_scenario, small_trajectory, k, rng))
        assert tr.config.predicted_area_radius == 10.0

"""Trace recorder and field-map rendering."""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker
from repro.experiments.options import RunOptions
from repro.experiments.runner import run_tracking
from repro.experiments.trace import IterationSnapshot, TraceRecorder, render_field_map
from repro.runtime import EventBus


def _record(tracker, scenario, trajectory):
    bus = EventBus()
    recorder = TraceRecorder(tracker, trajectory).attach(bus)
    result = run_tracking(
        tracker,
        scenario,
        trajectory,
        rng=np.random.default_rng(7),
        options=RunOptions(bus=bus),
    )
    return recorder, result


@pytest.fixture
def traced_run(small_scenario, small_trajectory):
    tracker = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
    return _record(tracker, small_scenario, small_trajectory)


class TestTraceRecorder:
    def test_one_snapshot_per_iteration(self, traced_run, small_trajectory):
        recorder, _ = traced_run
        assert len(recorder.snapshots) == small_trajectory.n_iterations + 1
        assert [s.iteration for s in recorder.snapshots] == list(
            range(small_trajectory.n_iterations + 1)
        )

    def test_truth_recorded(self, traced_run, small_trajectory):
        recorder, _ = traced_run
        for s in recorder.snapshots:
            np.testing.assert_allclose(
                s.truth, small_trajectory.position_at_iteration(s.iteration)
            )

    def test_holder_history_matches_stats(self, traced_run):
        recorder, _ = traced_run
        history = recorder.holder_history()
        assert len(history) == len(recorder.snapshots)
        assert all(h >= 0 for h in history)

    def test_error_history_matches_result(self, traced_run):
        recorder, result = traced_run
        errs = recorder.error_history()
        for k, e in errs.items():
            expected = float(np.linalg.norm(result.estimates[k] - result.truth[k]))
            assert e == pytest.approx(expected)

    @pytest.mark.parametrize("family", ["CDPF", "SDPF"])
    def test_holder_ids_are_recorded(self, small_scenario, small_trajectory, family):
        """Each snapshot lists the tracker's holder ids after the step, for
        CDPF's holder set and SDPF's per-node dict alike."""
        from repro.baselines.sdpf import SDPFTracker
        from repro.runtime import IterationEvent

        cls = CDPFTracker if family == "CDPF" else SDPFTracker
        tracker = cls(small_scenario, rng=np.random.default_rng(1))
        bus = EventBus()
        recorder = TraceRecorder(tracker, small_trajectory).attach(bus)
        seen = []
        bus.subscribe(
            lambda ev: seen.append(sorted(tracker.holders))
            if isinstance(ev, IterationEvent) else None
        )
        run_tracking(
            tracker, small_scenario, small_trajectory,
            rng=np.random.default_rng(7), options=RunOptions(bus=bus),
        )
        assert [s.holders.tolist() for s in recorder.snapshots] == seen
        assert any(seen)

    def test_works_with_holderless_tracker(self, small_scenario, small_trajectory):
        from repro.baselines.cpf import CPFTracker

        tracker = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        recorder, _ = _record(tracker, small_scenario, small_trajectory)
        assert all(s.holders.size == 0 for s in recorder.snapshots)


class TestFieldMap:
    def test_contains_marks_and_borders(self, small_scenario, traced_run):
        recorder, _ = traced_run
        snap = recorder.snapshots[2]
        out = render_field_map(small_scenario, snap, window=40.0)
        assert "T" in out
        assert out.count("+--") == 2  # top and bottom borders
        assert "iteration 2" in out

    def test_estimate_mark_when_present(self, small_scenario, traced_run):
        recorder, _ = traced_run
        snap = next(s for s in recorder.snapshots if s.estimate is not None)
        out = render_field_map(small_scenario, snap, window=40.0)
        assert "E" in out

    def test_full_field_mode(self, small_scenario, traced_run):
        recorder, _ = traced_run
        out = render_field_map(small_scenario, recorder.snapshots[1], window=None)
        assert "T" in out

    def test_width_validated(self, small_scenario, traced_run):
        recorder, _ = traced_run
        with pytest.raises(ValueError):
            render_field_map(small_scenario, recorder.snapshots[0], width_chars=5)

    def test_offscreen_truth_does_not_crash(self, small_scenario):
        snap = IterationSnapshot(
            iteration=0,
            detectors=np.zeros(0, dtype=int),
            holders=np.zeros(0, dtype=int),
            estimate=np.array([1e6, 1e6]),
            estimate_iteration=0,
            truth=np.array([-100.0, -100.0]),
        )
        out = render_field_map(small_scenario, snap, window=None)
        assert "T" not in out.splitlines()[2]  # truth is off the window

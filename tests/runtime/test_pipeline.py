"""Unit tests for the shared tracker runtime.

These exercise the runtime seam in isolation — a stub tracker with three
no-op-ish phases over a real :class:`Medium` — so failures localize to the
pipeline/ledger/bus machinery rather than to any tracker's algorithm.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import make_paper_scenario, make_trajectory, run_tracking
from repro.factory import make_tracker, tracker_names

from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel
from repro.runtime import (
    EventBus,
    IterationEvent,
    IterationState,
    Phase,
    PhasePipeline,
    PhaseProfile,
    PhasedTracker,
    TrackerStats,
)
from repro.runtime.events import PhaseEvent


class FakeCtx:
    def __init__(self, iteration: int = 1) -> None:
        self.iteration = iteration
        self.detectors = np.zeros(0, dtype=np.intp)


def make_medium() -> Medium:
    # four nodes in a 10 m line, all within one comm radius of each other
    positions = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [5.0, 5.0]])
    return Medium(positions, RadioModel(comm_radius=30.0))


class StubTracker:
    """Minimal PhasedTracker: each phase charges a known amount of traffic."""

    name = "stub"

    def __init__(self, medium: Medium) -> None:
        self.medium = medium
        self.stats = TrackerStats()
        self.trace: list[str] = []
        self.phases = (
            Phase("alpha", self._phase_alpha),
            Phase("beta", self._phase_beta),
            Phase("gamma", self._phase_gamma),
        )
        self.pipeline = PhasePipeline(self, medium=medium, stats=self.stats)

    @property
    def accounting(self):
        return self.medium.accounting

    def estimate_iteration(self) -> int:
        return 1

    def _phase_alpha(self, state: IterationState) -> None:
        self.trace.append("alpha")
        # one 10-byte out-of-band charge
        self.medium.charge_out_of_band(state.iteration, "report", 10, 1)

    def _phase_beta(self, state: IterationState) -> None:
        self.trace.append("beta")
        # a real broadcast (charged once whatever the receiver count): Dm = 4 B
        self.medium.broadcast(
            1,
            MeasurementMessage(sender=1, iteration=state.iteration, value=0.5),
            state.iteration,
        )

    def _phase_gamma(self, state: IterationState) -> None:
        self.trace.append("gamma")
        state.estimate = np.array([1.0, 2.0])


def test_pipeline_runs_phases_in_order_and_times_them():
    tracker = StubTracker(make_medium())
    est = tracker.pipeline.run(FakeCtx())

    assert tracker.trace == ["alpha", "beta", "gamma"]
    assert np.array_equal(est, [1.0, 2.0])
    assert tracker.stats.phase_calls == {"alpha": 1, "beta": 1, "gamma": 1}
    assert set(tracker.stats.phase_seconds) == {"alpha", "beta", "gamma"}
    assert all(s >= 0.0 for s in tracker.stats.phase_seconds.values())
    assert isinstance(tracker, PhasedTracker)


def test_finish_skips_remaining_phases():
    tracker = StubTracker(make_medium())
    # make beta end the iteration early
    phases = list(tracker.phases)
    phases[1] = Phase("beta", lambda state: state.finish(np.array([9.0, 9.0])))
    tracker.phases = tuple(phases)

    est = tracker.pipeline.run(FakeCtx())
    assert np.array_equal(est, [9.0, 9.0])
    assert tracker.trace == ["alpha"]  # gamma never ran
    assert "gamma" not in tracker.stats.phase_calls


def test_ledger_attributes_traffic_to_phases():
    medium = make_medium()
    tracker = StubTracker(medium)
    tracker.pipeline.run(FakeCtx())
    acc = medium.accounting

    by_phase = acc.bytes_by_phase()
    assert by_phase == {"alpha": 10, "beta": 4}
    assert acc.messages_by_phase() == {"alpha": 1, "beta": 1}
    # the phase marginal covers the totals exactly
    assert sum(by_phase.values()) == acc.total_bytes
    assert acc.bytes_by_category_phase() == {
        ("report", "alpha"): 10,
        ("measurement", "beta"): 4,
    }
    # attribution only: the legacy category ledger is unchanged in shape
    assert acc.bytes_by_category() == {"report": 10, "measurement": 4}


def test_unscoped_traffic_lands_on_empty_phase():
    medium = make_medium()
    medium.charge_out_of_band(0, "setup", 7, 1)
    assert medium.accounting.bytes_by_phase() == {"": 7}


def test_nested_phase_scopes_innermost_wins():
    """The multi-target case: a wrapper phase contains a sub-pipeline."""
    medium = make_medium()
    with medium.phase("tracks"):
        medium.charge_out_of_band(0, "outer", 4, 1)
        with medium.phase("propagation"):
            medium.charge_out_of_band(0, "inner", 16, 1)
        medium.charge_out_of_band(0, "outer", 4, 1)
    assert medium.accounting.bytes_by_phase() == {"tracks": 8, "propagation": 16}


def test_bus_emits_start_end_pairs_with_deltas():
    medium = make_medium()
    tracker = StubTracker(medium)
    bus = EventBus()
    events: list[PhaseEvent] = []
    bus.subscribe(events.append)
    tracker.pipeline.bus = bus
    tracker.pipeline.run(FakeCtx(iteration=3))

    assert [(e.kind, e.phase) for e in events] == [
        ("start", "alpha"), ("end", "alpha"),
        ("start", "beta"), ("end", "beta"),
        ("start", "gamma"), ("end", "gamma"),
    ]
    assert all(e.tracker == "stub" and e.iteration == 3 for e in events)
    ends = {e.phase: e for e in events if e.kind == "end"}
    assert ends["alpha"].bytes == 10 and ends["alpha"].messages == 1
    assert ends["beta"].bytes == 4 and ends["beta"].messages == 1
    assert ends["gamma"].bytes == 0 and ends["gamma"].messages == 0
    assert ends["beta"].seconds >= 0.0
    # start events carry no measurements
    starts = [e for e in events if e.kind == "start"]
    assert all(e.bytes == 0 and e.seconds == 0.0 for e in starts)


def test_bus_unsubscribe_and_handler_errors_propagate():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(seen.append)
    bus.emit("one")
    bus.unsubscribe(handler)
    bus.emit("two")
    assert seen == ["one"]

    def boom(event):
        raise RuntimeError("instrumentation bug")

    bus.subscribe(boom)
    with pytest.raises(RuntimeError, match="instrumentation bug"):
        bus.emit("three")


def test_tracker_stats_population_bookkeeping():
    stats = TrackerStats()
    stats.record_population(5, 2)
    stats.record_population(0, 0)
    stats.record_population(3, 1)
    assert stats.holders_per_iteration == [5, 0, 3]
    assert stats.creators_per_iteration == [2, 0, 1]
    assert stats.track_lost_iterations == 1


def test_phase_profile_from_tracker():
    medium = make_medium()
    tracker = StubTracker(medium)
    tracker.pipeline.run(FakeCtx(iteration=1))
    tracker.pipeline.run(FakeCtx(iteration=2))

    profile = PhaseProfile.from_tracker(tracker)
    assert profile.tracker == "stub"
    assert profile.phases == ("alpha", "beta", "gamma")
    assert profile.calls == {"alpha": 2, "beta": 2, "gamma": 2}
    assert profile.bytes == {"alpha": 20, "beta": 8}
    assert profile.total_bytes == medium.accounting.total_bytes == 28
    assert profile.total_seconds == pytest.approx(sum(profile.seconds.values()))
    # as_rows covers declared phases even when they carried no traffic
    assert [r[0] for r in profile.as_rows()] == ["alpha", "beta", "gamma"]
    d = profile.to_dict()
    assert d["tracker"] == "stub" and d["bytes"] == {"alpha": 20, "beta": 8}


def test_iteration_event_reaches_trace_recorder():
    """TraceRecorder consumes both event types off one bus."""
    from repro.experiments.trace import TraceRecorder

    medium = make_medium()
    tracker = StubTracker(medium)

    class FakeTrajectory:
        def position_at_iteration(self, k):
            return np.array([float(k), 0.0])

    recorder = TraceRecorder(tracker, FakeTrajectory())
    bus = EventBus()
    recorder.attach(bus)
    tracker.pipeline.bus = bus
    est = tracker.pipeline.run(FakeCtx(iteration=1))
    bus.emit(
        IterationEvent(
            tracker="stub", iteration=1, context=FakeCtx(1), estimate=est,
            estimate_iteration=1,
        )
    )

    assert [e.phase for e in recorder.phase_events] == ["alpha", "beta", "gamma"]
    assert recorder.phase_seconds().keys() == {"alpha", "beta", "gamma"}
    assert len(recorder.snapshots) == 1
    snap = recorder.snapshots[0]
    assert snap.iteration == 1 and np.array_equal(snap.estimate, [1.0, 2.0])


@pytest.mark.parametrize("name", tracker_names())
def test_finished_trackers_are_freed_without_a_collection(name):
    """A tracker is no reference cycle: its phase tuple holds no bound method
    of its own and its pipeline points back weakly, so dropping a finished
    tracker frees it, its medium and its scenario's grid indexes at once."""
    rng = np.random.default_rng(3)
    scenario = make_paper_scenario(density_per_100m2=5.0, rng=rng)
    trajectory = make_trajectory(n_iterations=4, rng=rng)
    tracker = make_tracker(name, scenario, rng=np.random.default_rng(1))
    run_tracking(tracker, scenario, trajectory, rng=np.random.default_rng(2))
    refs = [weakref.ref(o) for o in (tracker, tracker.medium, scenario, scenario.deployment.index)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del tracker, scenario, trajectory
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()

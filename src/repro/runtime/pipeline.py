"""The shared tracker runtime: named phases executed by one pipeline.

The paper's central argument is *phase accounting*: Fig. 2(b) reorders the
SIR loop into named phases and Table I prices each phase's traffic
separately.  The runtime makes that structure first-class: a tracker declares
its iteration as an ordered tuple of :class:`Phase` objects and a
:class:`PhasePipeline` owns the common loop skeleton —

* per-phase wall-clock timing into :class:`~repro.runtime.stats.TrackerStats`;
* a phase scope on the medium (``with medium.phase(name):``) so the
  communication ledger attributes every byte to ``(iteration, category,
  phase)``;
* typed :class:`~repro.runtime.events.PhaseEvent` start/end emission with
  timing and ledger deltas;
* early-exit handling (:meth:`IterationState.finish`) for birth iterations
  and coasting, replacing the tangle of early ``return``s the four
  hand-rolled loops used to carry.

Phase bodies mutate the tracker and the :class:`IterationState` scratch
space; the pipeline never interprets algorithm data, so the refactor is
behavior-preserving by construction (and the golden differential tests prove
it bit-for-bit).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from .events import EventBus, PhaseEvent
from .stats import TrackerStats

__all__ = ["Phase", "IterationState", "PhasePipeline", "PhasedTracker"]


@dataclass(frozen=True)
class Phase:
    """One named step of a tracker's iteration.

    ``run`` receives the :class:`IterationState` and mutates tracker/state in
    place.  The name keys the timing stats, the ledger attribution, and the
    emitted events, so it should match the paper's vocabulary
    (``"propagation"``, ``"correction"``, ...).
    """

    name: str
    run: Callable[["IterationState"], None]


class IterationState:
    """Mutable scratch space threaded through one iteration's phases.

    Common fields are declared here; phase bodies are free to attach
    tracker-specific attributes (broadcast lists, observation batches, ...)
    — the state object dies at the end of the iteration, so nothing leaks
    between steps.
    """

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self.iteration: int = int(ctx.iteration)
        #: parsed detector ids (first phase fills it in)
        self.detectors: Any = None
        #: node ids whose particles were created this iteration
        self.created: set[int] = set()
        #: the estimate this iteration makes available (the step return value)
        self.estimate: Any = None
        self.done: bool = False

    def finish(self, estimate: Any = None) -> None:
        """End the iteration early: remaining phases are skipped."""
        self.estimate = estimate
        self.done = True


class PhasePipeline:
    """Executes a tracker's declared phases for one iteration.

    Parameters
    ----------
    tracker:
        The owning tracker; ``tracker.phases`` is read at every step so a
        tracker may legally rebuild its phase tuple between iterations.  The
        pipeline refers to it weakly: the tracker owns the pipeline, and a
        strong link back would make every tracker a reference cycle.
    medium:
        The tracker's :class:`~repro.network.medium.Medium`; each phase body
        runs inside ``medium.phase(name)`` so the ledger attributes its
        traffic.
    stats:
        The tracker's :class:`~repro.runtime.stats.TrackerStats` (phase
        timings accumulate here).
    bus:
        Optional :class:`~repro.runtime.events.EventBus`; when attached the
        pipeline emits a start/end :class:`PhaseEvent` pair per executed
        phase.  The runner attaches the run-level bus here.
    """

    def __init__(
        self,
        tracker: "PhasedTracker",
        *,
        medium: Any,
        stats: TrackerStats,
        bus: EventBus | None = None,
    ) -> None:
        self._tracker = weakref.ref(tracker)
        self.medium = medium
        self.stats = stats
        self.bus = bus

    @property
    def tracker(self) -> "PhasedTracker":
        """The owning tracker."""
        return self._tracker()

    def run(self, ctx: Any) -> Any:
        """Execute the declared phases for ``ctx``; returns the estimate."""
        state = IterationState(ctx)
        accounting = self.medium.accounting
        tracker = self.tracker
        for phase in tracker.phases:
            if state.done:
                break
            if self.bus is not None:
                self.bus.emit(
                    PhaseEvent(
                        kind="start",
                        tracker=tracker.name,
                        iteration=state.iteration,
                        phase=phase.name,
                    )
                )
            b0 = accounting.total_bytes
            m0 = accounting.total_messages
            db0 = accounting.total_dropped_bytes
            dm0 = accounting.total_dropped_messages
            t0 = time.perf_counter()
            with self.medium.phase(phase.name):
                phase.run(state)
            seconds = time.perf_counter() - t0
            self.stats.record_phase(phase.name, seconds)
            if self.bus is not None:
                self.bus.emit(
                    PhaseEvent(
                        kind="end",
                        tracker=tracker.name,
                        iteration=state.iteration,
                        phase=phase.name,
                        seconds=seconds,
                        bytes=accounting.total_bytes - b0,
                        messages=accounting.total_messages - m0,
                        dropped_bytes=accounting.total_dropped_bytes - db0,
                        dropped_messages=accounting.total_dropped_messages - dm0,
                    )
                )
        return state.estimate


@runtime_checkable
class PhasedTracker(Protocol):
    """What the runtime requires of a tracker beyond the base Tracker protocol."""

    name: str
    phases: tuple[Phase, ...]
    stats: TrackerStats
    pipeline: PhasePipeline

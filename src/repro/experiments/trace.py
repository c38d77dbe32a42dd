"""Run tracing and ASCII field maps.

:class:`TraceRecorder` subscribes to the run's
:class:`~repro.runtime.events.EventBus` and snapshots what the tracker saw
and did each iteration — detector sets, holder populations, estimates, and
per-phase timing/traffic events.  The snapshots drive
:func:`render_field_map`, a terminal rendering of one instant of the run
(nodes, detectors, holders, truth, estimate), which is how the examples and
postmortems show *where* a tracker's particles actually live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.propagation import HolderSet
from ..models.trajectory import Trajectory
from ..runtime import EventBus, IterationEvent, PhaseEvent
from ..scenario import Scenario

__all__ = ["IterationSnapshot", "TraceRecorder", "render_field_map"]


@dataclass(frozen=True)
class IterationSnapshot:
    """Everything observable about one tracking iteration."""

    iteration: int
    detectors: np.ndarray
    holders: np.ndarray  # node ids holding particles AFTER the step ([] for CPF-like)
    estimate: np.ndarray | None
    estimate_iteration: int | None
    truth: np.ndarray


@dataclass
class TraceRecorder:
    """Collects :class:`IterationSnapshot`s (and phase events) during a run.

    Usage::

        recorder = TraceRecorder(tracker, trajectory)
        bus = EventBus()
        recorder.attach(bus)
        run_tracking(tracker, scenario, trajectory, rng=rng,
                     options=RunOptions(bus=bus))
        print(render_field_map(scenario, recorder.snapshots[3]))
        recorder.phase_events        # every completed phase, in order
    """

    tracker: object
    trajectory: Trajectory
    snapshots: list[IterationSnapshot] = field(default_factory=list)
    phase_events: list[PhaseEvent] = field(default_factory=list)

    def attach(self, bus: EventBus) -> "TraceRecorder":
        """Subscribe to ``bus``; returns self for chaining."""
        bus.subscribe(self.handle)
        return self

    def handle(self, event) -> None:
        """Bus handler: snapshots on IterationEvent, collects ended phases."""
        if isinstance(event, PhaseEvent) and event.kind == "end":
            self.phase_events.append(event)
        if not isinstance(event, IterationEvent):
            return
        holders = getattr(self.tracker, "holders", None)
        if isinstance(holders, HolderSet):
            holder_ids = np.sort(holders.ids)
        elif isinstance(holders, dict):  # SDPF: node id -> its particles
            holder_ids = np.array(sorted(holders), dtype=np.intp)
        else:
            holder_ids = np.zeros(0, dtype=np.intp)
        estimate = event.estimate
        self.snapshots.append(
            IterationSnapshot(
                iteration=event.iteration,
                detectors=np.array(
                    sorted(int(d) for d in np.asarray(event.context.detectors).ravel())
                ),
                holders=holder_ids,
                estimate=None if estimate is None else np.asarray(estimate, dtype=np.float64).copy(),
                estimate_iteration=event.estimate_iteration,
                truth=self.trajectory.position_at_iteration(event.iteration).copy(),
            )
        )

    def phase_seconds(self) -> dict[str, float]:
        """Total recorded wall-clock per phase name."""
        out: dict[str, float] = {}
        for ev in self.phase_events:
            out[ev.phase] = out.get(ev.phase, 0.0) + ev.seconds
        return out

    def holder_history(self) -> list[int]:
        return [s.holders.size for s in self.snapshots]

    def error_history(self) -> dict[int, float]:
        """Error of each estimate against the iteration it refers to."""
        out: dict[int, float] = {}
        for s in self.snapshots:
            if s.estimate is None or s.estimate_iteration is None:
                continue
            ref_truth = self.trajectory.position_at_iteration(s.estimate_iteration)
            out[s.estimate_iteration] = float(np.linalg.norm(s.estimate - ref_truth))
        return out


def render_field_map(
    scenario: Scenario,
    snapshot: IterationSnapshot,
    *,
    width_chars: int = 72,
    window: float | None = 60.0,
) -> str:
    """ASCII map of one iteration: ``.`` nodes, ``d`` detectors, ``o`` holders,
    ``T`` the true target, ``E`` the estimate.

    ``window`` crops the view to a square of that size centered on the truth
    (None shows the whole field).  Later marks overwrite earlier ones, in
    the priority order node < detector < holder < estimate < truth.
    """
    if width_chars < 16:
        raise ValueError("width_chars must be >= 16")
    pos = scenario.deployment.positions
    if window is None:
        x0, y0 = 0.0, 0.0
        x1, y1 = scenario.deployment.width, scenario.deployment.height
    else:
        cx, cy = snapshot.truth
        half = window / 2.0
        x0, x1 = cx - half, cx + half
        y0, y1 = cy - half, cy + half
    aspect = 0.5  # terminal cells are ~2x taller than wide
    height_chars = max(int(width_chars * (y1 - y0) / (x1 - x0) * aspect), 4)
    grid = [[" "] * width_chars for _ in range(height_chars)]

    def place(xy, mark):
        x, y = float(xy[0]), float(xy[1])
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return
        col = int((x - x0) / (x1 - x0) * (width_chars - 1))
        row = height_chars - 1 - int((y - y0) / (y1 - y0) * (height_chars - 1))
        grid[row][col] = mark

    in_view = (
        (pos[:, 0] >= x0) & (pos[:, 0] <= x1) & (pos[:, 1] >= y0) & (pos[:, 1] <= y1)
    )
    view_ids = np.nonzero(in_view)[0]
    # subsample background nodes so the map stays legible at high density
    max_bg = width_chars * height_chars // 8
    if view_ids.size > max_bg:
        view_ids = view_ids[:: int(np.ceil(view_ids.size / max_bg))]
    for nid in view_ids:
        place(pos[nid], ".")
    for nid in snapshot.detectors:
        place(pos[int(nid)], "d")
    for nid in snapshot.holders:
        place(pos[int(nid)], "o")
    if snapshot.estimate is not None:
        place(snapshot.estimate, "E")
    place(snapshot.truth, "T")

    border = "+" + "-" * width_chars + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    legend = (
        f"iteration {snapshot.iteration}: . node  d detector  o holder  "
        f"T truth  E estimate (for k={snapshot.estimate_iteration})"
    )
    return "\n".join([legend, border, body, border])

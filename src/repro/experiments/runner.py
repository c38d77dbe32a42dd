"""The tracking-run driver: wire a tracker to the sensing layer and collect results.

The runner owns ground truth (trajectory) and the sensing layer (detection +
measurement generation).  Per iteration it builds a :class:`StepContext` —
which nodes detected, what each measured — and hands it to the tracker.  The
tracker drives all communication itself through its medium; the runner never
moves algorithm data between nodes.

CDPF's one-iteration correction latency is handled here: a tracker reports
``estimate_iteration()`` alongside each estimate and the runner files the
estimate under the iteration it refers to, so RMSE compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models.measurement import BearingMeasurement
from ..models.trajectory import Trajectory
from ..runtime import EventBus, IterationEvent, PhaseProfile
from ..runtime.checkpoint import RunCheckpoint, restore_rng, snapshot_rng
from ..scenario import Scenario, StepContext, Tracker
from .metrics import ErrorSummary, cost_series, summarize_errors
from .options import RunOptions

__all__ = [
    "StepOutcome",
    "TrackingResult",
    "TrackingRun",
    "run_tracking",
    "generate_step_context",
    "file_estimate",
    "summarize_tracking_run",
    "snapshot_tracking_run",
    "restore_tracking_run",
]

#: the bare run-shaping keywords retired in favor of ``options=RunOptions(...)``
_RETIRED_KWARGS = frozenset({
    "fault_plan", "on_iteration", "bus",
    "checkpoint_every", "checkpoint_sink", "resume_from",
})


@dataclass
class TrackingResult:
    """Everything one tracking run produced."""

    tracker_name: str
    estimates: dict[int, np.ndarray]
    truth: np.ndarray  # (K + 1, 2) true positions at filter instants
    n_iterations: int
    total_bytes: int
    total_messages: int
    bytes_per_iteration: np.ndarray
    messages_per_iteration: np.ndarray
    bytes_by_category: dict[str, int]
    error: ErrorSummary
    detectors_per_iteration: list[int] = field(default_factory=list)
    #: iterations where the tracker degraded gracefully under channel loss
    #: (renormalized against an incomplete total, or fell back to
    #: prior-weight propagation); 0 on a reliable medium
    degraded_iterations: int = 0
    #: channel-loss ledger: traffic that was transmitted (and charged) but
    #: never delivered.  All 0 on a reliable medium.
    dropped_bytes: int = 0
    dropped_messages: int = 0
    dropped_bytes_by_category: dict[str, int] = field(default_factory=dict)
    #: per-phase cost breakdown (None for trackers without a phase pipeline)
    phase_profile: PhaseProfile | None = None

    @property
    def rmse(self) -> float:
        return self.error.rmse

    @property
    def mean_bytes_per_iteration(self) -> float:
        """Average cost over the iterations the target was actually in the field.

        "Active" means the sensing layer produced at least one detector that
        iteration; an active iteration that genuinely cost 0 bytes counts
        toward the mean instead of being conflated with the target being
        outside the field (the old ``bytes > 0`` heuristic dropped both).
        """
        detectors = np.asarray(self.detectors_per_iteration)
        if detectors.size == self.bytes_per_iteration.size and detectors.size:
            active = self.bytes_per_iteration[detectors > 0]
        else:  # detector counts unavailable (hand-built result): old heuristic
            active = self.bytes_per_iteration[self.bytes_per_iteration > 0]
        return float(active.mean()) if active.size else 0.0


def generate_step_context(
    scenario: Scenario,
    trajectory: Trajectory,
    k: int,
    rng: np.random.Generator,
) -> StepContext:
    """Run the sensing layer for iteration ``k``: who detects, who measures what.

    Detection and measurement use the PHYSICAL node geometry (which equals
    the believed one unless a localization error is configured).
    """
    physical = scenario.physical_deployment
    index = physical.index
    if k == 0 or not scenario.detect_on_path:
        path = trajectory.position_at_iteration(k)[None, :]
    else:
        path = trajectory.interval_path(k)
    detectors = scenario.detection.detect(index, path, rng)
    target_state = np.concatenate(
        [trajectory.position_at_iteration(k), trajectory.velocity_at_iteration(k)]
    )
    positions = physical.positions
    measurement = scenario.measurement
    # per-iteration common-mode bearing error, shared by every sensor
    bias = rng.normal(0.0, scenario.measurement_bias_std) if scenario.measurement_bias_std else 0.0
    if isinstance(measurement, BearingMeasurement):
        # every detector's bearing in one vectorized draw, draw for draw the
        # per-detector measure() stream; values stay Python floats
        ids = np.asarray(detectors, dtype=np.intp)
        zs = measurement.measure_many(target_state, rng, positions[ids]) + bias
        measurements = dict(zip(ids.tolist(), zs.tolist()))
    else:
        measurements = {
            int(nid): measurement.measure(target_state, rng, positions[int(nid)]) + bias
            for nid in detectors
        }
    return StepContext(iteration=k, detectors=detectors, measurements=measurements)


def generate_multi_step_context(
    scenario: Scenario,
    trajectories: list[Trajectory],
    k: int,
    rng: np.random.Generator,
) -> StepContext:
    """Sensing layer for several simultaneous targets.

    Each node reports at most one measurement; a node inside several
    targets' sensing ranges measures the *nearest* one (a single-channel
    sensor).  Used by the multi-target extension.

    Detection and measurement use the PHYSICAL node geometry, exactly as
    the single-target path does: localization error shifts what the nodes
    *believe*, never what their hardware senses.
    """
    physical = scenario.physical_deployment
    positions = physical.positions
    index = physical.index
    owner: dict[int, int] = {}  # node id -> index of the target it measures
    for ti, trajectory in enumerate(trajectories):
        if k > trajectory.n_iterations:
            continue
        if k == 0 or not scenario.detect_on_path:
            path = trajectory.position_at_iteration(k)[None, :]
        else:
            path = trajectory.interval_path(k)
        for nid in scenario.detection.detect(index, path, rng):
            nid = int(nid)
            target_pos = trajectory.position_at_iteration(k)
            if nid not in owner:
                owner[nid] = ti
            else:
                prev = trajectories[owner[nid]].position_at_iteration(k)
                if np.linalg.norm(positions[nid] - target_pos) < np.linalg.norm(
                    positions[nid] - prev
                ):
                    owner[nid] = ti
    bias = rng.normal(0.0, scenario.measurement_bias_std) if scenario.measurement_bias_std else 0.0
    measurements = {}
    for nid, ti in owner.items():
        trajectory = trajectories[ti]
        state = np.concatenate(
            [trajectory.position_at_iteration(k), trajectory.velocity_at_iteration(k)]
        )
        measurements[nid] = scenario.measurement.measure(state, rng, positions[nid]) + bias
    detectors = np.array(sorted(owner), dtype=np.intp)
    return StepContext(iteration=k, detectors=detectors, measurements=measurements)


def file_estimate(
    tracker: Tracker,
    estimate: np.ndarray | None,
    estimates: dict[int, np.ndarray],
    n_iterations: int,
) -> int | None:
    """File one step's estimate under the iteration it refers to.

    Returns that iteration (``None`` when the step made no estimate).
    Estimates referring outside ``0..n_iterations`` are dropped.  Shared by
    :meth:`TrackingRun.step` and the sweep engine's shared-world backend
    (:mod:`repro.experiments.lockstep`), so both file estimates by one rule.
    """
    if estimate is None:
        return None
    ref = tracker.estimate_iteration()
    if ref is None:
        raise RuntimeError(
            f"{tracker.name} returned an estimate without an iteration reference"
        )
    if 0 <= ref <= n_iterations:
        estimates[ref] = np.asarray(estimate, dtype=np.float64).copy()
    return ref


def snapshot_tracking_run(
    tracker: Tracker,
    *,
    rng: np.random.Generator,
    next_iteration: int,
    estimates: dict[int, np.ndarray],
    detectors_per_iteration: list[int],
) -> RunCheckpoint:
    """Compose the full run-level checkpoint at an iteration boundary.

    The tracker snapshots its own mutable state (particles, estimate memory,
    stats, RNG stream); the medium — owned at this layer, shared across
    trackers under the multi-target wrapper — snapshots separately; the
    runner contributes its loop state: the sensing stream, the next
    iteration index, and the accumulated estimate/detector series.
    """
    payload = {
        "tracker": tracker.snapshot(),
        "medium": tracker.medium.snapshot(),
        "sensing_rng": snapshot_rng(rng),
        "next_iteration": int(next_iteration),
        "estimates": [
            [int(i), np.asarray(est, dtype=np.float64)]
            for i, est in sorted(estimates.items())
        ],
        "detectors": [int(d) for d in detectors_per_iteration],
    }
    return RunCheckpoint(iteration=int(next_iteration) - 1, payload=payload)


def restore_tracking_run(
    tracker: Tracker,
    checkpoint: RunCheckpoint,
    *,
    rng: np.random.Generator,
) -> tuple[int, dict[int, np.ndarray], list[int]]:
    """Transplant a checkpoint into a freshly built, configuration-identical
    run.  Returns ``(next_iteration, estimates, detectors_per_iteration)``
    for the runner to resume its loop from."""
    payload = checkpoint.payload
    tracker.restore(payload["tracker"])
    tracker.medium.restore(payload["medium"])
    restore_rng(rng, payload["sensing_rng"])
    estimates = {
        int(i): np.asarray(est, dtype=np.float64).copy()
        for i, est in payload["estimates"]
    }
    detectors = [int(d) for d in payload["detectors"]]
    return int(payload["next_iteration"]), estimates, detectors


@dataclass(frozen=True)
class StepOutcome:
    """What one :meth:`TrackingRun.step` produced."""

    iteration: int
    context: StepContext
    estimate: np.ndarray | None
    estimate_iteration: int | None
    #: the run finished with this step (no further iterations remain)
    done: bool


class TrackingRun:
    """One tracking run as an incrementally steppable object.

    :func:`run_tracking` drives a ``TrackingRun`` start to finish; the
    service layer (:mod:`repro.service`) steps many of them interleaved.
    Both paths execute the *same* per-iteration body, so an interleaved
    session is bit-identical to its batch run by construction — each run
    owns its tracker, medium and sensing stream, and ``step`` touches
    nothing outside them.

    The run is also :class:`~repro.runtime.checkpoint.Checkpointable`-shaped
    at the run level: :meth:`snapshot` captures tracker + medium + sensing
    stream + loop state at the current iteration boundary, and
    :meth:`restore` transplants such a checkpoint into a freshly built,
    configuration-identical run.
    """

    def __init__(
        self,
        tracker: Tracker,
        scenario: Scenario,
        trajectory: Trajectory,
        *,
        rng: np.random.Generator,
        options: RunOptions | None = None,
    ) -> None:
        self.tracker = tracker
        self.scenario = scenario
        self.trajectory = trajectory
        self.rng = rng
        self.options = options if options is not None else RunOptions()
        self.n_iterations = trajectory.n_iterations
        self.next_iteration = 0
        self.estimates: dict[int, np.ndarray] = {}
        self.detectors_per_iteration: list[int] = []
        pipeline = getattr(tracker, "pipeline", None)
        if self.options.bus is not None and pipeline is not None:
            pipeline.bus = self.options.bus
        policy = self.options.checkpoint
        if policy is not None and policy.resume_from is not None:
            self.restore(policy.resume_from)

    @property
    def done(self) -> bool:
        return self.next_iteration > self.n_iterations

    def step(self) -> StepOutcome:
        """Execute the next iteration: faults, sensing, tracker, events.

        After the iteration completes, a periodic checkpoint is emitted if
        the options' :class:`~repro.experiments.options.CheckpointPolicy`
        says one is due (never after the final iteration — the finished run
        needs no resume point).
        """
        if self.done:
            raise RuntimeError(
                f"tracking run is finished (all {self.n_iterations + 1} "
                "iterations executed); build a new run to go again"
            )
        k = self.next_iteration
        options = self.options
        tracker = self.tracker
        fault_plan = options.fault_plan
        if fault_plan is not None:
            fault_plan.apply(tracker.medium, k)
        ctx = generate_step_context(self.scenario, self.trajectory, k, self.rng)
        if fault_plan is not None:
            medium = tracker.medium
            alive = [int(d) for d in np.asarray(ctx.detectors).ravel()
                     if medium.is_available(int(d))]
            ctx = StepContext(
                iteration=k,
                detectors=np.array(alive, dtype=np.intp),
                measurements={n: ctx.measurements[n] for n in alive},
            )
        self.detectors_per_iteration.append(int(np.asarray(ctx.detectors).size))
        est = tracker.step(ctx)
        ref = file_estimate(tracker, est, self.estimates, self.n_iterations)
        if options.bus is not None:
            options.bus.emit(
                IterationEvent(
                    tracker=tracker.name,
                    iteration=k,
                    context=ctx,
                    estimate=est,
                    estimate_iteration=ref,
                )
            )
        self.next_iteration = k + 1
        policy = options.checkpoint
        if (
            policy is not None
            and policy.every is not None
            and (k + 1) % policy.every == 0
            and k < self.n_iterations
        ):
            policy.sink(self.snapshot())
        return StepOutcome(
            iteration=k,
            context=ctx,
            estimate=est,
            estimate_iteration=ref,
            done=self.done,
        )

    def snapshot(self) -> RunCheckpoint:
        """The full run state at the current iteration boundary."""
        return snapshot_tracking_run(
            self.tracker,
            rng=self.rng,
            next_iteration=self.next_iteration,
            estimates=self.estimates,
            detectors_per_iteration=self.detectors_per_iteration,
        )

    def restore(self, checkpoint: RunCheckpoint) -> None:
        """Transplant ``checkpoint`` into this (freshly built) run."""
        (
            self.next_iteration,
            self.estimates,
            self.detectors_per_iteration,
        ) = restore_tracking_run(self.tracker, checkpoint, rng=self.rng)

    def run(self) -> TrackingResult:
        """Drive the remaining iterations to completion and summarize."""
        while not self.done:
            self.step()
        return self.result()

    def result(self) -> TrackingResult:
        """Summarize the finished run (raises if iterations remain)."""
        if not self.done:
            raise RuntimeError(
                f"tracking run is not finished (next iteration "
                f"{self.next_iteration} of {self.n_iterations})"
            )
        return summarize_tracking_run(
            self.tracker, self.trajectory, self.estimates,
            self.detectors_per_iteration,
        )


def run_tracking(
    tracker: Tracker,
    scenario: Scenario,
    trajectory: Trajectory,
    *,
    rng: np.random.Generator,
    options: RunOptions | None = None,
    **retired: object,
) -> TrackingResult:
    """Drive ``tracker`` along the whole trajectory and summarize the run.

    Iterations outside the deployment field (the target leaves the area) are
    still executed — detectors simply become empty, exactly as in a real
    deployment.

    Run-shaping knobs travel in ``options`` (a :class:`~repro.experiments.
    options.RunOptions`): ``options.fault_plan`` (a :class:`~repro.network.
    faults.FaultPlan`) is replayed against the tracker's medium at the start
    of each iteration — crashed and sleeping nodes stop sensing as well as
    transmitting; ``options.bus`` attaches an :class:`~repro.runtime.events.
    EventBus` on which the pipeline emits per-phase events and the runner one
    :class:`~repro.runtime.events.IterationEvent` per step (subscribe a
    plain per-iteration callable with :func:`~repro.experiments.options.
    iteration_subscriber`).

    Checkpointing travels in ``options.checkpoint`` (a :class:`~repro.
    experiments.options.CheckpointPolicy`): with ``every=n``, after every
    ``n``-th completed iteration the full run state (tracker, medium,
    sensing stream, accumulated estimates) is snapshotted into a
    :class:`~repro.runtime.checkpoint.RunCheckpoint` and handed to the
    policy's ``sink``; ``resume_from`` transplants such a checkpoint into a
    freshly built, configuration-identical run and continues from the next
    iteration — bit-identical to the uninterrupted run.
    """
    if retired:
        names = sorted(set(retired) & _RETIRED_KWARGS)
        if names:
            raise TypeError(
                f"run_tracking() no longer accepts the bare {', '.join(names)} "
                "keyword(s); pass options=RunOptions(...) instead (checkpointing "
                "goes in RunOptions(checkpoint=CheckpointPolicy(...)))"
            )
        raise TypeError(
            "run_tracking() got unexpected keyword argument(s): "
            + ", ".join(sorted(retired))
        )
    return TrackingRun(
        tracker, scenario, trajectory, rng=rng, options=options
    ).run()


def summarize_tracking_run(
    tracker: Tracker,
    trajectory: Trajectory,
    estimates: dict[int, np.ndarray],
    detectors_per_iteration: list[int],
) -> TrackingResult:
    """Assemble the :class:`TrackingResult` of a finished run.

    Shared by :func:`run_tracking` and the sweep engine's shared-world
    backend (:mod:`repro.experiments.lockstep`), so both execution
    strategies summarize a run through the exact same code path.
    """
    n_iter = trajectory.n_iterations
    truth = trajectory.iteration_positions()
    accounting = tracker.accounting
    series = cost_series(accounting, n_iter)
    stats = getattr(tracker, "stats", None)
    pipeline = getattr(tracker, "pipeline", None)
    profile = (
        PhaseProfile.from_tracker(tracker)
        if pipeline is not None and stats is not None
        else None
    )
    return TrackingResult(
        tracker_name=tracker.name,
        estimates=estimates,
        truth=truth,
        n_iterations=n_iter,
        total_bytes=accounting.total_bytes,
        total_messages=accounting.total_messages,
        bytes_per_iteration=series["bytes"],
        messages_per_iteration=series["messages"],
        bytes_by_category=accounting.bytes_by_category(),
        error=summarize_errors(estimates, truth, n_iter + 1),
        detectors_per_iteration=detectors_per_iteration,
        degraded_iterations=(
            int(stats.degraded_iterations) if stats is not None else 0
        ),
        dropped_bytes=accounting.total_dropped_bytes,
        dropped_messages=accounting.total_dropped_messages,
        dropped_bytes_by_category=accounting.dropped_bytes_by_category(),
        phase_profile=profile,
    )

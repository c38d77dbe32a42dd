"""Parameter sweeps: the engine behind Figures 5 and 6.

The paper's protocol (§VI-A): for each node density in 5..40 nodes/100 m^2,
run each of the four algorithms on the same deployments/trajectories for ten
random seeds and report the averages.  :func:`density_sweep` reproduces that
protocol on top of :mod:`repro.experiments.engine` — a task list of
``(density, algorithm, seed)`` cells with collision-free SeedSequence
streams, optionally executed process-parallel (``max_workers``) and/or
persisted to a resumable JSONL ``store``.  Per-(density, algorithm)
aggregates come back as a :class:`SweepResult` that the figure benches
render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..factory import tracker_factory
from ..scenario import Scenario
from .engine import JsonlStore, RunSummary, expand_tasks, run_sweep
from .runner import TrackingResult

__all__ = ["SweepPoint", "SweepResult", "density_sweep", "default_tracker_factories"]

TrackerFactory = Callable[[Scenario, np.random.Generator], object]


def default_tracker_factories() -> dict[str, TrackerFactory]:
    """The paper's four algorithms, in Figure 5/6 legend order.

    Built from the :mod:`repro.factory` registry; each entry is picklable,
    so the default sweep fans out into the engine's worker processes.
    """
    return {
        name: tracker_factory(name) for name in ("CPF", "SDPF", "CDPF", "CDPF-NE")
    }


@dataclass
class SweepPoint:
    """Aggregates for one (density, algorithm) cell."""

    density: float
    algorithm: str
    rmse_runs: list[float] = field(default_factory=list)
    bytes_runs: list[int] = field(default_factory=list)
    messages_runs: list[int] = field(default_factory=list)
    coverage_runs: list[float] = field(default_factory=list)

    @property
    def rmse(self) -> float:
        vals = [v for v in self.rmse_runs if np.isfinite(v)]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def rmse_std(self) -> float:
        vals = [v for v in self.rmse_runs if np.isfinite(v)]
        return float(np.std(vals)) if vals else float("nan")

    @property
    def total_bytes(self) -> float:
        return float(np.mean(self.bytes_runs)) if self.bytes_runs else float("nan")

    @property
    def total_messages(self) -> float:
        return float(np.mean(self.messages_runs)) if self.messages_runs else float("nan")

    @property
    def coverage(self) -> float:
        return float(np.mean(self.coverage_runs)) if self.coverage_runs else float("nan")


@dataclass
class SweepResult:
    """All (density, algorithm) cells of one sweep."""

    densities: list[float]
    algorithms: list[str]
    points: dict[tuple[float, str], SweepPoint]
    #: Timing/throughput of the execution that produced this sweep
    #: (``None`` for hand-built results).
    run_summary: RunSummary | None = None

    def series(self, algorithm: str, metric: str) -> np.ndarray:
        """One algorithm's metric across densities (Figure 5/6's curves)."""
        return np.array(
            [getattr(self.points[(d, algorithm)], metric) for d in self.densities]
        )

    def reduction_vs(self, algorithm: str, baseline: str, metric: str = "total_bytes") -> np.ndarray:
        """Fractional reduction of ``algorithm`` relative to ``baseline`` per density."""
        a = self.series(algorithm, metric)
        b = self.series(baseline, metric)
        return 1.0 - a / b


def density_sweep(
    densities: Sequence[float] = (5, 10, 15, 20, 25, 30, 35, 40),
    *,
    n_seeds: int = 10,
    n_iterations: int = 10,
    factories: dict[str, TrackerFactory] | None = None,
    base_seed: int = 2011,
    scenario_kwargs: dict | None = None,
    trajectory_kwargs: dict | None = None,
    on_result: Callable[[float, str, int, TrackingResult | None], None] | None = None,
    max_workers: int = 1,
    store: JsonlStore | str | Path | None = None,
    backend: str | None = None,
    checkpoint_every: int | None = None,
) -> SweepResult:
    """The Figure 5/6 protocol: densities x algorithms x seeds.

    Every algorithm at a given (density, seed) sees the *same* deployment,
    trajectory and sensing noise — paired comparisons, matching the paper's
    "variable random seeds" averaging while eliminating cross-algorithm
    deployment variance.  Streams are SeedSequence-spawned per cell (see
    :mod:`repro.experiments.engine`), so no two cells share randomness.
    Pass ``scenario_kwargs`` / ``trajectory_kwargs`` jointly when changing
    the field geometry: the default trajectory enters at (0, 100).

    ``max_workers > 1`` fans the cells out over a process pool and is
    bit-identical to the serial run (``max_workers=1``, the default).
    ``backend="batched"`` advances batchable cells in lock-step with
    cross-cell stacked kernels (also bit-identical; see
    :func:`repro.experiments.engine.run_sweep`).
    ``store`` names a JSONL file persisting completed cells: an interrupted
    sweep rerun with the same store resumes, skipping finished cells.
    ``checkpoint_every`` additionally streams mid-cell checkpoints into the
    store every ``n`` iterations, so the in-flight cell itself resumes from
    its last checkpoint instead of restarting (requires ``store``; see
    :func:`repro.experiments.engine.run_sweep`).

    ``on_result`` is called once per cell in deterministic task order after
    the sweep body; for cells resumed from a store, the ``TrackingResult``
    argument is ``None`` (only scalar metrics are persisted).
    """
    if factories is None:
        factories = default_tracker_factories()
    tasks = expand_tasks(densities, list(factories), n_seeds)
    cells, summary = run_sweep(
        tasks,
        factories=factories,
        base_seed=base_seed,
        n_iterations=n_iterations,
        scenario_kwargs=scenario_kwargs,
        trajectory_kwargs=trajectory_kwargs,
        max_workers=max_workers,
        store=store,
        backend=backend,
        checkpoint_every=checkpoint_every,
    )
    points: dict[tuple[float, str], SweepPoint] = {
        (float(d), name): SweepPoint(float(d), name)
        for d in densities
        for name in factories
    }
    for cell in cells:  # task order: density -> seed -> algorithm
        pt = points[(cell.density, cell.algorithm)]
        pt.rmse_runs.append(cell.rmse)
        pt.bytes_runs.append(cell.total_bytes)
        pt.messages_runs.append(cell.total_messages)
        pt.coverage_runs.append(cell.coverage)
        if on_result is not None:
            on_result(cell.density, cell.algorithm, cell.seed, cell.tracking)
    return SweepResult(
        densities=[float(d) for d in densities],
        algorithms=list(factories),
        points=points,
        run_summary=summary,
    )

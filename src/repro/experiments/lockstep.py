"""Shared-world sweep execution: build each ``(density, seed)`` world once.

The engine's random streams key on ``(density, seed)`` only, so every
algorithm at a cell sees the same deployment, trajectory and sensing noise
(the paper's paired-comparison protocol).  The per-cell path
(:func:`~repro.experiments.engine._execute_task`) rebuilds that world for
every algorithm; this backend builds it once — scenario, trajectory and the
whole run's sensing contexts from :func:`~repro.experiments.runner.
generate_step_context` — and steps each cell's own tracker over the shared
contexts.

No phase code lives here.  Every cell keeps its own tracker, RNG stream,
medium and ledger and runs its tracker's own phases; only the world is
shared, so the results are bit-identical to the per-cell path by
construction (pinned by ``tests/experiments/test_lockstep.py``).  Every
tracker family and every factory runs through this backend.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..scenario import make_paper_scenario, make_trajectory
from .runner import file_estimate, generate_step_context, summarize_tracking_run

if TYPE_CHECKING:  # pragma: no cover
    from .engine import CellResult

__all__ = ["run_lockstep"]


def run_lockstep(pending) -> Iterator[tuple[int, "CellResult"]]:
    """Execute ``(index, spec)`` pairs; yields ``(index, CellResult)``.

    Cells are grouped by ``(density, seed)``.  Each group's world is built
    once and dropped before the next group's is built, so one world is
    alive at a time.  A cell's ``elapsed_s`` covers its tracker's
    construction, run and summary, and the world build is charged to the
    cell that builds it (the group's first), as the per-cell path charges
    it.  Cells are yielded one at a time, so an interrupt loses at most the
    cell in flight.
    """
    from .engine import CellResult, task_seed_sequences

    worlds: dict[tuple[float, int], list] = {}
    for index, spec in pending:
        worlds.setdefault((spec.task.density, spec.task.seed), []).append((index, spec))
    for cells in worlds.values():
        t0 = time.perf_counter()
        first = cells[0][1]
        n_iterations = first.n_iterations
        streams = task_seed_sequences(first.base_seed, first.task.density, first.task.seed)
        world_rng = np.random.default_rng(streams["world"])
        scenario = make_paper_scenario(
            density_per_100m2=first.task.density, rng=world_rng, **first.scenario_kwargs
        )
        trajectory = make_trajectory(
            n_iterations=n_iterations, rng=world_rng, **first.trajectory_kwargs
        )
        sensing_rng = np.random.default_rng(streams["sensing"])
        contexts = [
            generate_step_context(scenario, trajectory, k, sensing_rng)
            for k in range(n_iterations + 1)
        ]
        detectors = [int(np.asarray(ctx.detectors).size) for ctx in contexts]
        for index, spec in cells:
            tracker = spec.factory(scenario, np.random.default_rng(streams["tracker"]))
            estimates: dict[int, np.ndarray] = {}
            for ctx in contexts:
                file_estimate(tracker, tracker.step(ctx), estimates, n_iterations)
            tracking = summarize_tracking_run(
                tracker, trajectory, estimates, list(detectors)
            )
            task = spec.task
            yield index, CellResult(
                density=task.density,
                algorithm=task.algorithm,
                seed=task.seed,
                rmse=tracking.rmse,
                total_bytes=int(tracking.total_bytes),
                total_messages=int(tracking.total_messages),
                coverage=tracking.error.coverage,
                elapsed_s=time.perf_counter() - t0,
                tracking=tracking,
            )
            t0 = time.perf_counter()

"""Process-parallel Monte-Carlo execution engine for parameter sweeps.

The paper's evaluation protocol (§VI, Figures 5-6) is a Monte-Carlo grid:
densities x algorithms x seeds.  This module turns such a grid into an
explicit list of :class:`SweepTask` cells and executes them with three
guarantees the old serial triple loop could not give:

**Collision-free seeding.**  Every task derives its world / tracker / sensing
random streams from ``np.random.SeedSequence`` spawn keys — the documented
mechanism behind ``SeedSequence.spawn()`` — keyed on ``(stream id, density,
seed)``.  The old additive scheme (``base_seed + seed``, ``base_seed +
1000*seed + d``, ``base_seed + 7000 + seed``) collided for realistic grids
(tracker seed ``2011 + 5`` equals world seed ``2011 + 1000*0 + 5``),
silently correlating streams across cells; spawn keys cannot collide by
construction.  Streams depend only on ``(density, seed)``, never on the
algorithm, so every algorithm at a cell sees the same deployment, trajectory
and sensing noise — the paper's paired-comparison protocol.

**Serial == parallel, bit for bit.**  Each task is a pure function of its
spec, so fanning tasks out over a :class:`~concurrent.futures.
ProcessPoolExecutor` produces exactly the cells the serial loop produces,
in the same deterministic order (results are reassembled by task index, not
completion order).

**Resumability.**  With a ``store`` (a :class:`JsonlStore` or a path), every
completed cell is appended to a JSONL file as soon as it finishes; a rerun
of the same sweep loads the store first and only executes the missing cells.
Records carry a fingerprint of the sweep configuration so a store is never
reused across incompatible sweeps, and a truncated final line (the typical
signature of an interrupt) is tolerated on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .runner import TrackingResult

__all__ = [
    "SweepTask",
    "CellResult",
    "RunSummary",
    "JsonlStore",
    "StoreLoadError",
    "RECORD_SCHEMA",
    "task_seed_sequences",
    "expand_tasks",
    "run_sweep",
]

#: Version of the persisted cell-record payload.  A stored record whose
#: fingerprint matches but whose schema is *older* than this is treated as
#: absent (the cell re-runs under the current codec); a *newer* schema is an
#: error — the store was written by a newer version of this code.
RECORD_SCHEMA = 2

#: Stream identifiers: the first spawn-key component keeps the three
#: per-cell streams (deployment+trajectory, tracker internals, sensing
#: noise) in disjoint key spaces.
WORLD_STREAM, TRACKER_STREAM, SENSING_STREAM = 0, 1, 2


def _density_key(density: float) -> int:
    """Integer spawn-key component for a (possibly fractional) density.

    Keys on the float64 bit pattern, so *every* distinct density value gets a
    distinct spawn key.  The old ``int(round(density * 1e6))`` quantization
    mapped densities closer than 5e-7 to the same key, silently correlating
    cells that a fine-grained sweep intended to be independent.  The uint64
    view is non-negative, as SeedSequence spawn-key components require.
    """
    return int(np.float64(density).view(np.uint64))


def task_seed_sequences(
    base_seed: int, density: float, seed: int
) -> dict[str, np.random.SeedSequence]:
    """The three independent streams of one ``(density, seed)`` cell.

    Keyed on ``(stream id, density, seed)`` only — deliberately not on the
    algorithm — so all algorithms at a cell share the same world and sensing
    randomness (paired comparisons).  Distinct key tuples give statistically
    independent streams by SeedSequence's construction; no additive-seed
    collisions are possible.
    """
    dk = _density_key(density)
    return {
        "world": np.random.SeedSequence(base_seed, spawn_key=(WORLD_STREAM, dk, seed)),
        "tracker": np.random.SeedSequence(base_seed, spawn_key=(TRACKER_STREAM, dk, seed)),
        "sensing": np.random.SeedSequence(base_seed, spawn_key=(SENSING_STREAM, dk, seed)),
    }


@dataclass(frozen=True)
class SweepTask:
    """One Monte-Carlo cell: an algorithm run at a (density, seed) world."""

    density: float
    algorithm: str
    seed: int

    @property
    def key(self) -> tuple[float, str, int]:
        return (self.density, self.algorithm, self.seed)


def expand_tasks(
    densities: Sequence[float],
    algorithms: Sequence[str],
    n_seeds: int,
) -> list[SweepTask]:
    """The full grid in deterministic order: density -> seed -> algorithm.

    The order matches the historical serial triple loop, so per-point run
    lists come back seed-ordered regardless of execution strategy.
    """
    return [
        SweepTask(float(d), str(name), int(seed))
        for d in densities
        for seed in range(n_seeds)
        for name in algorithms
    ]


@dataclass
class CellResult:
    """What one executed (or resumed) cell produced.

    ``tracking`` carries the full :class:`~repro.experiments.runner.
    TrackingResult` for freshly executed cells and is ``None`` for cells
    loaded from a store (only the scalar metrics are persisted).
    """

    density: float
    algorithm: str
    seed: int
    rmse: float
    total_bytes: int
    total_messages: int
    coverage: float
    elapsed_s: float
    resumed: bool = False
    tracking: "TrackingResult | None" = None

    @property
    def key(self) -> tuple[float, str, int]:
        return (self.density, self.algorithm, self.seed)

    def to_record(self, fingerprint: str) -> dict:
        return {
            "fingerprint": fingerprint,
            "schema": RECORD_SCHEMA,
            "density": self.density,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "rmse": self.rmse,
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "coverage": self.coverage,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CellResult":
        return cls(
            density=float(record["density"]),
            algorithm=str(record["algorithm"]),
            seed=int(record["seed"]),
            rmse=float(record["rmse"]),
            total_bytes=int(record["total_bytes"]),
            total_messages=int(record["total_messages"]),
            coverage=float(record["coverage"]),
            elapsed_s=float(record["elapsed_s"]),
            resumed=True,
        )


@dataclass(frozen=True)
class RunSummary:
    """Timing and throughput of one sweep execution."""

    n_tasks: int
    n_executed: int
    n_resumed: int
    max_workers: int
    wall_clock_s: float
    task_time_s: float  # summed per-task compute time across workers
    #: executed cells that restarted from a mid-cell store checkpoint rather
    #: than iteration 0.  They count toward ``n_executed`` (work ran), but
    #: their ``elapsed_s`` covers only the post-resume iterations — a store
    #: holding *only* ``kind:"checkpoint"`` records (a sweep killed before
    #: its first cell completed) resumes as ``n_resumed == 0`` with this
    #: field carrying the evidence, instead of looking like a fresh sweep.
    n_checkpoint_resumed: int = 0

    @property
    def tasks_per_sec(self) -> float:
        """Executed-task throughput (resumed cells cost nothing)."""
        return self.n_executed / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    @property
    def effective_workers(self) -> int:
        """Workers that could actually have been busy: a pool of 8 running 3
        executed tasks can never use more than 3 of its slots."""
        return min(self.max_workers, self.n_executed)

    @property
    def parallel_efficiency(self) -> float:
        """Summed task time over (wall clock x *effective* workers).

        1.0 = perfect scaling over the workers that had work to do.  A fully
        resumed sweep executes nothing, so its efficiency is undefined and
        reported as ``nan`` — not the misleading near-zero the raw
        ``max_workers`` denominator used to produce.  Cells resumed from
        mid-cell checkpoints (``n_checkpoint_resumed``) count as executed
        with only their post-resume compute in ``task_time_s``, so a
        checkpoint-only store yields a well-defined (post-resume)
        efficiency rather than ``nan`` or a skewed full-run figure.
        """
        if self.n_executed == 0:
            return float("nan")
        denom = self.wall_clock_s * self.effective_workers
        return self.task_time_s / denom if denom > 0 else float("nan")

    def as_rows(self) -> list[tuple[str, str]]:
        efficiency = self.parallel_efficiency
        return [
            ("tasks (total / executed / resumed)",
             f"{self.n_tasks} / {self.n_executed} / {self.n_resumed}"),
            ("mid-cell checkpoint resumes", str(self.n_checkpoint_resumed)),
            ("workers", str(self.max_workers)),
            ("wall clock", f"{self.wall_clock_s:.2f} s"),
            ("summed task time", f"{self.task_time_s:.2f} s"),
            ("throughput", f"{self.tasks_per_sec:.2f} tasks/s"),
            ("parallel efficiency",
             "n/a" if math.isnan(efficiency) else f"{efficiency:.2f}"),
        ]


class StoreLoadError(RuntimeError):
    """A resume store is corrupt or belongs to a different sweep entirely."""


class JsonlStore:
    """Append-only JSONL persistence for completed sweep cells.

    One JSON object per line.  Loading tolerates exactly one failure mode: a
    truncated *final* line, the on-disk signature of an interrupted append.
    Anything else that would previously have been skipped in silence now
    fails loudly — an undecodable or malformed line in the middle of the
    file means corruption (resuming would quietly recompute and re-append
    those cells forever), and a store whose every record carries a foreign
    fingerprint means the file belongs to a different sweep configuration
    (resuming "from an empty set" is never what the caller intended).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self, fingerprint: str) -> dict[tuple[float, str, int], CellResult]:
        """All stored cells matching ``fingerprint``, keyed by cell.

        Raises :class:`StoreLoadError` on a corrupt store (undecodable or
        malformed non-final line) and when a non-empty store contains *no*
        record of this sweep; warns when foreign-fingerprint records are
        merely mixed in alongside matching ones.
        """
        cells: dict[tuple[float, str, int], CellResult] = {}
        if not self.path.exists():
            return cells
        raw = self.path.read_text(encoding="utf-8").splitlines()
        lines = [(i, line.strip()) for i, line in enumerate(raw) if line.strip()]
        n_foreign = 0
        n_checkpoints = 0  # matching-fingerprint mid-cell checkpoints
        for pos, (lineno, line) in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if pos == len(lines) - 1:
                    continue  # truncated tail from an interrupted append
                raise StoreLoadError(
                    f"{self.path}:{lineno + 1}: undecodable JSON in the middle "
                    f"of the store ({exc.msg}); this is corruption, not an "
                    "interrupted append — refusing to resume from it"
                ) from exc
            if not isinstance(record, dict):
                raise StoreLoadError(
                    f"{self.path}:{lineno + 1}: expected one JSON object per "
                    f"line, got {type(record).__name__}"
                )
            if record.get("fingerprint") != fingerprint:
                n_foreign += 1
                continue
            if record.get("kind") == "checkpoint":
                # mid-cell checkpoints are not completed cells, but they ARE
                # proof this store belongs to this sweep (a sweep killed
                # before its first cell completed leaves nothing else behind).
                # They are deliberately counted before the schema gate:
                # load_checkpoints() skips non-current-schema checkpoints on
                # its own, and a newer-schema checkpoint must not brick the
                # result load.
                n_checkpoints += 1
                continue
            schema = int(record.get("schema", 1))
            if schema > RECORD_SCHEMA:
                raise StoreLoadError(
                    f"{self.path}:{lineno + 1}: record schema {schema} is newer "
                    f"than this code's schema {RECORD_SCHEMA}; refusing to "
                    "guess at its layout"
                )
            if schema < RECORD_SCHEMA:
                # written by an older codec: the payload layout predates the
                # current one, so the cell is treated as absent and re-runs
                # (NOT an error — mixed-vintage stores are a normal upgrade
                # artifact, and re-running is always safe)
                continue
            try:
                cell = CellResult.from_record(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreLoadError(
                    f"{self.path}:{lineno + 1}: record matches this sweep's "
                    f"fingerprint but cannot be read back: {exc!r}"
                ) from exc
            cells[cell.key] = cell
        if n_foreign:
            if not cells and not n_checkpoints:
                raise StoreLoadError(
                    f"{self.path}: all {n_foreign} stored record(s) carry a "
                    "different sweep fingerprint — this store belongs to "
                    "another sweep configuration.  Resuming would silently "
                    "recompute every cell into the same file; pass a fresh "
                    "store path (or delete the file) if that is intended."
                )
            warnings.warn(
                f"{self.path}: ignoring {n_foreign} record(s) with a foreign "
                f"sweep fingerprint ({len(cells)} result record(s) and "
                f"{n_checkpoints} checkpoint(s) match this sweep)",
                stacklevel=2,
            )
        return cells

    def load_checkpoints(self, fingerprint: str) -> dict[tuple[float, str, int], "RunCheckpoint"]:
        """The latest readable mid-cell checkpoint per cell for this sweep.

        Checkpoint records ride the same JSONL file as completed cells
        (``kind == "checkpoint"``); the last one appended per cell wins.  A
        checkpoint that fails its integrity check is skipped — re-running the
        cell from scratch is always safe, so checkpoint corruption is never
        fatal the way result corruption is.
        """
        from ..runtime.checkpoint import CheckpointError, RunCheckpoint

        checkpoints: dict[tuple[float, str, int], RunCheckpoint] = {}
        if not self.path.exists():
            return checkpoints
        raw = self.path.read_text(encoding="utf-8").splitlines()
        lines = [line.strip() for line in raw if line.strip()]
        for pos, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if pos == len(lines) - 1:
                    continue  # truncated tail from an interrupted append
                raise  # load() reports this corruption with full context
            if not isinstance(record, dict) or record.get("kind") != "checkpoint":
                continue
            if record.get("fingerprint") != fingerprint:
                continue
            if int(record.get("schema", 1)) != RECORD_SCHEMA:
                continue
            key = (
                float(record["density"]),
                str(record["algorithm"]),
                int(record["seed"]),
            )
            try:
                checkpoints[key] = RunCheckpoint.from_dict(record["checkpoint"])
            except (CheckpointError, KeyError, TypeError, ValueError):
                continue
        return checkpoints

    def append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()


def checkpoint_record(fingerprint: str, task: SweepTask, checkpoint) -> dict:
    """The JSONL record shape of one mid-cell checkpoint."""
    return {
        "fingerprint": fingerprint,
        "schema": RECORD_SCHEMA,
        "kind": "checkpoint",
        "density": task.density,
        "algorithm": task.algorithm,
        "seed": task.seed,
        "checkpoint": checkpoint.to_dict(),
    }


def _canonical_value(value, path: str):
    """JSON-stable canonical form of one sweep kwarg.

    Numpy scalars collapse to their Python equivalents and arrays/tuples to
    lists, so ``width=np.float64(80)`` and ``width=80.0`` fingerprint
    identically from any session.  Values with no canonical form are
    rejected outright: the old ``json.dumps(..., default=repr)`` fallback
    turned them into id-bearing reprs like ``<object at 0x7f...>`` that
    changed every process, silently invalidating resume stores.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, np.generic):
        return _canonical_value(value.item(), path)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return _canonical_value(value.tolist(), path)
    if isinstance(value, (list, tuple)):
        return [
            _canonical_value(v, f"{path}[{i}]") for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"sweep kwarg {path} has a non-string key {key!r}; "
                    "fingerprintable kwargs need string keys"
                )
        return {k: _canonical_value(v, f"{path}.{k}") for k, v in value.items()}
    raise TypeError(
        f"sweep kwarg {path} is a {type(value).__name__} ({value!r}), which "
        "has no stable fingerprint; pass plain scalars, sequences or dicts"
    )


def sweep_fingerprint(
    base_seed: int,
    n_iterations: int,
    scenario_kwargs: dict,
    trajectory_kwargs: dict,
) -> str:
    """Short stable hash of everything that changes a cell's result.

    Values are canonicalized (see :func:`_canonical_value`) before hashing,
    so the fingerprint is identical across sessions and processes; kwargs
    that cannot be canonicalized raise ``TypeError`` instead of being
    silently fingerprinted by their per-process ``repr``.
    """
    blob = json.dumps(
        {
            "base_seed": int(base_seed),
            "n_iterations": int(n_iterations),
            "scenario_kwargs": _canonical_value(scenario_kwargs, "scenario_kwargs"),
            "trajectory_kwargs": _canonical_value(
                trajectory_kwargs, "trajectory_kwargs"
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class _TaskSpec:
    """Everything a worker process needs to execute one cell."""

    task: SweepTask
    base_seed: int
    n_iterations: int
    factory: Callable
    scenario_kwargs: dict
    trajectory_kwargs: dict


def _execute_task(
    spec: _TaskSpec,
    checkpoint_every: int | None = None,
    checkpoint_sink: Callable | None = None,
    resume_from=None,
) -> CellResult:
    """Run one cell: build the world from its streams, track, summarize.

    Module-level so it pickles into worker processes; a pure function of
    the spec, which is what makes serial and parallel execution identical.
    The checkpoint parameters default to off;
    ``resume_from`` transplants a :class:`~repro.runtime.checkpoint.
    RunCheckpoint` into the freshly built world — the world construction
    itself always runs, because restore-in-place needs the configuration-
    identical object graph to transplant into.
    """
    from ..scenario import make_paper_scenario, make_trajectory
    from .options import CheckpointPolicy, RunOptions
    from .runner import run_tracking

    t0 = time.perf_counter()
    task = spec.task
    streams = task_seed_sequences(spec.base_seed, task.density, task.seed)
    world_rng = np.random.default_rng(streams["world"])
    scenario = make_paper_scenario(
        density_per_100m2=task.density, rng=world_rng, **spec.scenario_kwargs
    )
    trajectory = make_trajectory(
        n_iterations=spec.n_iterations, rng=world_rng, **spec.trajectory_kwargs
    )
    tracker = spec.factory(scenario, np.random.default_rng(streams["tracker"]))
    if checkpoint_every is not None or resume_from is not None:
        options = RunOptions(
            checkpoint=CheckpointPolicy(
                every=checkpoint_every,
                sink=checkpoint_sink,
                resume_from=resume_from,
            )
        )
    else:
        options = None
    result = run_tracking(
        tracker,
        scenario,
        trajectory,
        rng=np.random.default_rng(streams["sensing"]),
        options=options,
    )
    return CellResult(
        density=task.density,
        algorithm=task.algorithm,
        seed=task.seed,
        rmse=result.rmse,
        total_bytes=int(result.total_bytes),
        total_messages=int(result.total_messages),
        coverage=result.error.coverage,
        elapsed_s=time.perf_counter() - t0,
        tracking=result,
    )


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    factories: dict[str, Callable],
    base_seed: int = 2011,
    n_iterations: int = 10,
    scenario_kwargs: dict | None = None,
    trajectory_kwargs: dict | None = None,
    max_workers: int = 1,
    store: JsonlStore | str | Path | None = None,
    backend: str | None = None,
    checkpoint_every: int | None = None,
) -> tuple[list[CellResult], RunSummary]:
    """Execute a task list and return its cells in task order, plus timing.

    ``max_workers=1`` runs in-process (no pickling requirements on the
    factories); ``max_workers>1`` fans out over a process pool, which
    requires picklable factories (module-level functions — the default
    factories qualify).  With a ``store``, already-completed cells are
    loaded instead of recomputed, and every fresh cell is appended to the
    store the moment it finishes, so an interrupted sweep loses at most
    the cells in flight.

    ``backend`` selects the execution strategy:

    * ``None`` (default) — serial in-process when ``max_workers == 1``,
      process pool otherwise (the historical behavior);
    * ``"serial"`` — force in-process execution regardless of workers;
    * ``"process"`` — force the process pool (needs ``max_workers > 1``);
    * ``"batched"`` — in-process, building each ``(density, seed)``
      world (deployment, trajectory, sensing contexts) once and running
      every algorithm's cell on it (see :mod:`repro.experiments.lockstep`);
      any tracker family and any factory.  Bit-identical to the serial
      engine by construction.

    Every backend produces the same cells in the same task order.

    With ``checkpoint_every=n`` (requires a ``store``), every in-flight cell
    appends a mid-cell checkpoint record to the store after each ``n``-th
    completed iteration; an interrupted sweep then resumes each partial cell
    from its latest checkpoint instead of from iteration 0, bit-identical to
    the uninterrupted run.  Checkpointing executes cells in-process — the
    batched backend then runs its cells through the per-cell serial path,
    and the process pool is rejected outright.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if backend not in (None, "serial", "process", "batched"):
        raise ValueError(
            f"unknown backend {backend!r}; choose 'serial', 'process' or 'batched'"
        )
    if backend == "process" and max_workers < 2:
        raise ValueError("backend='process' needs max_workers > 1")
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if store is None:
            raise ValueError("checkpoint_every requires a store to append to")
        if backend == "process" or (backend is None and max_workers > 1):
            raise ValueError(
                "checkpoint_every requires in-process execution; use "
                "backend='serial' or 'batched' (checkpoint records stream "
                "into the store as cells run, which a process pool cannot do)"
            )
    scenario_kwargs = dict(scenario_kwargs or {})
    trajectory_kwargs = dict(trajectory_kwargs or {})
    for task in tasks:
        if task.algorithm not in factories:
            raise ValueError(f"no factory for algorithm {task.algorithm!r}")

    fingerprint = sweep_fingerprint(
        base_seed, n_iterations, scenario_kwargs, trajectory_kwargs
    )
    if store is not None and not isinstance(store, JsonlStore):
        store = JsonlStore(store)
    done = store.load(fingerprint) if store is not None else {}

    results: list[CellResult | None] = [None] * len(tasks)
    pending: list[tuple[int, _TaskSpec]] = []
    for i, task in enumerate(tasks):
        if task.key in done:
            results[i] = done[task.key]
        else:
            pending.append(
                (
                    i,
                    _TaskSpec(
                        task=task,
                        base_seed=base_seed,
                        n_iterations=n_iterations,
                        factory=factories[task.algorithm],
                        scenario_kwargs=scenario_kwargs,
                        trajectory_kwargs=trajectory_kwargs,
                    ),
                )
            )

    t0 = time.perf_counter()
    remaining = pending
    if backend == "batched" and checkpoint_every is None:
        from .lockstep import run_lockstep

        for i, cell in run_lockstep(pending):
            results[i] = cell
            if store is not None:
                store.append(cell.to_record(fingerprint))
        remaining = []
    use_pool = (
        backend != "serial"
        and checkpoint_every is None
        and max_workers > 1
        and len(remaining) > 1
    )
    n_checkpoint_resumed = 0
    if not use_pool:
        partial = (
            store.load_checkpoints(fingerprint)
            if checkpoint_every is not None
            else {}
        )
        for i, spec in remaining:
            if checkpoint_every is not None:
                task = spec.task

                def sink(cp, task=task):
                    store.append(checkpoint_record(fingerprint, task, cp))

                resume = partial.get(task.key)
                if resume is not None:
                    n_checkpoint_resumed += 1
                cell = _execute_task(
                    spec,
                    checkpoint_every=checkpoint_every,
                    checkpoint_sink=sink,
                    resume_from=resume,
                )
            else:
                cell = _execute_task(spec)
            results[i] = cell
            if store is not None:
                store.append(cell.to_record(fingerprint))
    else:
        for _, spec in remaining:
            try:
                pickle.dumps(spec)
            except Exception as exc:
                raise ValueError(
                    "parallel sweeps need picklable factories (module-level "
                    "functions); pass max_workers=1 for closure factories"
                ) from exc
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            future_to_index = {
                executor.submit(_execute_task, spec): i for i, spec in remaining
            }
            outstanding = set(future_to_index)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    cell = future.result()
                    results[future_to_index[future]] = cell
                    # persist in completion order: the store is unordered,
                    # and waiting for the whole pool would forfeit resume
                    if store is not None:
                        store.append(cell.to_record(fingerprint))
    wall_clock = time.perf_counter() - t0

    cells = [r for r in results if r is not None]
    assert len(cells) == len(tasks)
    n_resumed = sum(1 for c in cells if c.resumed)
    summary = RunSummary(
        n_tasks=len(tasks),
        n_executed=len(tasks) - n_resumed,
        n_resumed=n_resumed,
        max_workers=max_workers,
        wall_clock_s=wall_clock,
        task_time_s=float(sum(c.elapsed_s for c in cells if not c.resumed)),
        n_checkpoint_resumed=n_checkpoint_resumed,
    )
    return cells, summary

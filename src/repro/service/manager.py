"""The session manager: lifecycle, sharding, streaming, and failover.

This is the service's brain.  It owns the worker-process pool, the registry
of live sessions, every subscriber queue, and the durable checkpoint store.
The HTTP layer above it is a thin translation; the tests drive the manager
directly.

Robustness posture (all first-class, not bolted on):

* **Sharding** — sessions land on the least-loaded worker at creation and
  can migrate anywhere a :class:`~repro.runtime.checkpoint.RunCheckpoint`
  JSON can travel.
* **Failover** — a dead worker (crash, SIGTERM drill) is respawned and its
  sessions re-created from their latest checkpoint.  Re-executed iterations
  are bit-identical (the whole world is config + checkpoint deterministic),
  so failover is invisible in the final result; stream subscribers see
  at-least-once delivery around the failover point, flagged by a
  ``failover`` frame.
* **Durability** — every session checkpoints into the shared
  :class:`~repro.experiments.engine.JsonlStore` at creation and every
  ``checkpoint_every`` steps, so even a cold manager restart can re-create
  sessions via :meth:`SessionManager.resume_store_sessions`.
* **Backpressure** — subscriber queues are bounded drop-oldest
  (:class:`~repro.service.streams.SubscriberQueue`); a slow WebSocket can
  never stall stepping.
* **Load shedding** — creations past the high-water mark fail with the
  typed :class:`~repro.service.errors.CapacityError` (HTTP 503) while
  existing sessions keep running.
* **Budgets** — per-session step budgets pause runaway sessions; an idle
  reaper destroys sessions nobody has touched for ``idle_timeout_s``.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import ConfigError, loads_config
from ..experiments.engine import RECORD_SCHEMA, JsonlStore
from ..runtime.checkpoint import CheckpointError, RunCheckpoint
from .errors import (
    BadRequest,
    CapacityError,
    SessionNotFound,
    SessionStateError,
    StepBudgetExceeded,
    WorkerDied,
)
from .session import config_fingerprint
from .streams import SubscriberQueue
from .workers import WorkerHandle

__all__ = ["ServiceConfig", "SessionManager", "SessionRecord"]

#: session states a client can observe
RUNNING, PAUSED, FINISHED, FAILED = "running", "paused", "finished", "failed"


def _latest_readable(records: list, fingerprint: str) -> dict | None:
    """The last of a session's stored checkpoint records that decodes as a
    checkpoint of its config (``fingerprint``), or None."""
    for record in reversed(records):
        try:
            RunCheckpoint.from_dict(record, expect_fingerprint=fingerprint)
        except (CheckpointError, KeyError, OverflowError, TypeError, ValueError):
            continue
        return record
    return None


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance."""

    n_workers: int = 2
    #: hard session cap; the high-water mark sheds *before* this is reached
    max_sessions: int = 256
    #: load-shed threshold for new creations (defaults to 90% of the cap)
    high_water: int | None = None
    #: per-subscriber bounded queue size (drop-oldest beyond it)
    queue_size: int = 256
    #: steps between durable checkpoints (1 = every step)
    checkpoint_every: int = 5
    #: default per-session step budget (None = unlimited)
    step_budget: int | None = None
    #: destroy sessions idle this long (None = never)
    idle_timeout_s: float | None = None
    #: JSONL file for durable checkpoints (None = in-memory only)
    store_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.high_water is not None and self.high_water > self.max_sessions:
            raise ValueError("high_water cannot exceed max_sessions")

    @property
    def shed_mark(self) -> int:
        if self.high_water is not None:
            return self.high_water
        return max(1, (self.max_sessions * 9) // 10)


@dataclass
class SessionRecord:
    """Manager-side bookkeeping for one hosted session."""

    id: str
    config_toml: str
    fingerprint: str
    worker: WorkerHandle
    n_iterations: int
    next_iteration: int
    state: str = RUNNING
    steps_done: int = 0
    step_budget: int | None = None
    autorun: bool = False
    #: latest checkpoint JSON (the failover resume point)
    last_checkpoint: str | None = None
    checkpoint_iteration: int = -1
    failovers: int = 0
    total_bytes: int = 0
    total_messages: int = 0
    seq: int = 0  # stream frame sequence number
    result: dict | None = None
    subscribers: set[SubscriberQueue] = field(default_factory=set)
    last_activity: float = field(default_factory=time.monotonic)
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    autorun_task: asyncio.Task | None = None

    @property
    def done(self) -> bool:
        return self.next_iteration > self.n_iterations

    def describe(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "n_iterations": self.n_iterations,
            "next_iteration": self.next_iteration,
            "steps_done": self.steps_done,
            "step_budget": self.step_budget,
            "autorun": self.autorun,
            "failovers": self.failovers,
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "worker": self.worker.index,
            "subscribers": len(self.subscribers),
            "events_dropped": sum(q.dropped for q in self.subscribers),
        }


class SessionManager:
    """Owns workers, sessions, streams, and the durable checkpoint store."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.sessions: dict[str, SessionRecord] = {}
        self.workers: list[WorkerHandle] = []
        self.store = (
            JsonlStore(self.config.store_path)
            if self.config.store_path is not None
            else None
        )
        self.started_at = 0.0
        self.steps_total = 0
        self.sheds_total = 0
        self.failovers_total = 0
        self._recent_steps: deque[float] = deque(maxlen=4096)
        self._reaper_task: asyncio.Task | None = None
        self._failover_locks: dict[int, asyncio.Lock] = {}
        self._closed = False
        #: (session_id, config_toml, checkpoint_json) found by
        #: :meth:`resume_store_sessions` for a cold-restart re-create
        self.pending_restores: list[tuple[str, str, str]] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.started_at = time.monotonic()
        self.workers = [WorkerHandle(i) for i in range(self.config.n_workers)]
        self._failover_locks = {w.index: asyncio.Lock() for w in self.workers}
        await asyncio.gather(*(w.call("ping") for w in self.workers))
        if self.config.idle_timeout_s is not None:
            self._reaper_task = asyncio.create_task(self._reap_idle())

    async def stop(self) -> None:
        self._closed = True
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            self._reaper_task = None
        for record in list(self.sessions.values()):
            await self._cancel_autorun(record)
            for queue in list(record.subscribers):
                queue.close()
        self.sessions.clear()
        await asyncio.gather(
            *(w.shutdown() for w in self.workers), return_exceptions=True
        )
        self.workers = []

    # -- creation / destruction -------------------------------------------

    def _least_loaded_worker(self) -> WorkerHandle:
        loads = {w.index: 0 for w in self.workers if w.alive}
        if not loads:
            raise WorkerDied("no live workers")
        for record in self.sessions.values():
            if record.worker.index in loads:
                loads[record.worker.index] += 1
        index = min(loads, key=lambda i: (loads[i], i))
        return next(w for w in self.workers if w.index == index)

    async def create_session(
        self,
        config_toml: str,
        *,
        session_id: str | None = None,
        autorun: bool = False,
        step_budget: int | None = None,
        resume_from: str | None = None,
    ) -> dict:
        if self._closed:
            raise SessionStateError("the service is shutting down")
        live = sum(1 for r in self.sessions.values() if r.state in (RUNNING, PAUSED))
        if live >= self.config.shed_mark:
            self.sheds_total += 1
            raise CapacityError(
                f"{live} live sessions is at the high-water mark "
                f"({self.config.shed_mark} of {self.config.max_sessions} max); "
                "shedding new sessions — retry later"
            )
        session_id = session_id or uuid.uuid4().hex[:12]
        if session_id in self.sessions:
            raise SessionStateError(f"session {session_id!r} already exists")
        worker = self._least_loaded_worker()
        described = await worker.call(
            "create",
            session_id=session_id,
            config_toml=config_toml,
            resume_from=resume_from,
        )
        record = SessionRecord(
            id=session_id,
            config_toml=config_toml,
            fingerprint=described["fingerprint"],
            worker=worker,
            n_iterations=described["n_iterations"],
            next_iteration=described["next_iteration"],
            step_budget=(
                step_budget if step_budget is not None else self.config.step_budget
            ),
            autorun=autorun,
        )
        self.sessions[session_id] = record
        if self.store is not None and resume_from is None:
            self.store.append(
                {
                    "fingerprint": record.fingerprint,
                    "schema": RECORD_SCHEMA,
                    "kind": "service-session",
                    "session": session_id,
                    "config_toml": config_toml,
                }
            )
        # checkpoint at birth: a worker killed before the first periodic
        # snapshot must still be able to resume every session it hosted
        await self._take_checkpoint(record)
        if autorun:
            record.autorun_task = asyncio.create_task(self._autorun(record))
        return record.describe()

    async def destroy_session(self, session_id: str) -> dict:
        record = self._get(session_id)
        await self._cancel_autorun(record)
        self.sessions.pop(session_id, None)
        self._publish(record, {"type": "closed", "reason": "destroyed"})
        for queue in list(record.subscribers):
            queue.close()
        record.subscribers.clear()
        if record.worker.alive and record.state != FAILED:
            try:
                await record.worker.call("destroy", session_id=session_id)
            except (SessionNotFound, WorkerDied):
                pass
        return {"destroyed": session_id}

    # -- stepping ----------------------------------------------------------

    def _get(self, session_id: str) -> SessionRecord:
        record = self.sessions.get(session_id)
        if record is None:
            raise SessionNotFound(session_id)
        return record

    async def step_session(self, session_id: str, n: int = 1) -> list[dict]:
        """Advance ``n`` iterations (or to the end), streaming as we go."""
        if n < 1:
            raise BadRequest(f"step count must be >= 1, got {n}")
        record = self._get(session_id)
        record.last_activity = time.monotonic()
        async with record.lock:
            if record.done or record.state == FINISHED:
                raise SessionStateError(
                    f"session {session_id!r} already finished; fetch its result"
                )
            outcomes = []
            for _ in range(n):
                if record.done:
                    break
                outcomes.append(await self._step_once(record))
            return outcomes

    async def _step_once(self, record: SessionRecord) -> dict:
        """One iteration with budget enforcement and transparent failover."""
        if record.state == FINISHED or record.done:
            raise SessionStateError(f"session {record.id!r} already finished")
        if record.state == FAILED:
            raise SessionStateError(f"session {record.id!r} failed; destroy it")
        if (
            record.step_budget is not None
            and record.steps_done >= record.step_budget
        ):
            record.state = PAUSED
            raise StepBudgetExceeded(
                f"session {record.id!r} exhausted its step budget of "
                f"{record.step_budget}; raise the budget or destroy it"
            )
        payload = await self._call_with_failover(record, "step")
        record.next_iteration = payload["iteration"] + 1
        record.steps_done += 1
        record.total_bytes = payload["total_bytes"]
        record.total_messages = payload["total_messages"]
        self.steps_total += 1
        now = time.monotonic()
        self._recent_steps.append(now)
        record.last_activity = now
        for frame in payload["events"]:
            self._publish(record, frame)
        self._publish(
            record,
            {
                "type": "step",
                "iteration": payload["iteration"],
                "estimate": payload["estimate"],
                "estimate_iteration": payload["estimate_iteration"],
                "done": payload["done"],
            },
        )
        if payload["done"]:
            record.state = FINISHED
            # the final step payload carries the summary inline, so a worker
            # death after the last iteration cannot strand a finished session
            record.result = payload["result"]
            self._publish(record, {"type": "finished", "result": record.result})
        elif record.steps_done % self.config.checkpoint_every == 0:
            await self._take_checkpoint(record)
        return payload

    async def _autorun(self, record: SessionRecord) -> None:
        """Background stepping until done, paused, failed, or destroyed."""
        try:
            while record.id in self.sessions and record.state == RUNNING:
                if record.done:
                    break
                async with record.lock:
                    if record.state != RUNNING or record.done:
                        break
                    try:
                        await self._step_once(record)
                    except StepBudgetExceeded:
                        break
                await asyncio.sleep(0)  # fair scheduling across sessions
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — mark, don't crash the loop
            record.state = FAILED
            self._publish(record, {"type": "error", "message": str(exc)})

    async def _cancel_autorun(self, record: SessionRecord) -> None:
        task, record.autorun_task = record.autorun_task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    async def pause_session(self, session_id: str) -> dict:
        record = self._get(session_id)
        if record.state not in (RUNNING, PAUSED):
            raise SessionStateError(
                f"cannot pause session {session_id!r} in state {record.state}"
            )
        record.state = PAUSED
        await self._cancel_autorun(record)
        return record.describe()

    async def resume_session(
        self, session_id: str, *, step_budget: int | None = None
    ) -> dict:
        record = self._get(session_id)
        if record.state not in (RUNNING, PAUSED):
            raise SessionStateError(
                f"cannot resume session {session_id!r} in state {record.state}"
            )
        if step_budget is not None:
            record.step_budget = step_budget
        record.state = RUNNING
        record.last_activity = time.monotonic()
        if record.autorun and record.autorun_task is None:
            record.autorun_task = asyncio.create_task(self._autorun(record))
        return record.describe()

    # -- checkpoints and failover -----------------------------------------

    async def _call_with_failover(self, record: SessionRecord, op: str) -> Any:
        """Call ``op`` on the session's worker, failing over once if it died.

        The worker handle is captured *before* the call: a concurrent
        failover may swap ``record.worker`` mid-await, and passing the stale
        handle to :meth:`_failover` is what lets it detect the replacement
        and skip a redundant respawn.
        """
        worker = record.worker
        try:
            return await worker.call(op, session_id=record.id)
        except WorkerDied:
            await self._failover(worker)
            if record.state == FAILED:
                raise
            # the session is back at its last checkpoint on a fresh worker;
            # re-execution from there is bit-identical, so just call again
            return await record.worker.call(op, session_id=record.id)

    async def _take_checkpoint(self, record: SessionRecord) -> None:
        checkpoint = await self._call_with_failover(record, "checkpoint")
        record.last_checkpoint = checkpoint
        record.checkpoint_iteration = record.next_iteration - 1
        if self.store is not None:
            self.store.append(
                {
                    "fingerprint": record.fingerprint,
                    "schema": RECORD_SCHEMA,
                    "kind": "checkpoint",
                    "session": record.id,
                    "checkpoint": json.loads(checkpoint),
                }
            )

    async def checkpoint_session(self, session_id: str) -> dict:
        record = self._get(session_id)
        async with record.lock:
            if record.state == FINISHED:
                raise SessionStateError(
                    f"session {session_id!r} already finished; fetch its result"
                )
            await self._take_checkpoint(record)
        return {
            "session": session_id,
            "iteration": record.checkpoint_iteration,
            "checkpoint": json.loads(record.last_checkpoint),
        }

    async def _failover(self, worker: WorkerHandle) -> None:
        """Respawn ``worker`` and restore its sessions from checkpoints."""
        lock = self._failover_locks.setdefault(worker.index, asyncio.Lock())
        async with lock:
            current = next(
                (w for w in self.workers if w.index == worker.index), None
            )
            if current is not None and current is not worker and current.alive:
                return  # another caller already completed this failover
            self.failovers_total += 1
            replacement = WorkerHandle(worker.index)
            await replacement.call("ping")
            self.workers = [
                replacement if w.index == worker.index else w for w in self.workers
            ]
            for record in self.sessions.values():
                if record.worker is not worker:
                    continue
                record.worker = replacement
                if record.state == FINISHED:
                    continue  # result already cached; nothing left to run
                try:
                    described = await replacement.call(
                        "create",
                        session_id=record.id,
                        config_toml=record.config_toml,
                        resume_from=record.last_checkpoint,
                    )
                except Exception as exc:  # noqa: BLE001
                    record.state = FAILED
                    self._publish(
                        record, {"type": "error", "message": f"failover: {exc}"}
                    )
                    continue
                record.next_iteration = described["next_iteration"]
                record.failovers += 1
                self._publish(
                    record,
                    {
                        "type": "failover",
                        "resumed_at_iteration": record.next_iteration,
                        "worker": replacement.index,
                    },
                )

    async def result_session(self, session_id: str) -> dict:
        record = self._get(session_id)
        if record.result is not None:
            return record.result
        if not record.done:
            raise SessionStateError(
                f"session {session_id!r} is at iteration "
                f"{record.next_iteration} of {record.n_iterations}; no result yet"
            )
        record.result = await record.worker.call("result", session_id=session_id)
        return record.result

    def resume_store_sessions(self) -> list[str]:
        """Session ids recorded in the durable store, with their latest
        readable checkpoint JSON — what a cold restart re-creates sessions
        from.

        Returns pairs via :attr:`pending_restores`; callers then
        ``create_session(config_toml, session_id=..., resume_from=...)``.
        A session whose stored config no longer loads (a store written by
        an older release with a since-removed key) is left out with a
        warning naming it, and so is a malformed record (a line that is not
        a JSON object, a session record without a string id and config) or
        an undecodable line before the last (bytes that are not UTF-8,
        malformed or too deeply nested JSON), so one stale record cannot
        abort a restart.  An undecodable final line is an interrupted
        append and is skipped in silence.

        A checkpoint record that does not decode as a checkpoint of the
        session's config (malformed, another ``CHECKPOINT_VERSION``, a
        foreign fingerprint, a failed digest) is passed over for the one
        before it, as :meth:`JsonlStore.load_checkpoints` does, and a
        session left with none is skipped with a warning naming it.
        """
        if self.store is None or not Path(self.store.path).exists():
            return []
        path = self.store.path
        configs: dict[str, str] = {}
        stored: dict[str, list] = {}
        for lineno, rec, error, last in self.store.lines():
            if error is not None:
                if not last:  # a final one is an interrupted append
                    warnings.warn(
                        f"{path}:{lineno}: skipping an undecodable line ({error})",
                        stacklevel=2,
                    )
                continue
            if not isinstance(rec, dict):
                warnings.warn(
                    f"{path}:{lineno}: skipping a {type(rec).__name__} line; "
                    "store records are JSON objects",
                    stacklevel=2,
                )
                continue
            sid = rec.get("session")
            if rec.get("kind") == "service-session":
                config_toml = rec.get("config_toml")
                if not (isinstance(sid, str) and isinstance(config_toml, str)):
                    warnings.warn(
                        f"{path}:{lineno}: not restoring session {sid!r}: its "
                        "record needs a string session id and config_toml",
                        stacklevel=2,
                    )
                    continue
                configs[sid] = config_toml
            elif rec.get("kind") == "checkpoint" and isinstance(sid, str) and "checkpoint" in rec:
                stored.setdefault(sid, []).append(rec["checkpoint"])
        self.pending_restores = []
        for sid, config_toml in configs.items():
            if sid not in stored:
                continue
            try:
                fingerprint = config_fingerprint(loads_config(config_toml))
            except ConfigError as exc:
                warnings.warn(
                    f"{path}: not restoring session {sid!r}: its "
                    f"stored config no longer loads ({exc})",
                    stacklevel=2,
                )
                continue
            checkpoint = _latest_readable(stored[sid], fingerprint)
            if checkpoint is None:
                warnings.warn(
                    f"{path}: not restoring session {sid!r}: none of its "
                    f"{len(stored[sid])} stored checkpoints can be read",
                    stacklevel=2,
                )
                continue
            self.pending_restores.append((sid, config_toml, json.dumps(checkpoint)))
        return [sid for sid, _, _ in self.pending_restores]

    # -- streaming ---------------------------------------------------------

    def subscribe(self, session_id: str) -> SubscriberQueue:
        record = self._get(session_id)
        queue = SubscriberQueue(maxsize=self.config.queue_size)
        record.subscribers.add(queue)
        record.last_activity = time.monotonic()
        return queue

    def unsubscribe(self, session_id: str, queue: SubscriberQueue) -> None:
        record = self.sessions.get(session_id)
        if record is not None:
            record.subscribers.discard(queue)
        queue.close()

    def _publish(self, record: SessionRecord, frame: dict) -> None:
        record.seq += 1
        envelope = {
            "session": record.id,
            "seq": record.seq,
            "ts": time.monotonic(),
            **frame,
        }
        for queue in record.subscribers:
            queue.put(envelope)

    # -- health and metrics ------------------------------------------------

    async def _reap_idle(self) -> None:
        timeout = self.config.idle_timeout_s
        interval = max(0.05, timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session_id, record in list(self.sessions.items()):
                if record.subscribers or record.autorun_task is not None:
                    continue
                if now - record.last_activity >= timeout:
                    self._publish(record, {"type": "closed", "reason": "idle"})
                    await self.destroy_session(session_id)

    def healthz(self) -> dict:
        workers = [
            {"index": w.index, "pid": w.pid, "alive": w.alive}
            for w in self.workers
        ]
        healthy = all(w["alive"] for w in workers) and bool(workers)
        return {
            "status": "ok" if healthy else "degraded",
            "sessions": len(self.sessions),
            "workers": workers,
        }

    def metrics(self) -> dict:
        now = time.monotonic()
        recent = sum(1 for t in self._recent_steps if now - t <= 5.0)
        by_state: dict[str, int] = {}
        for record in self.sessions.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "uptime_s": (now - self.started_at) if self.started_at else 0.0,
            "sessions_live": len(self.sessions),
            "sessions_by_state": by_state,
            "steps_total": self.steps_total,
            "steps_per_sec": recent / 5.0,
            "sheds_total": self.sheds_total,
            "failovers_total": self.failovers_total,
            "bytes_total": sum(r.total_bytes for r in self.sessions.values()),
            "messages_total": sum(
                r.total_messages for r in self.sessions.values()
            ),
            "subscribers": sum(
                len(r.subscribers) for r in self.sessions.values()
            ),
            "events_dropped_total": sum(
                q.dropped
                for r in self.sessions.values()
                for q in r.subscribers
            ),
            "queue_depths": sorted(
                (
                    len(q)
                    for r in self.sessions.values()
                    for q in r.subscribers
                ),
                reverse=True,
            )[:16],
            "sessions": {
                sid: record.describe() for sid, record in self.sessions.items()
            },
        }

    def list_sessions(self) -> list[dict]:
        return [record.describe() for record in self.sessions.values()]

    def describe_session(self, session_id: str) -> dict:
        return self._get(session_id).describe()

"""SessionManager: lifecycle, sharding, budgets, shedding, and failover.

The worker pool uses real ``spawn`` processes, so these tests keep worker
counts small and share one manager per test via ``asyncio.run``.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.config import dumps_config, run_config, run_fingerprint
from repro.service import (
    CapacityError,
    ServiceConfig,
    SessionManager,
    SessionNotFound,
    SessionStateError,
    StepBudgetExceeded,
)
from repro.service.session import SessionCore

from .conftest import small_config


def run(coro):
    return asyncio.run(coro)


async def with_manager(config, body):
    manager = SessionManager(config)
    await manager.start()
    try:
        return await body(manager)
    finally:
        await manager.stop()


class TestInterleavedIsolation:
    def test_two_sessions_one_worker_bit_identical_to_serial(self):
        """The PR's core acceptance drill: identical configs, different
        seeds, stepped interleaved on ONE worker — each session's final
        fingerprint equals its serial ``run_tracking`` fingerprint."""

        async def body(manager):
            await manager.create_session(
                dumps_config(small_config(seed=5)), session_id="a"
            )
            await manager.create_session(
                dumps_config(small_config(seed=9)), session_id="b"
            )
            assert (
                manager.sessions["a"].worker is manager.sessions["b"].worker
            )
            while not (manager.sessions["a"].done and manager.sessions["b"].done):
                if not manager.sessions["a"].done:
                    await manager.step_session("a")
                if not manager.sessions["b"].done:
                    await manager.step_session("b")
            return (
                await manager.result_session("a"),
                await manager.result_session("b"),
            )

        result_a, result_b = run(
            with_manager(ServiceConfig(n_workers=1), body)
        )
        assert result_a["fingerprint"] == run_fingerprint(
            run_config(small_config(seed=5))
        )
        assert result_b["fingerprint"] == run_fingerprint(
            run_config(small_config(seed=9))
        )


class TestLifecycle:
    def test_create_step_result_destroy(self, config_toml):
        async def body(manager):
            created = await manager.create_session(config_toml, session_id="s")
            assert created["state"] == "running"
            assert created["n_iterations"] == 4
            outcomes = await manager.step_session("s", n=99)
            assert len(outcomes) == 5  # iterations 0..4, then done
            assert outcomes[-1]["done"]
            result = await manager.result_session("s")
            assert result["fingerprint"]
            with pytest.raises(SessionStateError, match="finished"):
                await manager.step_session("s")
            destroyed = await manager.destroy_session("s")
            assert destroyed == {"destroyed": "s"}
            with pytest.raises(SessionNotFound):
                manager.describe_session("s")

        run(with_manager(ServiceConfig(n_workers=1), body))

    def test_result_before_done_refused(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            with pytest.raises(SessionStateError, match="no result yet"):
                await manager.result_session("s")

        run(with_manager(ServiceConfig(n_workers=1), body))

    def test_autorun_runs_to_completion(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", autorun=True
            )
            for _ in range(200):
                if manager.sessions["s"].state == "finished":
                    break
                await asyncio.sleep(0.05)
            assert manager.sessions["s"].state == "finished"
            return await manager.result_session("s")

        result = run(with_manager(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_pause_stops_autorun_resume_restarts(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", autorun=True
            )
            await manager.pause_session("s")
            assert manager.sessions["s"].state == "paused"
            frozen = manager.sessions["s"].steps_done
            await asyncio.sleep(0.2)
            assert manager.sessions["s"].steps_done == frozen
            await manager.resume_session("s")
            for _ in range(200):
                if manager.sessions["s"].state == "finished":
                    break
                await asyncio.sleep(0.05)
            assert manager.sessions["s"].state == "finished"

        run(with_manager(ServiceConfig(n_workers=1), body))


class TestRobustness:
    def test_step_budget_pauses_the_session(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", step_budget=2
            )
            await manager.step_session("s", n=2)
            with pytest.raises(StepBudgetExceeded):
                await manager.step_session("s")
            assert manager.sessions["s"].state == "paused"
            # raising the budget via resume unblocks it
            await manager.resume_session("s", step_budget=10)
            await manager.step_session("s", n=10)
            return await manager.result_session("s")

        result = run(with_manager(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_load_shedding_past_high_water(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="a")
            await manager.create_session(config_toml, session_id="b")
            with pytest.raises(CapacityError, match="high-water"):
                await manager.create_session(config_toml, session_id="c")
            assert manager.sheds_total == 1
            # existing sessions keep working through the shed
            await manager.step_session("a")

        run(
            with_manager(
                ServiceConfig(n_workers=1, max_sessions=8, high_water=2), body
            )
        )

    def test_idle_reaper_destroys_untouched_sessions(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            for _ in range(100):
                if "s" not in manager.sessions:
                    break
                await asyncio.sleep(0.05)
            assert "s" not in manager.sessions

        run(
            with_manager(
                ServiceConfig(n_workers=1, idle_timeout_s=0.2), body
            )
        )

    def test_subscribers_hold_off_the_reaper(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            manager.subscribe("s")
            await asyncio.sleep(0.6)
            assert "s" in manager.sessions

        run(
            with_manager(
                ServiceConfig(n_workers=1, idle_timeout_s=0.2), body
            )
        )


class TestStreaming:
    def test_frames_carry_sequence_and_estimates(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=5)
            frames = []
            while len(queue):
                frames.append(await queue.get())
            return frames

        frames = run(with_manager(ServiceConfig(n_workers=1), body))
        assert [f["seq"] for f in frames] == sorted(f["seq"] for f in frames)
        types = [f["type"] for f in frames]
        assert "iteration" in types and "step" in types and "finished" in types
        json.dumps(frames)  # every frame is wire-safe

    def test_slow_subscriber_drops_oldest_not_stepping(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=5)  # >> 4 frames of capacity
            assert queue.dropped > 0
            assert len(queue) == 4
            # what remains is the newest tail of the stream
            last = None
            while len(queue):
                last = await queue.get()
            assert last["type"] == "finished"
            assert manager.metrics()["events_dropped_total"] > 0

        run(with_manager(ServiceConfig(n_workers=1, queue_size=4), body))


class TestFailover:
    def test_sigterm_worker_resumes_bit_identically(self, config_toml):
        """Kill the worker mid-run with SIGTERM; the manager respawns it,
        restores the session from its last checkpoint, and the final
        fingerprint still matches the serial run."""

        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=2)
            os.kill(manager.sessions["s"].worker.pid, signal.SIGTERM)
            await asyncio.sleep(0.3)
            await manager.step_session("s", n=99)
            frames = []
            while len(queue):
                frames.append(await queue.get())
            assert any(f["type"] == "failover" for f in frames)
            assert manager.sessions["s"].failovers == 1
            assert manager.failovers_total == 1
            return await manager.result_session("s")

        result = run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=2, queue_size=512),
                body,
            )
        )
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_unaffected_worker_sessions_survive(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="a")
            await manager.create_session(config_toml, session_id="b")
            workers = {
                manager.sessions["a"].worker.index,
                manager.sessions["b"].worker.index,
            }
            assert workers == {0, 1}  # least-loaded spread them out
            os.kill(manager.sessions["a"].worker.pid, signal.SIGTERM)
            await asyncio.sleep(0.3)
            await manager.step_session("a", n=99)
            await manager.step_session("b", n=99)
            assert manager.sessions["b"].failovers == 0
            return (
                await manager.result_session("a"),
                await manager.result_session("b"),
            )

        result_a, result_b = run(
            with_manager(ServiceConfig(n_workers=2, checkpoint_every=1), body)
        )
        serial = run_fingerprint(run_config(small_config()))
        assert result_a["fingerprint"] == serial
        assert result_b["fingerprint"] == serial


class TestDurableStore:
    def test_checkpoints_persist_and_cold_restart_resumes(
        self, config_toml, stale_config_toml, tmp_path
    ):
        store = tmp_path / "service.jsonl"

        async def first_life(manager):
            await manager.create_session(config_toml, session_id="s")
            await manager.step_session("s", n=2)

        run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                first_life,
            )
        )
        records = [
            json.loads(line) for line in store.read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert "service-session" in kinds and "checkpoint" in kinds
        # a session stored by an older release whose config carries a key
        # since removed from the schema: a cold restart skips it with a
        # warning instead of aborting
        session, checkpoint = (
            next(r for r in records if r["kind"] == kind)
            for kind in ("service-session", "checkpoint")
        )
        # ... and malformed records: a line that is not an object, a session
        # record without config_toml, a non-string config_toml
        no_config = {k: v for k, v in session.items() if k != "config_toml"}
        with store.open("a") as f:
            for record in (
                {**session, "session": "old", "config_toml": stale_config_toml},
                {**checkpoint, "session": "old"},
                [1, 2],
                {**no_config, "session": "no-config"},
                {**checkpoint, "session": "no-config"},
                {**session, "session": "int-config", "config_toml": 7},
                {**checkpoint, "session": "int-config"},
            ):
                f.write(json.dumps(record) + "\n")

        async def second_life(manager):
            with pytest.warns(UserWarning) as caught:
                restored = manager.resume_store_sessions()
            warned = " ".join(str(w.message) for w in caught)
            for name in ("'old'", "list line", "'no-config'", "'int-config'"):
                assert name in warned
            assert restored == ["s"]
            sid, toml, checkpoint = manager.pending_restores[0]
            await manager.create_session(
                toml, session_id=sid, resume_from=checkpoint
            )
            assert manager.sessions["s"].next_iteration == 2
            await manager.step_session("s", n=99)
            return await manager.result_session("s")

        result = run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                second_life,
            )
        )
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    @pytest.mark.parametrize(
        "probe",
        [b'{"kind": "checkpoint", "session": "s\xff"}', b"[" * 200_000],
        ids=["non-utf8", "too-deep"],
    )
    def test_cold_restart_skips_undecodable_lines(self, config_toml, tmp_path, probe):
        """A line that is not UTF-8 or nests deeper than the JSON parser can
        go is skipped with a warning naming it; as the final line it is an
        interrupted append and is skipped in silence.  Reading the store
        starts no worker."""
        store = tmp_path / "service.jsonl"
        session = {"kind": "service-session", "session": "s", "config_toml": config_toml}
        checkpoint = {"kind": "checkpoint", "session": "s",
                      "checkpoint": _checkpoint(config_toml, iteration=1)}
        with store.open("wb") as f:
            f.write(json.dumps(session).encode() + b"\n")
            f.write(probe + b"\n")
            f.write(json.dumps(checkpoint).encode() + b"\n")
            f.write(probe)
        manager = SessionManager(ServiceConfig(n_workers=1, store_path=store))
        with pytest.warns(UserWarning) as caught:
            assert manager.resume_store_sessions() == ["s"]
        assert [str(w.message) for w in caught] == [
            f"{store}:2: skipping an undecodable line "
            + ("(bytes that are not UTF-8)" if b"\xff" in probe else
               "(JSON nested too deeply to parse)")
        ]
        assert json.loads(manager.pending_restores[0][2]) == checkpoint["checkpoint"]

    def test_cold_restart_takes_the_latest_readable_checkpoint(self, config_toml, tmp_path):
        """Checkpoint records that cannot be restored (a zeroed digest,
        another ``CHECKPOINT_VERSION``, another config's fingerprint, not a
        checkpoint at all) are passed over for the one before them; a
        session with none left is skipped with a warning naming it, and the
        other sessions are still restored."""
        store = tmp_path / "service.jsonl"
        good = [_checkpoint(config_toml, iteration=k) for k in (1, 2)]
        last = _checkpoint(config_toml, iteration=3)
        zeroed = {**last, "digest": "0" * 64}
        foreign = {**last, "fingerprint": "f" * 64}
        newer = {**last, "version": 99}
        records = [
            {"kind": "service-session", "session": "a", "config_toml": config_toml},
            {"kind": "service-session", "session": "b", "config_toml": config_toml},
            *({"kind": "checkpoint", "session": "a", "checkpoint": c}
              for c in (*good, zeroed, foreign, newer, [1], "x")),
            {"kind": "checkpoint", "session": "b", "checkpoint": zeroed},
            {"kind": "checkpoint", "session": "b", "checkpoint": newer},
        ]
        store.write_text("".join(json.dumps(r) + "\n" for r in records))
        manager = SessionManager(ServiceConfig(n_workers=1, store_path=store))
        with pytest.warns(UserWarning) as caught:
            assert manager.resume_store_sessions() == ["a"]
        assert [str(w.message) for w in caught] == [
            f"{store}: not restoring session 'b': none of its 2 stored "
            "checkpoints can be read"
        ]
        (sid, toml, checkpoint), = manager.pending_restores
        assert json.loads(checkpoint) == good[-1]

        async def body(live):
            await live.create_session(toml, session_id=sid, resume_from=checkpoint)
            return live.sessions[sid].next_iteration

        # the restored session resumes from the readable checkpoint
        assert run(with_manager(ServiceConfig(n_workers=1), body)) == 2


def _checkpoint(config_toml, *, iteration):
    """The stored form of the checkpoint a session run from ``config_toml``
    takes after ``iteration`` steps."""
    core = SessionCore(config_toml)
    for _ in range(iteration):
        core.step()
    return json.loads(core.checkpoint())

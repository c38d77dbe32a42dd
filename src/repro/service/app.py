"""The tracking service: HTTP + WebSocket routes over a SessionManager.

Routes (all request/response bodies are JSON):

==========================================  ==========================================
``GET  /healthz``                           liveness + per-worker status
``GET  /metrics``                           sessions live, steps/sec, ledgers, queues
``POST /sessions``                          create (``config_toml`` or ``config`` dict;
                                            optional ``session_id``, ``autorun``,
                                            ``step_budget``)
``GET  /sessions``                          list live sessions
``GET  /sessions/{id}``                     one session's state
``DELETE /sessions/{id}``                   destroy
``POST /sessions/{id}/step``                advance (``{"n": k}``, default 1)
``POST /sessions/{id}/pause``               pause (stops autorun)
``POST /sessions/{id}/resume``              resume (optional new ``step_budget``)
``POST /sessions/{id}/checkpoint``          snapshot now; returns the checkpoint
``GET  /sessions/{id}/result``              final summary incl. run fingerprint
``GET  /sessions/{id}/stream``              WebSocket: iteration/phase/step frames
==========================================  ==========================================

Every stream frame carries ``session``, a per-session ``seq``, and a
monotonic ``ts``; slow consumers lose oldest-first (``seq`` gaps make the
loss visible) rather than stalling the stepping path.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from ..config import ConfigError, ScenarioConfig, dumps_config
from .errors import BadRequest, ServiceError, SessionNotFound
from .http import (
    HttpError,
    Request,
    json_response,
    read_request,
    ws_handshake_response,
    ws_recv,
    ws_send_close,
    ws_send_text,
)
from .manager import ServiceConfig, SessionManager
from .streams import QueueClosed

__all__ = ["TrackingService", "serve"]


def _int_field(body: dict, name: str, default: int | None = None) -> int | None:
    """An optional integer field of a request body; anything else is a 400."""
    value = body.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    return value


class TrackingService:
    """One service instance: a manager plus its asyncio socket server."""

    def __init__(self, config: ServiceConfig | None = None):
        self.manager = SessionManager(config)
        self.server: asyncio.base_events.Server | None = None
        self.host = ""
        self.port = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await self.manager.start()
        self.server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self.server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        await self.manager.stop()

    # -- connection handling ----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(json_response(exc.status, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            if request.wants_websocket:
                await self._handle_stream(request, reader, writer)
                return
            status, payload = await self._route(request)
            writer.write(json_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: Request) -> tuple[int, Any]:
        try:
            return 200, await self._dispatch(request)
        except HttpError as exc:
            return exc.status, {"error": str(exc)}
        except ServiceError as exc:
            return exc.status, {"error": str(exc), "code": exc.code}
        except Exception as exc:  # noqa: BLE001 — a route bug must not kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}", "code": "internal"}

    async def _dispatch(self, request: Request) -> Any:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        manager = self.manager
        if parts == ["healthz"] and method == "GET":
            return manager.healthz()
        if parts == ["metrics"] and method == "GET":
            return manager.metrics()
        if parts == ["sessions"]:
            if method == "GET":
                return {"sessions": manager.list_sessions()}
            if method == "POST":
                return await self._create(request.json())
            raise HttpError(405, f"{method} not allowed on /sessions")
        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                raise HttpError(404, f"no route {path}")
            if action is None:
                if method == "GET":
                    return manager.describe_session(session_id)
                if method == "DELETE":
                    return await manager.destroy_session(session_id)
                raise HttpError(405, f"{method} not allowed on a session")
            if action == "step" and method == "POST":
                outcomes = await manager.step_session(
                    session_id, n=_int_field(request.json(), "n", 1)
                )
                return {
                    "stepped": len(outcomes),
                    "outcomes": [
                        {k: v for k, v in o.items() if k != "events"}
                        for o in outcomes
                    ],
                    "session": manager.describe_session(session_id),
                }
            if action == "pause" and method == "POST":
                return await manager.pause_session(session_id)
            if action == "resume" and method == "POST":
                return await manager.resume_session(
                    session_id,
                    step_budget=_int_field(request.json(), "step_budget"),
                )
            if action == "checkpoint" and method == "POST":
                return await manager.checkpoint_session(session_id)
            if action == "result" and method == "GET":
                return await manager.result_session(session_id)
            raise HttpError(404, f"no route {method} {path}")
        raise HttpError(404, f"no route {method} {path}")

    async def _create(self, body: dict) -> dict:
        if "config_toml" in body:
            config_toml = body["config_toml"]
            if not isinstance(config_toml, str):
                raise BadRequest("config_toml must be a TOML string")
        elif "config" in body:
            if not isinstance(body["config"], dict):
                raise BadRequest("config must be a table of config sections")
            try:
                config_toml = dumps_config(ScenarioConfig.from_dict(body["config"]))
            except ConfigError as exc:
                raise BadRequest(f"invalid session config: {exc}") from None
        else:
            raise BadRequest(
                "session creation needs config_toml (TOML text) or config (dict)"
            )
        return await self.manager.create_session(
            config_toml,
            session_id=body.get("session_id"),
            autorun=bool(body.get("autorun", False)),
            step_budget=_int_field(body, "step_budget"),
        )

    # -- the WebSocket stream ---------------------------------------------

    async def _handle_stream(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "sessions" or parts[2] != "stream":
            writer.write(
                json_response(404, {"error": f"no stream at {request.path}"})
            )
            await writer.drain()
            return
        session_id = parts[1]
        try:
            queue = self.manager.subscribe(session_id)
        except SessionNotFound as exc:
            writer.write(json_response(404, {"error": str(exc)}))
            await writer.drain()
            return
        writer.write(ws_handshake_response(request))
        await writer.drain()
        closer = asyncio.create_task(ws_recv(reader, writer))
        try:
            while True:
                getter = asyncio.create_task(queue.get())
                done, _ = await asyncio.wait(
                    {getter, closer}, return_when=asyncio.FIRST_COMPLETED
                )
                if closer in done:
                    getter.cancel()
                    break  # client spoke or disconnected: either way, done
                try:
                    frame = getter.result()
                except QueueClosed:
                    await ws_send_close(writer)
                    break
                await ws_send_text(writer, json.dumps(frame))
        except (ConnectionError, RuntimeError):
            pass
        finally:
            closer.cancel()
            self.manager.unsubscribe(session_id, queue)


async def serve(
    host: str = "127.0.0.1",
    port: int = 8750,
    config: ServiceConfig | None = None,
) -> TrackingService:
    """Start a service and return it (caller owns the lifetime)."""
    service = TrackingService(config)
    await service.start(host, port)
    return service

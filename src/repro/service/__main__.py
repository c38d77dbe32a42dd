"""``python -m repro.service``: run a tracking service until SIGINT/SIGTERM."""

from __future__ import annotations

import argparse
import asyncio
import signal
import warnings

from .app import TrackingService
from .errors import ServiceError
from .manager import ServiceConfig


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Tracking-as-a-service: host concurrent tracking sessions "
        "behind an HTTP + WebSocket API.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-sessions", type=int, default=256)
    parser.add_argument("--checkpoint-every", type=int, default=5,
                        help="steps between durable checkpoints")
    parser.add_argument("--step-budget", type=int, default=None,
                        help="default per-session step budget")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="destroy sessions idle this many seconds")
    parser.add_argument("--store", default=None,
                        help="JSONL checkpoint store path (enables durable "
                        "failover and cold-restart resume)")
    return parser.parse_args(argv)


async def _run(args: argparse.Namespace) -> None:
    service = TrackingService(
        ServiceConfig(
            n_workers=args.workers,
            max_sessions=args.max_sessions,
            checkpoint_every=args.checkpoint_every,
            step_budget=args.step_budget,
            idle_timeout_s=args.idle_timeout,
            store_path=args.store,
        )
    )
    await service.start(args.host, args.port)
    if args.store:
        service.manager.resume_store_sessions()
        for sid, config_toml, checkpoint in list(service.manager.pending_restores):
            try:
                await service.manager.create_session(
                    config_toml, session_id=sid, resume_from=checkpoint
                )
            except ServiceError as exc:
                # one session that cannot be restored must not cost the rest
                warnings.warn(f"not restoring session {sid!r}: {exc}", stacklevel=1)
    print(f"repro.service listening on http://{service.host}:{service.port}",
          flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await service.stop()


def main(argv: list[str] | None = None) -> None:
    args = _parse_args(argv)
    asyncio.run(_run(args))


if __name__ == "__main__":
    main()

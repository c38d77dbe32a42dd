"""Merge per-run ``BENCH_*.json`` artifacts into one ``BENCH_history.json``.

Every bench job emits a standalone ``benchmarks/results/BENCH_<name>.json``
snapshot; this tool folds a directory of them into a single history file so
the perf trajectory across commits is a series instead of a pile of
disconnected artifacts::

    python benchmarks/collect_bench.py --sha "$GITHUB_SHA" \
        --results benchmarks/results --history BENCH_history.json

History layout — one series per bench, keyed by git SHA::

    {
      "benches": {
        "cells": [{"sha": "abc123", "payload": {...BENCH_cells.json...}}, ...],
        "sweep": [{"sha": "abc123", "payload": {...}}, ...]
      }
    }

Re-collecting the same SHA replaces that SHA's entry in place (a re-run CI
job updates its own point instead of duplicating it); distinct SHAs append
in collection order.  The history file itself is skipped when it lives in
the scanned directory.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

__all__ = ["collect", "main"]

HISTORY_NAME = "BENCH_history.json"


def _bench_name(path: Path) -> str:
    """``BENCH_cells.json`` -> ``cells``."""
    return path.stem[len("BENCH_"):]


def collect(results_dir: Path, history_path: Path, sha: str) -> dict:
    """Fold every ``BENCH_*.json`` under ``results_dir`` into the history.

    Reads the existing history (if any), upserts one ``{sha, payload}``
    point per bench found, writes the file back, and returns the history
    dict.  Unparseable snapshot files raise — a corrupt artifact should
    fail the collection step loudly, not silently thin the series.
    """
    results_dir = Path(results_dir)
    history_path = Path(history_path)
    if history_path.exists():
        history = json.loads(history_path.read_text())
    else:
        history = {"benches": {}}
    benches: dict[str, list] = history.setdefault("benches", {})

    snapshots = sorted(
        p
        for p in results_dir.glob("BENCH_*.json")
        if p.name != HISTORY_NAME and p.resolve() != history_path.resolve()
    )
    for snap in snapshots:
        payload = json.loads(snap.read_text())
        series = benches.setdefault(_bench_name(snap), [])
        point = {"sha": sha, "payload": payload}
        for i, existing in enumerate(series):
            if existing.get("sha") == sha:
                series[i] = point
                break
        else:
            series.append(point)

    history_path.parent.mkdir(parents=True, exist_ok=True)
    history_path.write_text(json.dumps(history, indent=2) + "\n")
    return history


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sha", required=True, help="git SHA to key this run's points")
    parser.add_argument(
        "--results",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding BENCH_*.json snapshots",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).parent / "results" / HISTORY_NAME,
        help="history file to create or extend",
    )
    args = parser.parse_args(argv)
    history = collect(args.results, args.history, args.sha)
    n_points = sum(len(s) for s in history["benches"].values())
    print(
        f"collected {len(history['benches'])} bench series "
        f"({n_points} points) into {args.history}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

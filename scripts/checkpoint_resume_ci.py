#!/usr/bin/env python
"""CI gate: kill a real sweep mid-flight, resume it, demand bit-identity.

Unlike the in-process tests (which simulate interruption by raising between
store appends), this drives the real failure mode end to end:

1. spawn a child process running a checkpointed `density_sweep` into a
   JSONL store;
2. watch the store file grow and SIGTERM the child after N lines — mid
   sweep, mid cell, with checkpoints already on disk.  The child stops
   right after writing its N-th record and waits for the signal, so the
   kill lands at the same record however fast the host runs the sweep;
3. resume the sweep in *this* process from the same store;
4. run the identical sweep uninterrupted (no store) and diff a digest over
   every per-cell value of both results.

Exits non-zero (with a diff report) on any mismatch — the checkpoint layer
must make interruption invisible.

Usage: python scripts/checkpoint_resume_ci.py [--kill-after-lines N]
Needs PYTHONPATH=src (or an installed package), like the test suite.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# one compact but non-trivial grid: two densities x two seeds x CDPF,
# long enough (8 iterations) that checkpoints land mid-cell
SWEEP = dict(
    densities=(5, 10),
    n_seeds=2,
    n_iterations=8,
    scenario_kwargs={"width": 80.0, "height": 60.0},
    trajectory_kwargs={"start": (5.0, 30.0)},
)
CHECKPOINT_EVERY = 2

CHILD_CODE = """
import json, signal, sys
from repro.experiments import engine
from repro.experiments.sweep import default_tracker_factories, density_sweep

spec = json.loads(sys.argv[1])
spec["densities"] = tuple(spec["densities"])
spec["trajectory_kwargs"]["start"] = tuple(spec["trajectory_kwargs"]["start"])
stop_after = int(sys.argv[4])
append = engine.JsonlStore.append
written = 0


def append_then_wait(store, record):
    # write the record, and after the stop_after-th one wait for the
    # parent's SIGTERM: the sweep is interrupted at a fixed record
    global written
    append(store, record)
    written += 1
    while written == stop_after:
        signal.pause()


engine.JsonlStore.append = append_then_wait
density_sweep(
    factories={"CDPF": default_tracker_factories()["CDPF"]},
    store=sys.argv[2],
    checkpoint_every=int(sys.argv[3]),
    **spec,
)
print("UNINTERRUPTED", flush=True)
"""


def run_sweep_here(store=None):
    from repro.experiments.sweep import default_tracker_factories, density_sweep

    kwargs = dict(SWEEP)
    if store is not None:
        kwargs.update(store=store, checkpoint_every=CHECKPOINT_EVERY)
    return density_sweep(
        factories={"CDPF": default_tracker_factories()["CDPF"]}, **kwargs
    )


def sweep_digest(sweep):
    """SHA-256 over every per-cell value of every point, in key order."""
    h = hashlib.sha256()
    for key in sorted(sweep.points):
        pt = sweep.points[key]
        h.update(repr(key).encode())
        for series in (pt.rmse_runs, pt.bytes_runs, pt.messages_runs, pt.coverage_runs):
            h.update(json.dumps(series).encode())
    return h.hexdigest()


def interrupt_child(store_path, kill_after_lines, timeout=300.0):
    """Run the sweep in a subprocess; SIGTERM it once the store has grown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_CODE,
         json.dumps(SWEEP), str(store_path), str(CHECKPOINT_EVERY), str(kill_after_lines)],
        env=env, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if child.poll() is not None:
            out, err = child.communicate()
            sys.stderr.write(err.decode())
            raise SystemExit(
                "child finished before reaching the kill threshold "
                f"({kill_after_lines} store lines) — nothing was interrupted; "
                "lower --kill-after-lines"
            )
        try:
            n_lines = sum(1 for _ in open(store_path))
        except FileNotFoundError:
            n_lines = 0
        if n_lines >= kill_after_lines:
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=60)
            return n_lines
        time.sleep(0.05)
    child.kill()
    raise SystemExit("timed out waiting for the child sweep to write the store")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kill-after-lines", type=int, default=7,
        help="the child stops after writing this many JSONL records "
             "(checkpoints + results) and is SIGTERMed there; default 7 of "
             "the 20 this sweep writes, mid-way through its second cell",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(REPO / "src"))

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "sweep.jsonl"

        print("reference: uninterrupted sweep (no store) ...", flush=True)
        reference = run_sweep_here()
        ref_digest = sweep_digest(reference)

        print(f"child sweep: killing after {args.kill_after_lines} store lines ...",
              flush=True)
        n_at_kill = interrupt_child(store, args.kill_after_lines)
        records = [json.loads(l) for l in store.read_text().splitlines()]
        kinds = [r.get("kind", "result") for r in records]
        print(f"  killed with {n_at_kill} lines on disk: "
              f"{kinds.count('checkpoint')} checkpoints, "
              f"{kinds.count('result')} results", flush=True)
        if kinds.count("result") >= 4:
            raise SystemExit("child finished every cell before the kill — "
                             "nothing was actually interrupted")

        print("resuming from the interrupted store ...", flush=True)
        resumed = run_sweep_here(store=store)
        res_digest = sweep_digest(resumed)
        summary = resumed.run_summary
        print(f"  resumed {summary.n_resumed} cells from the store, "
              f"executed {summary.n_executed}", flush=True)

        print(f"reference digest: {ref_digest}")
        print(f"resumed digest:   {res_digest}")
        if res_digest != ref_digest:
            for key in sorted(reference.points):
                a, b = reference.points[key], resumed.points[key]
                if (a.rmse_runs, a.bytes_runs) != (b.rmse_runs, b.bytes_runs):
                    print(f"MISMATCH at {key}:")
                    print(f"  reference rmse={a.rmse_runs} bytes={a.bytes_runs}")
                    print(f"  resumed   rmse={b.rmse_runs} bytes={b.bytes_runs}")
            raise SystemExit("resumed sweep diverged from the uninterrupted run")
        print("OK: interrupted + resumed sweep is bit-identical to the reference")


if __name__ == "__main__":
    main()

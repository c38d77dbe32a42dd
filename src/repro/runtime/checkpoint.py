"""Checkpointable run state: the snapshot/restore protocol and its codec.

Every stateful layer of a tracking run — trackers (particle clouds, estimate
history, per-node RNG streams), the network plane (delayed copies,
failure/sleep sets, the SoA cost ledgers; link models draw keyed randomness
and carry only their type), and the runner itself
(iteration cursor, filed estimates, sensing RNG) — implements one tiny
protocol::

    class Checkpointable(Protocol):
        def snapshot(self) -> dict: ...
        def restore(self, state: dict) -> None: ...

``snapshot`` returns a plain tree of Python/numpy values describing the
object's *mutable* state only; static configuration (radii, node positions at
construction, tracker knobs) is deliberately excluded because restore happens
**in place** into a freshly constructed, configuration-identical object — the
same world the run was built from (rebuilt from its config, sweep spec, or
seed streams).  That split keeps snapshots small and makes restore a pure
state transplant that cannot silently change the experiment.

Checkpoints are taken at **iteration boundaries** (after iteration ``k``
completes).  At a boundary the per-iteration scratch is dead by construction:
``IterationState`` is rebuilt from scratch each step and never stored, the
accounting ``phase_stack`` is empty, and the medium's per-iteration link
nonces refer only to already-finished iterations — so none of it is carried.

On top of the protocol, :class:`RunCheckpoint` is the transportable container:
a versioned, fingerprinted, integrity-digested JSON codec that round-trips
numpy arrays bit-exactly (raw dtype bytes in base64, never decimal text) and
Python floats exactly (JSON's shortest-round-trip ``repr``).  A checkpoint
serialized, stored in a JSONL sweep store, reloaded in a different process
and restored into a fresh world continues bit-identically to the
uninterrupted run — the contract pinned by ``tests/runtime/`` and the
``checkpoint_transparency`` fuzz oracle.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointable",
    "CheckpointError",
    "RunCheckpoint",
    "decode_state",
    "encode_state",
    "restore_rng",
    "snapshot_rng",
]

#: Version of the checkpoint payload schema.  Bumped whenever any layer's
#: snapshot layout changes incompatibly; loading a checkpoint with a
#: different version raises :class:`CheckpointError` (never a silent
#: best-effort restore).
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint cannot be encoded, decoded, or safely restored."""


@runtime_checkable
class Checkpointable(Protocol):
    """The two-method contract every stateful layer implements.

    ``snapshot`` must be side-effect free (taking one mid-run changes
    nothing about the rest of the run) and must return only plain
    Python/numpy values that :func:`encode_state` accepts.  ``restore``
    transplants that state into an object built with the *same* static
    configuration; it never reconfigures the receiver.
    """

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None: ...


# ---------------------------------------------------------------------------
# the exact state codec: python/numpy trees <-> JSON-safe trees
# ---------------------------------------------------------------------------

#: tags that mark encoded containers; a plain dict that happens to use such a
#: key is escaped through the ``__dict__`` pair form instead
_TAGS = ("__ndarray__", "__bytes__", "__tuple__", "__set__", "__dict__")


def encode_state(value):
    """Lower a snapshot tree to JSON-serializable form, bit-exactly.

    * ``ndarray`` → raw C-order bytes in base64 plus dtype string and shape
      (never decimal text, so every float round-trips to the same bits);
    * numpy scalars collapse to their Python equivalents (exact for the
      int64/float64/bool values snapshots contain);
    * tuples, sets and bytes get tagged wrappers; sets are serialized in
      sorted-repr order so equal sets encode identically;
    * dicts with non-string keys (or keys colliding with a tag) become
      explicit key/value pair lists.

    Values with no exact encoding raise :class:`CheckpointError` — a
    snapshot that cannot round-trip must fail at save time, not at resume.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return encode_state(value.item())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {
            "__ndarray__": base64.b64encode(arr.tobytes()).decode("ascii"),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_state(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"__set__": [encode_state(v) for v in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [encode_state(v) for v in value]
    if isinstance(value, dict):
        plain = all(isinstance(k, str) for k in value) and not any(
            k in _TAGS for k in value
        )
        if plain:
            return {k: encode_state(v) for k, v in value.items()}
        return {
            "__dict__": [
                [encode_state(k), encode_state(v)] for k, v in value.items()
            ]
        }
    raise CheckpointError(
        f"cannot encode a {type(value).__name__} ({value!r}) into a "
        "checkpoint; snapshots must contain only plain Python/numpy values"
    )


def decode_state(value):
    """Invert :func:`encode_state`; arrays come back writable and C-ordered."""
    if isinstance(value, list):
        return [decode_state(v) for v in value]
    if isinstance(value, dict):
        if "__ndarray__" in value:
            raw = base64.b64decode(value["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(tuple(value["shape"])).copy()
        if "__bytes__" in value:
            return base64.b64decode(value["__bytes__"])
        if "__tuple__" in value:
            return tuple(decode_state(v) for v in value["__tuple__"])
        if "__set__" in value:
            return set(decode_state(v) for v in value["__set__"])
        if "__dict__" in value:
            return {
                decode_state(k): decode_state(v) for k, v in value["__dict__"]
            }
        return {k: decode_state(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# RNG streams: Generator state round-trips via the bit generator
# ---------------------------------------------------------------------------


def snapshot_rng(rng: np.random.Generator) -> dict:
    """The full state of ``rng``'s bit generator (PCG64: two 128-bit ints
    plus the cached-uint32 pair), exactly as numpy exposes it.  Restoring it
    reproduces the draw sequence bit for bit from the capture point."""
    return copy.deepcopy(rng.bit_generator.state)


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Transplant a captured bit-generator state into ``rng``."""
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"cannot restore RNG state into a "
            f"{type(rng.bit_generator).__name__} bit generator: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# the transportable container
# ---------------------------------------------------------------------------


@dataclass
class RunCheckpoint:
    """One run's complete mutable state at an iteration boundary.

    ``iteration`` is the last *completed* iteration; resuming executes
    ``iteration + 1`` onward.  ``fingerprint`` ties the checkpoint to the
    world it was taken in (a sweep fingerprint, config fingerprint, or any
    caller-chosen identity); loading with a different expected fingerprint
    refuses rather than restoring state into the wrong experiment.  The
    serialized form carries a SHA-256 digest of the canonical payload, so a
    truncated or hand-edited checkpoint fails loudly at load time.
    """

    iteration: int
    payload: dict
    fingerprint: str = ""
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> dict:
        """JSON-safe dict form (payload encoded, digest included)."""
        encoded = encode_state(self.payload)
        blob = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
        return {
            "version": int(self.version),
            "fingerprint": self.fingerprint,
            "iteration": int(self.iteration),
            "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
            "payload": encoded,
        }

    @classmethod
    def from_dict(
        cls, record: dict, *, expect_fingerprint: str | None = None
    ) -> "RunCheckpoint":
        try:
            version = int(record["version"])
            fingerprint = str(record["fingerprint"])
            iteration = int(record["iteration"])
            digest = str(record["digest"])
            encoded = record["payload"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint record: {exc!r}"
            ) from exc
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} does not match this codec "
                f"(version {CHECKPOINT_VERSION}); refusing a best-effort "
                "restore across incompatible snapshot layouts"
            )
        if expect_fingerprint is not None and fingerprint != expect_fingerprint:
            raise CheckpointError(
                f"checkpoint fingerprint {fingerprint!r} does not match the "
                f"expected {expect_fingerprint!r}; this checkpoint belongs "
                "to a different run configuration"
            )
        blob = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
        actual = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if actual != digest:
            raise CheckpointError(
                "checkpoint payload digest mismatch — the stored state is "
                "corrupt or was modified after it was written"
            )
        return cls(
            iteration=iteration,
            payload=decode_state(encoded),
            fingerprint=fingerprint,
            version=version,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(
        cls, text: str, *, expect_fingerprint: str | None = None
    ) -> "RunCheckpoint":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint is not valid JSON: {exc.msg}"
            ) from exc
        if not isinstance(record, dict):
            raise CheckpointError(
                f"checkpoint must be a JSON object, got {type(record).__name__}"
            )
        return cls.from_dict(record, expect_fingerprint=expect_fingerprint)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(
        cls, path: str | Path, *, expect_fingerprint: str | None = None
    ) -> "RunCheckpoint":
        return cls.from_json(
            Path(path).read_text(encoding="utf-8"),
            expect_fingerprint=expect_fingerprint,
        )

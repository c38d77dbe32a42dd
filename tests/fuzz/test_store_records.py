"""Resume stores under mutation: a load, a warning or a ``StoreLoadError``.

Two kinds of store are mutated from valid files:

* a sweep ``JsonlStore`` holding mid-cell checkpoints and completed cells,
  read back by ``JsonlStore.load`` and ``JsonlStore.load_checkpoints``;
* a service store holding session records and their checkpoints, read back
  by ``SessionManager.resume_store_sessions`` (a cold restart).

Mutations: truncation, junk and non-UTF-8 lines, dropped and duplicated
lines, wrong field types, ``NaN``/``Infinity`` tokens, foreign
fingerprints and corrupt checkpoint digests, one to three per example.

Oracle (EXPERIMENTS.md, "Resume stores"): a sweep store loads, warns with
a ``UserWarning`` or raises ``StoreLoadError``; a service store never
raises.  No other exception and no other warning category, each call within
``TIME_BOUND_S``.  What a cold restart restores must be what its worker can
restore: every pending checkpoint decodes against its session's config
fingerprint, as the latest such record of that session.
"""

import json
import time
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import dumps_config, loads_config
from repro.experiments.engine import (
    RECORD_SCHEMA,
    CellResult,
    JsonlStore,
    StoreLoadError,
    expand_tasks,
    run_sweep,
)
from repro.factory import tracker_factory
from repro.runtime.checkpoint import RunCheckpoint
from repro.service import ServiceConfig, SessionManager
from repro.service.session import SessionCore, config_fingerprint

from ..service.conftest import small_config

#: wall-clock bound on one load of a mutated store (the valid ones load in
#: milliseconds)
TIME_BOUND_S = 10.0


@pytest.fixture(scope="module")
def sweep_lines(tmp_path_factory):
    """A valid sweep store: two cells with a checkpoint every iteration."""
    path = tmp_path_factory.mktemp("sweep") / "store.jsonl"
    run_sweep(
        expand_tasks([5.0], ["CDPF", "SDPF"], 1),
        factories={name: tracker_factory(name) for name in ("CDPF", "SDPF")},
        n_iterations=3,
        store=path,
        checkpoint_every=1,
    )
    return path.read_bytes().splitlines()


@pytest.fixture(scope="module")
def service_lines():
    """A valid service store: two sessions, each with two checkpoints, in
    the records ``SessionManager`` appends."""
    lines = []
    for sid, seed in (("a", 5), ("b", 9)):
        toml = dumps_config(small_config(seed=seed))
        core = SessionCore(toml)
        lines.append({"fingerprint": core.fingerprint, "schema": RECORD_SCHEMA,
                      "kind": "service-session", "session": sid, "config_toml": toml})
        for _ in range(2):
            core.step()
            lines.append({"fingerprint": core.fingerprint, "schema": RECORD_SCHEMA,
                          "kind": "checkpoint", "session": sid,
                          "checkpoint": json.loads(core.checkpoint())})
    return [json.dumps(r).encode() for r in lines]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _fields(record, path=()):
    """Paths to every field of ``record``, descending into the checkpoint
    envelope (not into the encoded payload)."""
    for key, value in record.items():
        yield path + (key,)
        if key == "checkpoint" and isinstance(value, dict):
            yield from _fields(value, path + (key,))


def _set(record, path, value):
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value


@st.composite
def _mutation(draw, lines):
    """One mutated copy of ``lines`` (a list of byte strings)."""
    lines = list(lines)
    kind = draw(st.sampled_from(
        ["truncate", "junk", "non-utf8", "drop", "duplicate", "retype", "nonfinite",
         "foreign", "digest"]
    ))
    at = draw(st.integers(0, len(lines) - 1)) if lines else 0
    if kind == "truncate":
        blob = b"\n".join(lines)
        return blob[: draw(st.integers(0, len(blob)))].split(b"\n")
    if kind == "junk":
        junk = draw(st.binary(min_size=1, max_size=40))
        for sep in b"\n\r\x0b\x0c\x1c\x1d\x1e":  # str.splitlines' one-byte breaks
            junk = junk.replace(bytes([sep]), b" ")
        lines.insert(at, junk)
        return lines
    if kind == "non-utf8":
        lines.insert(at, b'{"kind": "checkpoint", "session": "a\xff\xfe"}')
        return lines
    if not lines:
        return lines
    if kind == "drop":
        del lines[at]
        return lines
    if kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
        return lines
    record = _decode(lines[at])
    if not isinstance(record, dict):
        return lines
    fields = list(_fields(record))
    if kind == "retype" and fields:
        _set(record, draw(st.sampled_from(fields)), draw(_JSON_VALUES))
    elif kind == "nonfinite" and fields:
        _set(record, draw(st.sampled_from(fields)),
             draw(st.sampled_from([float("nan"), float("inf"), float("-inf")])))
    elif kind == "foreign":
        record["fingerprint"] = draw(st.sampled_from(["0" * 16, "f" * 64, ""]))
    elif kind == "digest" and isinstance(record.get("checkpoint"), dict):
        digest = str(record["checkpoint"].get("digest", ""))
        pos = draw(st.integers(0, max(len(digest) - 1, 0)))
        record["checkpoint"]["digest"] = digest[:pos] + "0" + digest[pos + 1:]
        if record["checkpoint"]["digest"] == digest:
            record["checkpoint"]["digest"] = "1" + digest[1:]
    lines[at] = json.dumps(record).encode()
    return lines


@st.composite
def _mutated(draw, lines):
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(_mutation(lines))
    return lines


def _decode(line: bytes):
    """A store line's JSON value, or None where the store finds none."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return None


def _call(fn, *args):
    """``fn(*args)`` with every warning it raised; fails past the bound."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            assert time.perf_counter() - start < TIME_BOUND_S
    for w in caught:
        assert issubclass(w.category, UserWarning), f"{w.category.__name__}: {w.message}"
    return result


@given(data=st.data())
def test_sweep_store_loads_warns_or_refuses(sweep_lines, tmp_path_factory, data):
    fingerprint = json.loads(sweep_lines[0])["fingerprint"]
    lines = data.draw(_mutated(sweep_lines))
    path = tmp_path_factory.mktemp("mutated") / "store.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    store = JsonlStore(path)
    try:
        cells = _call(store.load, fingerprint)
    except StoreLoadError:
        pass
    else:
        assert all(isinstance(cell, CellResult) for cell in cells.values())
    try:
        checkpoints = _call(store.load_checkpoints, fingerprint)
    except StoreLoadError:
        return
    assert all(isinstance(cp, RunCheckpoint) for cp in checkpoints.values())


def _readable(record, fingerprint) -> bool:
    try:
        RunCheckpoint.from_dict(record, expect_fingerprint=fingerprint)
    except Exception:  # noqa: BLE001 - the reference's whole question
        return False
    return True


@given(data=st.data())
def test_service_cold_restart_skips_what_it_cannot_restore(service_lines, tmp_path_factory, data):
    lines = data.draw(_mutated(service_lines))
    path = tmp_path_factory.mktemp("mutated") / "service.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    manager = SessionManager(ServiceConfig(n_workers=1, store_path=path))
    restored = _call(manager.resume_store_sessions)
    assert restored == [sid for sid, _, _ in manager.pending_restores]
    # the reference: per session, its last config and its checkpoint
    # records in file order, read line by line
    configs, stored = {}, {}
    for line in lines:
        record = _decode(line)
        if not isinstance(record, dict) or not isinstance(record.get("session"), str):
            continue
        sid = record["session"]
        if record.get("kind") == "service-session" and isinstance(record.get("config_toml"), str):
            configs[sid] = record["config_toml"]
        elif record.get("kind") == "checkpoint" and "checkpoint" in record:
            stored.setdefault(sid, []).append(record["checkpoint"])
    for sid, toml, checkpoint in manager.pending_restores:
        assert configs[sid] == toml
        fingerprint = config_fingerprint(loads_config(toml))
        readable = [cp for cp in stored[sid] if _readable(cp, fingerprint)]
        assert readable and json.loads(checkpoint) == readable[-1]
        RunCheckpoint.from_json(checkpoint, expect_fingerprint=fingerprint)
    for sid, toml in configs.items():
        if sid in restored:
            continue
        try:
            fingerprint = config_fingerprint(loads_config(toml))
        except Exception:  # noqa: BLE001 - a config that no longer loads
            continue
        assert not any(_readable(cp, fingerprint) for cp in stored.get(sid, []))

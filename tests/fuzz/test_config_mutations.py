"""Config mutations fail closed: a TOML config is untrusted input.

Each case takes one of the golden-corpus TOMLs and changes one thing:

* a node (a leaf, an array element, a section) to a wrong type: a string,
  an array, a table or a bool;
* a node to an out-of-range value: 0, -1, +-1e308, +-2^70, an integer past
  float range, +-inf or nan;
* a dropped node, or an unknown key added to a table.

The oracle: ``loads_config`` on the mutated TOML text either returns a
config or raises ``ConfigError`` naming the field, within a time bound;
any other exception is a crash at the trust boundary.  The listed mutations
are swept over every node of every corpus file; hypothesis adds drawn
strings, arrays and tables at drawn nodes.
"""

import copy
import json
import math
import time
import tomllib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ConfigError, loads_config

CORPUS = Path(__file__).parent / "corpus"
FILES = sorted(CORPUS.glob("*.toml"))
_DOCS = {path.stem: tomllib.loads(path.read_text()) for path in FILES}

#: seconds one ``loads_config`` may take; parsing and validation are
#: milliseconds, so this only trips on a hang
_BOUND_S = 2.0

_DROP, _UNKNOWN = object(), object()
_OUT_OF_RANGE = [0, -1, 1e308, -1e308, 2**70, -(2**70), 10**400, math.inf, -math.inf, math.nan]
_WRONG_TYPE = ["x", [1, "a"], {"k": 1}, True]


def _toml(value) -> str:
    """One TOML value, tables inline; ``repr`` gives TOML's inf/nan."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings share JSON's escapes
    if isinstance(value, list):
        return "[" + ", ".join(_toml(v) for v in value) + "]"
    return "{" + ", ".join(f"{json.dumps(k)} = {_toml(v)}" for k, v in value.items()) + "}"


def _dumps(document: dict) -> str:
    return "".join(f"{json.dumps(k)} = {_toml(v)}\n" for k, v in document.items())


def _nodes(node, path=()):
    """Key paths of every value under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _tables(document: dict):
    yield ()
    for path in _nodes(document):
        if isinstance(_at(document, path), dict):
            yield path


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def _mutated(document: dict, path: tuple, value) -> str:
    """The TOML text of ``document`` with ``path`` set to ``value`` (or
    dropped); ``_UNKNOWN`` adds a key to the table at ``path``."""
    document = copy.deepcopy(document)
    if value is _UNKNOWN:
        _at(document, path)["zz_unknown"] = 1
        return _dumps(document)
    parent = _at(document, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return _dumps(document)


def _loads_fails_closed(text: str) -> None:
    start = time.perf_counter()
    try:
        loads_config(text)
    except ConfigError:
        pass
    assert time.perf_counter() - start < _BOUND_S


@pytest.mark.parametrize("name", sorted(_DOCS))
def test_emitter_round_trips_the_corpus(name):
    """The inline emitter rebuilds each corpus config exactly, so a
    mutation is the only difference the oracle sees."""
    assert loads_config(_dumps(_DOCS[name])) == loads_config((CORPUS / f"{name}.toml").read_text())


@pytest.mark.parametrize("name", sorted(_DOCS))
def test_every_listed_mutation_fails_closed(name):
    document = _DOCS[name]
    cases = [
        (path, value)
        for path in _nodes(document)
        for value in [*_OUT_OF_RANGE, *_WRONG_TYPE, _DROP]
    ]
    cases += [(path, _UNKNOWN) for path in _tables(document)]
    crashes = []  # every crash, not just the first
    for path, value in cases:
        try:
            _loads_fails_closed(_mutated(document, path, value))
        except Exception as exc:  # noqa: BLE001 — the oracle's failures, collected
            label = {id(_DROP): "<dropped>", id(_UNKNOWN): "<unknown key>"}.get(id(value))
            crashes.append(f"{'.'.join(map(str, path))} = {label or repr(value)[:40]}: "
                           f"{type(exc).__name__}: {exc}")
    assert not crashes, "\n".join(crashes)


def test_int_past_the_digit_limit_fails_closed():
    # tomllib raises a plain ValueError for an int str() cannot convert
    with pytest.raises(ConfigError, match="invalid TOML"):
        loads_config("seed = " + "9" * 5000)


_scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
_values = st.one_of(
    _scalars,
    st.sampled_from(_OUT_OF_RANGE),
    st.lists(_scalars, max_size=4),
    st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                    _scalars, max_size=3),
    st.just(_DROP),
)


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(_DOCS)))
    document = _DOCS[name]
    if draw(st.booleans()):
        return document, draw(st.sampled_from(list(_nodes(document)))), draw(_values)
    return document, draw(st.sampled_from(list(_tables(document)))), _UNKNOWN


@given(mutation=_mutations())
def test_drawn_mutation_fails_closed(mutation):
    _loads_fails_closed(_mutated(*mutation))

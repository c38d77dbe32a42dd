"""TOML persistence for scenario configs: the corpus file format.

``tomllib`` (stdlib, 3.11+) reads; since the stdlib has no writer, this
module carries a deliberately *restricted* emitter that covers exactly the
shapes :meth:`~repro.config.schema.ScenarioConfig.to_dict` produces — scalar
values, one level of named sections, and the ``[[faults]]`` array of tables.
It is not a general TOML writer and refuses anything outside that shape.

Round-trip contract (pinned by ``tests/config/test_toml_io.py``)::

    load_config(dumps_config(cfg)) == cfg

Floats are always emitted with a decimal point (TOML distinguishes ``1`` from
``1.0``, and the schema coerces ints onto float fields on load, so the
round-trip is exact either way — the explicit point keeps the files honest
about which fields are real-valued).
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path

from .schema import ConfigError, ScenarioConfig

__all__ = ["dumps_config", "load_config", "loads_config", "save_config"]


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats must carry a point or exponent; repr() of an integral
        # float gives "3.0" already, but guard inf/nan (invalid in our schema
        # and in TOML's plain form)
        if text in ("inf", "-inf", "nan"):
            raise ConfigError(f"cannot serialize non-finite float {value!r} to TOML")
        return text
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings share JSON's escapes
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    raise ConfigError(f"cannot serialize {type(value).__name__} value {value!r} to TOML")


def _table_body(table: dict, context: str) -> list[str]:
    lines = []
    for key, value in table.items():
        if isinstance(value, dict):
            # one inline-table level (tracker.kwargs); deeper nesting is out
            # of the schema's shape and refused
            body = ", ".join(
                f"{k} = {_scalar(v)}"
                for k, v in ((k, _refuse_nested(v, f"{context}.{key}.{k}"))
                             for k, v in value.items())
            )
            lines.append(f"{key} = {{{body}}}" if body else f"{key} = {{}}")
        else:
            lines.append(f"{key} = {_scalar(value)}")
    return lines


def _refuse_nested(value, path: str):
    if isinstance(value, dict):
        raise ConfigError(f"{path}: nested tables beyond one inline level are "
                          "not supported by the config TOML emitter")
    return value


def dumps_config(config: ScenarioConfig) -> str:
    """Serialize ``config`` to TOML text (sections in schema order)."""
    data = config.to_dict()
    lines = [f"seed = {_scalar(data.pop('seed'))}", ""]
    faults = data.pop("faults")
    for name, section in data.items():
        lines.append(f"[{name}]")
        lines.extend(_table_body(section, name))
        lines.append("")
    for event in faults:
        lines.append("[[faults]]")
        lines.extend(_table_body(event, "faults"))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def loads_config(text: str) -> ScenarioConfig:
    """Parse TOML text into a validated :class:`ScenarioConfig`."""
    try:
        data = tomllib.loads(text)
    except ValueError as exc:  # TOMLDecodeError, or an int past str conversion's digit limit
        raise ConfigError(f"invalid TOML: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate the TOML scenario config at ``path``."""
    return loads_config(Path(path).read_text())


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    """Write ``config`` as TOML to ``path``."""
    Path(path).write_text(dumps_config(config))

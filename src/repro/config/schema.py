"""The typed scenario schema: one declarative value for one tracking run.

A :class:`ScenarioConfig` names everything the simulator's cross-product
supports — deployment x sensing x measurement x dynamics x link model x
fault plan (faults carry sleep schedules and mobility) x tracker — as plain
data: nested frozen dataclasses of scalars, one seed, no live objects.  The
compiler (:mod:`repro.config.compile`) turns a config into the runnable
triple (:class:`~repro.scenario.Scenario`, trajectory, tracker) through the
existing constructors and the :func:`~repro.factory.make_tracker` registry,
so the schema adds no second construction path — it only *names* the first.

Three properties are load-bearing for the fuzz harness built on top:

* **Field-addressed validation** — every rejected value raises
  :class:`ConfigError` naming the offending field path
  (``"deployment.density_per_100m2: must be positive"``), so a shrunk
  counterexample's failure mode is legible without a debugger.
* **Round-trip fidelity** — ``ScenarioConfig.from_dict(cfg.to_dict()) ==
  cfg`` exactly, and the TOML layer (:mod:`repro.config.toml_io`) round-trips
  through text.  The golden corpus depends on this: a committed TOML must
  rebuild the identical config forever.
* **Unknown keys are errors** — a typo'd section or key fails loudly with
  its path instead of silently running the default scenario.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

__all__ = [
    "ConfigError",
    "DeploymentConfig",
    "RadioConfig",
    "SensingConfig",
    "MeasurementConfig",
    "DynamicsConfig",
    "SizesConfig",
    "LinkConfig",
    "TrajectoryConfig",
    "TrackerConfig",
    "ScenarioConfig",
]


class ConfigError(ValueError):
    """A scenario config is invalid; the message names the offending field."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


# -- generic dict <-> dataclass plumbing --------------------------------------


def _coerce(value, hint, path: str):
    """Coerce one TOML/JSON scalar onto a dataclass field type."""
    origin = get_origin(hint)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {type(value).__name__}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {type(value).__name__}")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {type(value).__name__}")
        return value
    if hint is str:
        if not isinstance(value, str):
            _fail(path, f"expected a string, got {type(value).__name__}")
        return value
    if origin is tuple:
        args = get_args(hint)
        if not isinstance(value, (list, tuple)):
            _fail(path, f"expected a list, got {type(value).__name__}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            _fail(path, f"expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if hint is dict:
        if not isinstance(value, dict):
            _fail(path, f"expected a table, got {type(value).__name__}")
        return dict(value)
    raise AssertionError(f"unhandled schema field type {hint!r} at {path}")  # pragma: no cover


def _section_from_dict(cls, data, path: str):
    """Build one section dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(data, dict):
        _fail(path, f"expected a table, got {type(data).__name__}")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; valid: {sorted(names)}")
    kwargs = {
        key: _coerce(value, hints[key], f"{path}.{key}") for key, value in data.items()
    }
    return cls(**kwargs)


def _section_to_dict(section) -> dict:
    out = {}
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if isinstance(value, tuple):
            value = [dict(v) if isinstance(v, dict) else v for v in value]
        elif isinstance(value, dict):
            value = dict(value)
        out[f.name] = value
    return out


def _check_positive(path: str, **values: float) -> None:
    for name, v in values.items():
        if not v > 0:
            _fail(f"{path}.{name}", f"must be positive, got {v}")


def _check_non_negative(path: str, **values: float) -> None:
    for name, v in values.items():
        if v < 0:
            _fail(f"{path}.{name}", f"must be non-negative, got {v}")


def _check_probability(path: str, **values: float) -> None:
    for name, v in values.items():
        if not 0.0 <= v <= 1.0:
            _fail(f"{path}.{name}", f"must be a probability in [0, 1], got {v}")


def _check_choice(path: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        _fail(path, f"must be one of {list(choices)}, got {value!r}")


# -- sections -----------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentConfig:
    """Node placement: which spatial process, how dense, what field."""

    kind: str = "uniform"  # uniform | grid | poisson | clustered
    width: float = 200.0
    height: float = 200.0
    density_per_100m2: float = 20.0  # uniform / poisson
    n_per_side: int = 20  # grid
    jitter: float = 0.0  # grid
    n_clusters: int = 8  # clustered
    nodes_per_cluster: int = 60  # clustered
    cluster_std: float = 10.0  # clustered
    index_cell: float = 10.0

    def __post_init__(self) -> None:
        _check_choice("deployment.kind", self.kind, ("uniform", "grid", "poisson", "clustered"))
        _check_positive("deployment", width=self.width, height=self.height,
                        index_cell=self.index_cell)
        _check_non_negative("deployment", jitter=self.jitter)
        if self.kind in ("uniform", "poisson"):
            _check_positive("deployment", density_per_100m2=self.density_per_100m2)
        elif self.kind == "grid":
            if self.n_per_side <= 0:
                _fail("deployment.n_per_side", f"must be positive, got {self.n_per_side}")
        else:
            if self.n_clusters <= 0 or self.nodes_per_cluster <= 0:
                _fail("deployment.n_clusters",
                      "n_clusters and nodes_per_cluster must be positive, got "
                      f"{self.n_clusters}, {self.nodes_per_cluster}")
            _check_positive("deployment", cluster_std=self.cluster_std)


@dataclass(frozen=True)
class RadioConfig:
    comm_radius: float = 30.0
    interference_delta: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("radio", comm_radius=self.comm_radius)
        _check_non_negative("radio", interference_delta=self.interference_delta)


@dataclass(frozen=True)
class SensingConfig:
    """Detection model choice plus its parameters (unused ones ignored)."""

    model: str = "instant"  # instant | sampling | probabilistic | energy
    sensing_radius: float = 10.0
    inner_radius: float = 5.0  # probabilistic
    decay: float = 0.5  # probabilistic
    source_power: float = 100.0  # energy
    noise_std: float = 0.05  # energy
    threshold: float = 1.0  # energy

    def __post_init__(self) -> None:
        _check_choice("sensing.model", self.model,
                      ("instant", "sampling", "probabilistic", "energy"))
        _check_positive("sensing", sensing_radius=self.sensing_radius)
        if self.model == "probabilistic":
            if not 0 < self.inner_radius <= self.sensing_radius:
                _fail("sensing.inner_radius",
                      f"need 0 < inner_radius <= sensing_radius, got "
                      f"{self.inner_radius} vs {self.sensing_radius}")
            _check_positive("sensing", decay=self.decay)
        if self.model == "energy":
            _check_positive("sensing", source_power=self.source_power,
                            threshold=self.threshold)
            _check_non_negative("sensing", noise_std=self.noise_std)
            floor = self.source_power / self.sensing_radius**2
            if self.threshold < floor:
                _fail("sensing.threshold",
                      "must be >= source_power / sensing_radius^2 "
                      f"(= {floor:g}) so the disk-bounded candidate search is "
                      f"exact, got {self.threshold}")


@dataclass(frozen=True)
class MeasurementConfig:
    """Bearing measurement (the paper's Eq. 5) parameters."""

    noise_std: float = 0.05
    reference: str = "node"  # node | origin
    bias_std: float = 0.025  # Scenario.measurement_bias_std

    def __post_init__(self) -> None:
        _check_choice("measurement.reference", self.reference, ("node", "origin"))
        _check_non_negative("measurement", noise_std=self.noise_std, bias_std=self.bias_std)


@dataclass(frozen=True)
class DynamicsConfig:
    dt: float = 5.0
    sigma_x: float = 0.05
    sigma_y: float = 0.05

    def __post_init__(self) -> None:
        _check_positive("dynamics", dt=self.dt)
        _check_non_negative("dynamics", sigma_x=self.sigma_x, sigma_y=self.sigma_y)


@dataclass(frozen=True)
class SizesConfig:
    """Table I byte-cost model."""

    particle: int = 16
    measurement: int = 4
    weight: int = 4
    header: int = 0

    def __post_init__(self) -> None:
        for name in ("particle", "measurement", "weight", "header"):
            if getattr(self, name) < 0:
                _fail(f"sizes.{name}", f"must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class LinkConfig:
    """Unreliable-channel model; ``kind = "none"`` is the paper's reliable radio."""

    kind: str = "none"  # none | iid | distance | gilbert_elliott | delaying
    p_loss: float = 0.1  # iid (and the delaying wrapper's inner model)
    inner_radius: float = 15.0  # distance
    edge_probability: float = 0.5  # distance
    gamma: float = 2.0  # distance
    p_good_to_bad: float = 0.05  # gilbert_elliott
    p_bad_to_good: float = 0.4  # gilbert_elliott
    loss_good: float = 0.0  # gilbert_elliott
    loss_bad: float = 0.9  # gilbert_elliott
    p_delay: float = 0.1  # delaying
    inner: str = "iid"  # delaying: which model the wrapper delays
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("link.kind", self.kind,
                      ("none", "iid", "distance", "gilbert_elliott", "delaying"))
        _check_choice("link.inner", self.inner, ("iid", "distance", "gilbert_elliott"))
        _check_probability("link", p_loss=self.p_loss, edge_probability=self.edge_probability,
                           p_good_to_bad=self.p_good_to_bad, p_bad_to_good=self.p_bad_to_good,
                           loss_good=self.loss_good, loss_bad=self.loss_bad,
                           p_delay=self.p_delay)
        _check_positive("link", inner_radius=self.inner_radius, gamma=self.gamma)
        _check_non_negative("link", seed=self.seed)


@dataclass(frozen=True)
class TrajectoryConfig:
    """The target path (random-turn model at the filter period)."""

    n_iterations: int = 10
    start: tuple[float, float] = (0.0, 100.0)
    speed: float = 3.0
    substep_dt: float = 1.0

    def __post_init__(self) -> None:
        if self.n_iterations <= 0:
            _fail("trajectory.n_iterations", f"must be positive, got {self.n_iterations}")
        _check_positive("trajectory", speed=self.speed, substep_dt=self.substep_dt)


@dataclass(frozen=True)
class TrackerConfig:
    """Which registered algorithm runs, plus constructor keyword overrides."""

    name: str = "CDPF"
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            _fail("tracker.name", "must be a non-empty tracker name")
        for key in self.kwargs:
            if not isinstance(key, str):
                _fail("tracker.kwargs", f"keys must be strings, got {key!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrackerConfig):
            return NotImplemented
        return self.name == other.name and self.kwargs == other.kwargs

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.kwargs.items()))))


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete run description: every axis of the supported cross-product.

    ``seed`` is the single entropy root; the compiler derives independent
    streams from it (world / sensing / tracker) via ``SeedSequence`` spawn
    keys, so two configs differing only in, say, the link model share the
    identical deployment and trajectory.

    ``faults`` holds raw fault-event tables (the :mod:`repro.network.faults`
    serialization format, ``kind`` tag + parameters); validation delegates
    to :func:`~repro.network.faults.fault_event_from_dict` so event schemas
    live in exactly one place.  Sleep schedules (``scheduled_sleep``) and
    mobility (``mobility``) ride this axis.
    """

    seed: int = 0
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    sensing: SensingConfig = field(default_factory=SensingConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    sizes: SizesConfig = field(default_factory=SizesConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    faults: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            _fail("seed", f"must be non-negative, got {self.seed}")
        # the Scenario invariant (R_s <= R_c / 2), checked here so the error
        # names the config fields instead of surfacing from Scenario later
        if self.sensing.sensing_radius > self.radio.comm_radius / 2.0:
            _fail("sensing.sensing_radius",
                  f"must be <= radio.comm_radius / 2 (= {self.radio.comm_radius / 2.0}) "
                  f"so one hop covers a neighborhood, got {self.sensing.sensing_radius}")
        from ..network.faults import fault_event_from_dict

        for i, event in enumerate(self.faults):
            if not isinstance(event, dict):
                _fail(f"faults[{i}]", f"expected a table, got {type(event).__name__}")
            try:
                fault_event_from_dict(event)
            except (ConfigError, ValueError, TypeError) as exc:
                _fail(f"faults[{i}]", str(exc))

    # -- round-trip -------------------------------------------------------

    _SECTIONS = {
        "deployment": DeploymentConfig,
        "radio": RadioConfig,
        "sensing": SensingConfig,
        "measurement": MeasurementConfig,
        "dynamics": DynamicsConfig,
        "sizes": SizesConfig,
        "link": LinkConfig,
        "trajectory": TrajectoryConfig,
        "tracker": TrackerConfig,
    }

    def to_dict(self) -> dict:
        """Nested plain-data payload; ``from_dict`` inverts it exactly."""
        out: dict = {"seed": self.seed}
        for name in self._SECTIONS:
            out[name] = _section_to_dict(getattr(self, name))
        out["faults"] = [dict(ev) for ev in self.faults]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build and validate a config from a nested mapping.

        Unknown top-level or section keys raise :class:`ConfigError` with
        the full field path.  Missing sections take their defaults.
        """
        if not isinstance(data, dict):
            _fail("config", f"expected a table, got {type(data).__name__}")
        known = set(cls._SECTIONS) | {"seed", "faults"}
        unknown = set(data) - known
        if unknown:
            _fail("config", f"unknown section(s)/key(s) {sorted(unknown)}; "
                  f"valid: {sorted(known)}")
        kwargs: dict = {}
        if "seed" in data:
            kwargs["seed"] = _coerce(data["seed"], int, "seed")
        for name, section_cls in cls._SECTIONS.items():
            if name in data:
                kwargs[name] = _section_from_dict(section_cls, data[name], name)
        if "faults" in data:
            faults = data["faults"]
            if not isinstance(faults, (list, tuple)):
                _fail("faults", f"expected an array of tables, got {type(faults).__name__}")
            kwargs["faults"] = tuple(
                _coerce(ev, dict, f"faults[{i}]") for i, ev in enumerate(faults)
            )
        return cls(**kwargs)

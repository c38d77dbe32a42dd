"""Declarative fault plans: reproducible fault injection for robustness studies.

The robustness bench used to mutate the medium with ad-hoc inline loops
(fresh ``fail_nodes`` calls per iteration, hand-rolled sleep patterns); a
:class:`FaultPlan` replaces that with a *declarative* schedule of fault
events that the runner replays deterministically — the same plan, the same
medium, the same run, every time.  Plans compose the §V-D / §VIII-1 uncertain
factors:

:class:`CrashFault`
    Nodes crash permanently at a given iteration — explicit ids or a
    seeded random fraction of the deployment.
:class:`SleepWindow`
    Unanticipated sleep: during ``[start, end]`` a fresh random subset of
    nodes is asleep each iteration (the pattern no schedule anticipates —
    the §V-D caveat for CDPF-NE).
:class:`LossBurst`
    During ``[start, end]`` an i.i.d. loss overlay at ``p_loss`` is stacked
    on top of whatever base link model the medium carries (a network-wide
    interference burst).
:class:`RegionPartition`
    During ``[start, end]`` messages crossing the boundary of a disk are
    dropped — a geographic partition.
:class:`ScheduledSleep`
    Deterministic duty cycling: during ``[start, end]`` nodes follow a
    :class:`~repro.network.sleep.DutyCycleSchedule` evaluated at the filter
    instants — the *anticipatable* sleep pattern of §III-C, as opposed to
    :class:`SleepWindow`'s unanticipated one.  Both compose by union.
:class:`MobilityDrift`
    During ``[start, end]`` the *physical* node positions drift each
    iteration (random Brownian or coherent group drift, the §V-D mobile-node
    uncertain factor) while every believed position stays stale.

All randomness derives from per-event seeds through
:class:`numpy.random.SeedSequence`, so replay does not depend on call order.
``FaultPlan.apply(medium, iteration)`` is idempotent per iteration and is the
single entry point the runner calls.

Plans and every event serialize losslessly through ``to_dict`` /
:func:`fault_event_from_dict` / :meth:`FaultPlan.from_dict` (plain
str/int/float/bool/list payloads), which is what lets the declarative
scenario configs in :mod:`repro.config` carry a full fault schedule through
TOML and back bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .links import IIDLossLink, _check_seed
from .medium import Medium

__all__ = [
    "CrashFault",
    "SleepWindow",
    "LossBurst",
    "RegionPartition",
    "ScheduledSleep",
    "MobilityDrift",
    "FaultPlan",
    "fault_event_from_dict",
]


def _event_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class CrashFault:
    """Permanent crash of nodes at ``iteration`` (explicit ids or a fraction)."""

    iteration: int
    node_ids: tuple[int, ...] | None = None
    fraction: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.node_ids is None) == (self.fraction is None):
            raise ValueError("specify exactly one of node_ids / fraction")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    def node_set(self, n_nodes: int) -> np.ndarray:
        if self.node_ids is not None:
            return np.asarray(self.node_ids, dtype=np.intp)
        n_fail = int(round(self.fraction * n_nodes))
        if n_fail == 0:
            return np.array([], dtype=np.intp)
        rng = _event_rng(self.seed, 1, self.iteration)
        return rng.choice(n_nodes, size=min(n_fail, n_nodes), replace=False)


@dataclass(frozen=True)
class SleepWindow:
    """Unanticipated sleep: a fresh seeded random subset sleeps each iteration.

    Each node is independently asleep with probability ``1 - awake_fraction``
    during ``[start, end]`` (both inclusive); the pattern changes every
    iteration, which is exactly what no duty-cycle schedule can anticipate.
    """

    start: int
    end: int
    awake_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} before start {self.start}")
        if not 0.0 <= self.awake_fraction <= 1.0:
            raise ValueError(f"awake_fraction must be in [0, 1], got {self.awake_fraction}")

    def active(self, iteration: int) -> bool:
        return self.start <= iteration <= self.end

    def asleep_at(self, iteration: int, n_nodes: int) -> np.ndarray:
        rng = _event_rng(self.seed, 2, iteration)
        return np.nonzero(rng.uniform(size=n_nodes) > self.awake_fraction)[0]


@dataclass(frozen=True)
class LossBurst:
    """An i.i.d. loss overlay at ``p_loss`` during ``[start, end]`` (inclusive)."""

    start: int
    end: int
    p_loss: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} before start {self.start}")
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError(f"p_loss must be in [0, 1], got {self.p_loss}")
        _check_seed(self.seed)

    def active(self, iteration: int) -> bool:
        return self.start <= iteration <= self.end


@dataclass(frozen=True)
class RegionPartition:
    """Drop every message crossing the boundary of the disk at ``center``."""

    start: int
    end: int
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 50.0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} before start {self.start}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def active(self, iteration: int) -> bool:
        return self.start <= iteration <= self.end

    def side_mask(self, positions: np.ndarray) -> np.ndarray:
        d2 = np.sum((positions - np.asarray(self.center, dtype=np.float64)) ** 2, axis=1)
        return d2 <= self.radius**2


@dataclass(frozen=True)
class ScheduledSleep:
    """Deterministic duty-cycled sleep during ``[start, end]`` (inclusive).

    Wraps a :class:`~repro.network.sleep.DutyCycleSchedule` evaluated at the
    filter instants ``t = iteration * dt_s``: the asleep set is a pure
    function of ``(phase_seed, iteration)``, so — unlike
    :class:`SleepWindow` — neighbors *can* anticipate it, which is exactly
    the §III-C working-status assumption CDPF-NE relies on.
    """

    start: int
    end: int
    period_s: float = 60.0
    duty_cycle: float = 0.5
    phase_seed: int = 0
    dt_s: float = 5.0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} before start {self.start}")
        if self.dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {self.dt_s}")
        self._schedule()  # validates period_s / duty_cycle eagerly

    def _schedule(self):
        from .sleep import DutyCycleSchedule

        return DutyCycleSchedule(
            period_s=self.period_s, duty_cycle=self.duty_cycle, phase_seed=self.phase_seed
        )

    def active(self, iteration: int) -> bool:
        return self.start <= iteration <= self.end

    def asleep_at(self, iteration: int, n_nodes: int) -> np.ndarray:
        return self._schedule().asleep_ids(n_nodes, float(iteration) * self.dt_s)


@dataclass(frozen=True)
class MobilityDrift:
    """Physical node drift during ``[start, end]`` (inclusive).

    Each iteration in the window moves the medium's *physical* positions by
    one mobility step — ``kind="random"`` draws an independent Brownian step
    per node (:class:`~repro.network.mobility.RandomDriftMobility` at the
    filter period), ``kind="group"`` translates the whole field coherently
    (:class:`~repro.network.mobility.GroupDriftMobility`).  Believed
    positions (neighbor tables, contributions) are never touched: the
    believed/physical gap this opens is §V-D's mobile-node uncertain factor.

    Steps are a pure function of ``(seed, iteration)``; re-applying the plan
    at an iteration it already moved is a no-op (the medium remembers the
    last drift iteration per event), so the runner's once-per-iteration
    ``apply`` contract keeps the trajectory deterministic.
    """

    start: int
    end: int
    model: str = "random"
    speed_std: float = 0.05
    velocity: tuple[float, float] = (0.1, 0.0)
    dt_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} before start {self.start}")
        if self.model not in ("random", "group"):
            raise ValueError(f"model must be 'random' or 'group', got {self.model!r}")
        if self.speed_std < 0:
            raise ValueError(f"speed_std must be non-negative, got {self.speed_std}")
        if self.dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {self.dt_s}")

    def active(self, iteration: int) -> bool:
        return self.start <= iteration <= self.end

    def step(self, positions: np.ndarray, iteration: int) -> np.ndarray:
        """Positions after this iteration's drift step (pure given the seed)."""
        if self.model == "group":
            model = _group_mobility(self.velocity)
        else:
            model = _random_mobility(self.speed_std)
        return model.advance(positions, self.dt_s, _event_rng(self.seed, 5, iteration))


def _random_mobility(speed_std: float):
    from .mobility import RandomDriftMobility

    return RandomDriftMobility(speed_std=speed_std)


def _group_mobility(velocity: tuple[float, float]):
    from .mobility import GroupDriftMobility

    return GroupDriftMobility(velocity=tuple(velocity))


# -- serialization -----------------------------------------------------------

#: wire tag -> event class (the ``kind`` field of a serialized event)
_EVENT_KINDS = {
    "crash": CrashFault,
    "sleep_window": SleepWindow,
    "loss_burst": LossBurst,
    "partition": RegionPartition,
    "scheduled_sleep": ScheduledSleep,
    "mobility": MobilityDrift,
}
_KIND_OF_EVENT = {cls: kind for kind, cls in _EVENT_KINDS.items()}
#: fields holding tuples, rebuilt from the lists JSON/TOML hand back
_TUPLE_FIELDS = {"node_ids", "center", "velocity"}


def _event_to_dict(event) -> dict:
    out: dict = {"kind": _KIND_OF_EVENT[type(event)]}
    for f in dataclass_fields(event):
        value = getattr(event, f.name)
        if value is None:
            continue  # TOML has no null; absent means default/None
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def fault_event_from_dict(data: dict):
    """Rebuild one fault event from its ``to_dict`` payload.

    Raises :class:`ValueError` naming the offending key for unknown kinds
    and unknown fields; value-range errors come from the event's own
    validation.
    """
    data = dict(data)
    kind = data.pop("kind", None)
    if kind not in _EVENT_KINDS:
        known = ", ".join(sorted(_EVENT_KINDS))
        raise ValueError(f"faults[].kind: unknown fault kind {kind!r}; known: {known}")
    cls = _EVENT_KINDS[kind]
    allowed = {f.name for f in dataclass_fields(cls)}
    for key in data:
        if key not in allowed:
            raise ValueError(f"faults[{kind}].{key}: unknown field")
    kwargs = {
        key: tuple(value) if key in _TUPLE_FIELDS and isinstance(value, list) else value
        for key, value in data.items()
    }
    return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of fault events, replayed by the runner.

    :meth:`apply` mutates the medium for one iteration.  The plan only
    touches the machinery its events use: a plan with no sleep windows never
    calls ``set_asleep`` (so externally managed sleep schedules compose), a
    plan with no bursts never touches the link override, and so on.
    """

    events: tuple = ()

    def __post_init__(self) -> None:
        allowed = tuple(_EVENT_KINDS.values())
        for ev in self.events:
            if not isinstance(ev, allowed):
                raise TypeError(f"unknown fault event type: {type(ev).__name__}")

    def _of(self, kind) -> list:
        return [ev for ev in self.events if isinstance(ev, kind)]

    def apply(self, medium: Medium, iteration: int) -> None:
        """Install this iteration's faults on ``medium`` (idempotent per iteration)."""
        n = medium.n_nodes
        for ev in self._of(CrashFault):
            if ev.iteration == iteration:
                medium.fail_nodes(ev.node_set(n))

        drifts = self._of(MobilityDrift)
        if drifts:
            # drift BEFORE sleep/burst/partition evaluation: faults of this
            # iteration see the moved geometry.  The per-(event, iteration)
            # marker on the medium keeps re-application a no-op.
            applied = medium.__dict__.setdefault("_mobility_applied", {})
            for ev in drifts:
                if ev.active(iteration) and applied.get(ev) != iteration:
                    applied[ev] = iteration
                    medium.update_positions(ev.step(medium.positions, iteration))

        sleeps = self._of((SleepWindow, ScheduledSleep))
        if sleeps:
            asleep: set[int] = set()
            for ev in sleeps:
                if ev.active(iteration):
                    asleep.update(int(i) for i in ev.asleep_at(iteration, n))
            medium.set_asleep(asleep)

        bursts = self._of(LossBurst)
        if bursts:
            active = [ev for ev in bursts if ev.active(iteration)]
            if active:
                # stack concurrent bursts into one overlay: survival is the
                # product of per-burst survivals
                p_keep = 1.0
                for ev in active:
                    p_keep *= 1.0 - ev.p_loss
                medium.install_link_override(
                    IIDLossLink(p_loss=1.0 - p_keep, seed=active[0].seed)
                )
            else:
                medium.install_link_override(None)

        partitions = self._of(RegionPartition)
        if partitions:
            active_p = [ev for ev in partitions if ev.active(iteration)]
            if active_p:
                # simultaneous partitions merge into one region (union of the
                # disks) — inside-vs-outside of the union is the boundary
                mask = active_p[0].side_mask(medium.positions)
                for ev in active_p[1:]:
                    mask = mask | ev.side_mask(medium.positions)
                medium.set_partition(mask)
            else:
                medium.set_partition(None)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data payload (str/int/float/bool/list only): TOML/JSON-safe."""
        return {"events": [_event_to_dict(ev) for ev in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; errors name the offending key."""
        data = dict(data)
        events = data.pop("events", [])
        if data:
            raise ValueError(f"fault plan: unknown field {sorted(data)[0]!r}")
        return cls(events=tuple(fault_event_from_dict(ev) for ev in events))

    # -- factories -----------------------------------------------------------

    @classmethod
    def cumulative_crashes(
        cls,
        total_fraction: float,
        n_iterations: int,
        *,
        seed: int = 0,
        start: int = 1,
    ) -> "FaultPlan":
        """Fresh random crashes every iteration, accumulating to ``total_fraction``.

        The robustness bench's historical fault pattern, now declarative: at
        each iteration in ``[start, start + n_iterations)`` a fraction
        ``total_fraction / n_iterations`` of the deployment crashes.
        """
        if not 0.0 <= total_fraction <= 1.0:
            raise ValueError(f"total_fraction must be in [0, 1], got {total_fraction}")
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        per = total_fraction / n_iterations
        events = tuple(
            CrashFault(iteration=k, fraction=per, seed=seed)
            for k in range(start, start + n_iterations)
        )
        return cls(events=events)

    @classmethod
    def unanticipated_sleep(
        cls, n_iterations: int, *, awake_fraction: float = 0.7, seed: int = 0
    ) -> "FaultPlan":
        """The §V-D caveat as a plan: random sleep over the whole run."""
        return cls(
            events=(
                SleepWindow(
                    start=0, end=n_iterations, awake_fraction=awake_fraction, seed=seed
                ),
            )
        )

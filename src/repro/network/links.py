"""Unreliable-channel models: per-link delivery decided by a pluggable LinkModel.

The seed repository's :class:`~repro.network.medium.Medium` delivered every
message perfectly — the overhearing trick the paper builds CDPF around was
never stressed by the lossy radios it was designed for (the paper's first
future-work item, §VIII-1, asks exactly for this evaluation).  A
:class:`LinkModel` decides, per (sender, receiver, iteration), whether a
transmission is **delivered**, **dropped**, or **delayed** by one filter
iteration.

Design constraints, all load-bearing for the test tier:

* **Determinism** — every random draw derives from a
  :class:`numpy.random.SeedSequence` keyed on ``(seed, sender, receiver,
  iteration, nonce)``, so the same seed reproduces the same drop pattern
  bit-for-bit regardless of how many unrelated draws happened in between.
  The ``nonce`` distinguishes multiple messages on the same link within one
  iteration (they would otherwise share one fate).
* **Zero-loss transparency** — a model configured for zero loss must make the
  medium byte-for-byte identical to no model at all; the differential tests
  in ``tests/core/test_cdpf_lossy.py`` pin this.
* **Locality** — a link model sees only the geometry the radio sees
  (sender/receiver ids and their distance); it never reads algorithm state.

Models
------
:class:`IIDLossLink`
    i.i.d. Bernoulli loss at a fixed probability — the standard first stress.
:class:`DistanceFadingLink`
    Delivery probability falls with distance: perfect inside an inner radius,
    then a smooth power-law ramp down to an edge probability at the
    communication radius (a deterministic-given-seed stand-in for log-distance
    path loss + fading margin).
:class:`GilbertElliottLink`
    Two-state burst-loss Markov chain per *directed* link (good state: low
    loss, bad state: high loss), the classic model for fading channels whose
    outages arrive in bursts rather than i.i.d.
:class:`DelayingLink`
    Wrapper that converts a fraction of an inner model's deliveries into
    one-iteration-late deliveries (queueing / retransmission-at-MAC delay).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..kernels.delivery import (
    OUTCOME_DELAY,
    OUTCOME_DELIVER,
    OUTCOME_DROP,
    link_uniform_many,
)

__all__ = [
    "LinkOutcome",
    "LinkModel",
    "IIDLossLink",
    "DistanceFadingLink",
    "GilbertElliottLink",
    "DelayingLink",
]


class LinkOutcome(enum.Enum):
    """Fate of one message on one directed link."""

    DELIVER = "deliver"
    DROP = "drop"
    DELAY = "delay"  # delivered at the start of the next iteration


def _link_uniform(seed: int, *key: int) -> float:
    """One deterministic uniform draw keyed on (seed, *key).

    Order-independent: the draw depends only on the key, never on how many
    other draws were made before it.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return float(np.random.default_rng(ss).random())


def _check_seed(seed: int) -> None:
    """Reject a seed SeedSequence would refuse, before the first draw does."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


class LinkTable:
    """Int values keyed by packed directed links, ``sender << 32 | receiver``.

    Absent links read as 0.  Batched reads and writes search two sorted
    int64 arrays, one ``searchsorted`` per call: a few MB for a few hundred
    thousand links, where a dict of that size misses the cache on nearly
    every probe and its cost stops tracking CPU speed.  Scalar writes go to
    a small dict that the next batched call merges in, so the one-copy path
    stays O(1).
    """

    def __init__(self, items=()) -> None:
        self._keys = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0, dtype=np.int64)
        self._pending = dict(items)

    def __len__(self) -> int:
        self._merge()
        return self._keys.size

    def __eq__(self, other):
        if not isinstance(other, LinkTable):
            return NotImplemented
        return self.items() == other.items()

    def clear(self) -> None:
        self.__init__()

    def items(self) -> list[tuple[int, int]]:
        """``(key, value)`` pairs in key order."""
        self._merge()
        return list(zip(self._keys.tolist(), self._values.tolist()))

    def get(self, key: int) -> int:
        value = self._pending.get(key)
        if value is not None:
            return value
        if self._keys.size:
            i = int(self._keys.searchsorted(key))
            if i < self._keys.size and int(self._keys[i]) == key:
                return int(self._values[i])
        return 0

    def set(self, key: int, value: int) -> None:
        self._pending[key] = value

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        self._merge()
        pos, hit = self._find(keys)
        out = np.zeros(keys.shape[0], dtype=np.int64)
        out[hit] = self._values[pos[hit]]
        return out

    def set_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` at ``keys``; a repeated key keeps its last value."""
        self._merge()
        self._write(keys, values)

    def _find(self, keys: np.ndarray):
        pos = self._keys.searchsorted(keys)
        hit = pos < self._keys.size
        hit[hit] = self._keys[pos[hit]] == keys[hit]
        return pos, hit

    def _merge(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, {}
            n = len(pending)
            self._write(
                np.fromiter(pending.keys(), np.int64, n),
                np.fromiter(pending.values(), np.int64, n),
            )

    def _write(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys, last = np.unique(keys[::-1], return_index=True)
        values = np.asarray(values, dtype=np.int64)[::-1][last]
        pos, hit = self._find(keys)
        self._values[pos[hit]] = values[hit]
        miss = ~hit
        if miss.any():
            self._keys = np.insert(self._keys, pos[miss], keys[miss])
            self._values = np.insert(self._values, pos[miss], values[miss])


#: LinkOutcome -> the int8 code of the batched classify path.
_OUTCOME_CODE = {
    LinkOutcome.DELIVER: OUTCOME_DELIVER,
    LinkOutcome.DROP: OUTCOME_DROP,
    LinkOutcome.DELAY: OUTCOME_DELAY,
}


class LinkModel:
    """Base class: always deliver.  Subclasses override :meth:`classify`.

    ``classify`` receives the directed link, the sender-receiver distance and
    the iteration; the medium calls it once per (message, receiver) pair and
    passes a ``nonce`` that increments across messages on the same link within
    one iteration.
    """

    def classify(
        self,
        sender: int,
        receiver: int,
        distance: float,
        iteration: int,
        nonce: int = 0,
    ) -> LinkOutcome:
        return LinkOutcome.DELIVER

    def classify_many(
        self,
        sender,
        receivers: np.ndarray,
        distances: np.ndarray,
        iteration: int,
        nonces: np.ndarray,
    ) -> np.ndarray:
        """Fate codes (``kernels.delivery.OUTCOME_*``) for one batch of copies.

        ``sender`` is a scalar (one broadcast's copies) or a per-copy array
        (a batched round mixing copies from many broadcasters).  The base
        implementation loops over :meth:`classify`, so any subclass that
        only overrides the scalar method stays correct; the in-repo models
        override this with vectorized draws that are bit-exact to the scalar
        path.
        """
        senders = np.broadcast_to(np.asarray(sender), np.shape(receivers))
        out = np.empty(len(receivers), dtype=np.int8)
        for i, (s, r, d, nc) in enumerate(zip(senders, receivers, distances, nonces)):
            out[i] = _OUTCOME_CODE[
                self.classify(int(s), int(r), float(d), iteration, int(nc))
            ]
        return out

    def delivery_probability(self, distance: float) -> float:
        """Marginal delivery probability at the given distance (for docs/tests)."""
        return 1.0

    def reset(self) -> None:
        """Discard any per-link state (Gilbert-Elliott chains etc.)."""

    # -- checkpoint protocol -------------------------------------------------
    # Every draw is keyed on (seed, link, iteration, nonce), so the models
    # are stateless up to memoization; the base snapshot is empty and
    # subclasses with per-link chains override it.  Static parameters are
    # never carried: restore happens into an identically configured model.

    def snapshot(self) -> dict:
        return {"type": type(self).__name__}

    def restore(self, state: dict) -> None:
        expected = type(self).__name__
        if state.get("type") != expected:
            raise ValueError(
                f"link snapshot of type {state.get('type')!r} cannot be "
                f"restored into a {expected}"
            )


@dataclass
class IIDLossLink(LinkModel):
    """Independent Bernoulli loss: every message dropped with ``p_loss``."""

    p_loss: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError(f"p_loss must be in [0, 1], got {self.p_loss}")
        _check_seed(self.seed)

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        if self.p_loss <= 0.0:
            return LinkOutcome.DELIVER  # no draw: zero-loss is transparent
        if self.p_loss >= 1.0:
            return LinkOutcome.DROP
        u = _link_uniform(self.seed, 1, sender, receiver, iteration, nonce)
        return LinkOutcome.DROP if u < self.p_loss else LinkOutcome.DELIVER

    def classify_many(self, sender, receivers, distances, iteration, nonces):
        n = len(receivers)
        if self.p_loss <= 0.0:
            return np.zeros(n, dtype=np.int8)  # no draws: zero-loss is transparent
        if self.p_loss >= 1.0:
            return np.full(n, OUTCOME_DROP, dtype=np.int8)
        u = link_uniform_many(self.seed, 1, sender, receivers, iteration, nonces)
        return np.where(u < self.p_loss, OUTCOME_DROP, OUTCOME_DELIVER).astype(np.int8)

    def delivery_probability(self, distance: float) -> float:
        return 1.0 - self.p_loss


@dataclass
class DistanceFadingLink(LinkModel):
    """Distance-dependent delivery: perfect inside ``inner_radius``, then a
    power-law ramp down to ``edge_probability`` at ``comm_radius``.

        p(d) = 1                                       d <= r_in
        p(d) = 1 - (1 - p_edge) * ((d - r_in)/(r_c - r_in))^gamma   otherwise

    ``gamma`` > 1 keeps mid-range links good and concentrates the loss near
    the cell edge (the empirical "transitional region" of real radios).
    """

    comm_radius: float = 30.0
    inner_radius: float = 15.0
    edge_probability: float = 0.5
    gamma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.comm_radius <= 0:
            raise ValueError("comm_radius must be positive")
        if not 0.0 <= self.inner_radius <= self.comm_radius:
            raise ValueError("inner_radius must be in [0, comm_radius]")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must be in [0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        _check_seed(self.seed)

    def delivery_probability(self, distance: float) -> float:
        if distance <= self.inner_radius:
            return 1.0
        span = self.comm_radius - self.inner_radius
        if span <= 0.0 or distance >= self.comm_radius:
            return self.edge_probability
        x = (distance - self.inner_radius) / span
        return 1.0 - (1.0 - self.edge_probability) * x**self.gamma

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        p = self.delivery_probability(distance)
        if p >= 1.0:
            return LinkOutcome.DELIVER
        u = _link_uniform(self.seed, 2, sender, receiver, iteration, nonce)
        return LinkOutcome.DELIVER if u < p else LinkOutcome.DROP

    def classify_many(self, sender, receivers, distances, iteration, nonces):
        receivers = np.asarray(receivers)
        distances = np.asarray(distances, dtype=np.float64)
        n = receivers.shape[0]
        span = self.comm_radius - self.inner_radius
        p = np.ones(n)
        outer = distances > self.inner_radius
        if span <= 0.0:
            p[outer] = self.edge_probability
        else:
            far = outer & (distances >= self.comm_radius)
            p[far] = self.edge_probability
            ramp = outer & ~far
            if ramp.any():
                x = (distances[ramp] - self.inner_radius) / span
                # per-element Python pow on purpose: np.power's SIMD path is
                # not bitwise equal to the scalar ``x ** gamma`` it replaces
                g = self.gamma
                p[ramp] = 1.0 - (1.0 - self.edge_probability) * np.array(
                    [xi**g for xi in x.tolist()]
                )
        out = np.zeros(n, dtype=np.int8)
        drawn = p < 1.0
        if drawn.any():
            senders = np.broadcast_to(np.asarray(sender), receivers.shape)
            u = link_uniform_many(
                self.seed, 2, senders[drawn], receivers[drawn], iteration,
                np.asarray(nonces)[drawn],
            )
            out[drawn] = np.where(u < p[drawn], OUTCOME_DELIVER, OUTCOME_DROP)
        return out


@dataclass
class GilbertElliottLink(LinkModel):
    """Gilbert-Elliott burst loss: a two-state Markov chain per directed link.

    Each directed link is in a *good* or *bad* state; the state advances once
    per filter iteration (transitions ``p_good_to_bad`` / ``p_bad_to_good``)
    and messages are dropped with the state's loss probability.  Expected
    burst length is ``1 / p_bad_to_good`` iterations; stationary loss is
    ``pi_B * loss_bad + pi_G * loss_good``.

    The chain is advanced lazily and deterministically: the state at iteration
    ``k`` is a pure function of the seed, the link, and ``k``, so replaying a
    run reproduces every burst.  The memo of where each chain stands is one
    :class:`LinkTable` of packed ints, key ``sender << 32 | receiver`` and
    value ``(at + 1) << 1 | bad`` (so a missing link reads as 0: good,
    before iteration 0); a batched round reads it with one ``get_many`` and
    writes it back with one ``set_many``.
    """

    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.4
    loss_good: float = 0.0
    loss_bad: float = 0.9
    seed: int = 0
    #: sender << 32 | receiver -> (iteration_of_state + 1) << 1 | state_is_bad
    _state: LinkTable = field(default_factory=LinkTable, repr=False)

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        _check_seed(self.seed)

    def reset(self) -> None:
        self._state.clear()

    def _state_at(self, sender: int, receiver: int, iteration: int) -> bool:
        """True iff the directed link is in the bad state at ``iteration``."""
        key = int(sender) << 32 | int(receiver)
        packed = self._state.get(key)
        at, bad = (packed >> 1) - 1, bool(packed & 1)
        if at > iteration:
            # replay from the chain's origin: the per-step draws are keyed,
            # so recomputation gives the identical path
            bad, at = False, -1
        for k in range(at + 1, iteration + 1):
            u = _link_uniform(self.seed, 3, sender, receiver, k, 0)
            bad = (u < self.p_good_to_bad) if not bad else (u >= self.p_bad_to_good)
        self._state.set(key, (iteration + 1) << 1 | bad)
        return bad

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        bad = self._state_at(sender, receiver, iteration)
        p = self.loss_bad if bad else self.loss_good
        if p <= 0.0:
            return LinkOutcome.DELIVER
        if p >= 1.0:
            return LinkOutcome.DROP
        u = _link_uniform(self.seed, 4, sender, receiver, iteration, nonce)
        return LinkOutcome.DROP if u < p else LinkOutcome.DELIVER

    def classify_many(self, sender, receivers, distances, iteration, nonces):
        receivers = np.asarray(receivers)
        n = receivers.shape[0]
        senders = np.broadcast_to(np.asarray(sender), receivers.shape)
        keys = (senders.astype(np.int64) << 32) | receivers.astype(np.int64)
        packed = self._state.get_many(keys)
        at = (packed >> 1) - 1
        bad = (packed & 1).astype(bool)
        stale = at > iteration  # replay those from the chain's origin
        at[stale] = -1
        bad[stale] = False
        # advance every directed link's chain to ``iteration`` in lockstep;
        # the per-step draws are keyed on (link, step), so batching them
        # changes nothing about the paths the scalar replay would take —
        # duplicate links in one round redo identical draws and agree
        for k in range(int(at.min()) + 1 if n else iteration + 1, iteration + 1):
            step = at < k
            u = link_uniform_many(self.seed, 3, senders[step], receivers[step], k, 0)
            b = bad[step]
            bad[step] = np.where(b, u >= self.p_bad_to_good, u < self.p_good_to_bad)
        self._state.set_many(keys, bad + ((iteration + 1) << 1))
        p = np.where(bad, self.loss_bad, self.loss_good)
        out = np.where(p >= 1.0, OUTCOME_DROP, OUTCOME_DELIVER).astype(np.int8)
        drawn = (p > 0.0) & (p < 1.0)
        if drawn.any():
            u = link_uniform_many(
                self.seed, 4, senders[drawn], receivers[drawn], iteration,
                np.asarray(nonces)[drawn],
            )
            out[drawn] = np.where(u < p[drawn], OUTCOME_DROP, OUTCOME_DELIVER)
        return out

    def delivery_probability(self, distance: float) -> float:
        denom = self.p_good_to_bad + self.p_bad_to_good
        pi_bad = self.p_good_to_bad / denom if denom > 0 else 0.0
        return 1.0 - (pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good)

    def snapshot(self) -> dict:
        # the chain positions are a replayable memo (state at k is a pure
        # function of seed/link/k), but carrying them keeps the lazy advance
        # O(1) after a restore instead of replaying every chain from origin
        state = super().snapshot()
        state["chains"] = [
            [int(key >> 32), int(key & 0xFFFFFFFF), bool(packed & 1), int(packed >> 1) - 1]
            for key, packed in self._state.items()
        ]
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._state = LinkTable(
            (int(s) << 32 | int(r), (int(at) + 1) << 1 | bool(bad))
            for s, r, bad, at in state["chains"]
        )


@dataclass
class DelayingLink(LinkModel):
    """Convert a fraction of an inner model's deliveries into one-iteration-late
    deliveries (the medium parks them and flushes at the next iteration)."""

    inner: LinkModel = field(default_factory=LinkModel)
    p_delay: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_delay <= 1.0:
            raise ValueError(f"p_delay must be in [0, 1], got {self.p_delay}")
        _check_seed(self.seed)

    def reset(self) -> None:
        self.inner.reset()

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["inner"] = self.inner.snapshot()
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.inner.restore(state["inner"])

    def delivery_probability(self, distance: float) -> float:
        return self.inner.delivery_probability(distance)

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        outcome = self.inner.classify(sender, receiver, distance, iteration, nonce)
        if outcome is not LinkOutcome.DELIVER or self.p_delay <= 0.0:
            return outcome
        u = _link_uniform(self.seed, 5, sender, receiver, iteration, nonce)
        return LinkOutcome.DELAY if u < self.p_delay else LinkOutcome.DELIVER

    def classify_many(self, sender, receivers, distances, iteration, nonces):
        receivers = np.asarray(receivers)
        distances = np.asarray(distances, dtype=np.float64)
        nonces = np.asarray(nonces)
        out = self.inner.classify_many(sender, receivers, distances, iteration, nonces)
        if self.p_delay <= 0.0:
            return out
        m = out == OUTCOME_DELIVER
        if m.any():
            senders = np.broadcast_to(np.asarray(sender), receivers.shape)
            u = link_uniform_many(
                self.seed, 5, senders[m], receivers[m], iteration, nonces[m]
            )
            out = out.copy()
            out[m] = np.where(u < self.p_delay, OUTCOME_DELAY, OUTCOME_DELIVER)
        return out

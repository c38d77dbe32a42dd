"""Unreliable-channel models: per-link delivery decided by a pluggable LinkModel.

The seed repository's :class:`~repro.network.medium.Medium` delivered every
message perfectly — the overhearing trick the paper builds CDPF around was
never stressed by the lossy radios it was designed for (the paper's first
future-work item, §VIII-1, asks exactly for this evaluation).  A
:class:`LinkModel` decides, per (sender, receiver, iteration), whether a
transmission is **delivered**, **dropped**, or **delayed** by one filter
iteration.

Design constraints, all load-bearing for the test tier:

* **Determinism** — every random draw is the first ``random()`` of a
  generator seeded by a :class:`numpy.random.SeedSequence` keyed on
  ``(seed, sender, receiver, iteration, nonce)``, so the same seed
  reproduces the same drop pattern bit-for-bit regardless of how many
  unrelated draws happened in between.  The ``nonce`` distinguishes
  multiple messages on the same link within one iteration (they would
  otherwise share one fate).  :mod:`repro.kernels.delivery` replays that
  chain without building the objects: ``link_uniform`` for one copy,
  ``link_uniform_many`` for a batch.  A model is a pure function of
  ``(seed, link, iteration, nonce)``: it keeps nothing between calls, so
  its snapshot names only its type.
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
    link_uniform,
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


def _check_seed(seed: int) -> None:
    """Reject a seed SeedSequence would refuse, before the first draw does."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


class LinkTable:
    """Int values keyed by packed directed links, ``sender << 32 | receiver``.

    Absent links read as 0.  Reads and writes are batched: each call
    searches two sorted int64 arrays with one ``searchsorted``, where a dict
    of a few thousand links costs a Python probe per key.  The medium keeps
    one iteration's link-nonce counters in one.
    """

    def __init__(self) -> None:
        self._keys = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0, dtype=np.int64)

    def items(self) -> list[tuple[int, int]]:
        """``(key, value)`` pairs in key order."""
        return list(zip(self._keys.tolist(), self._values.tolist()))

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        pos, hit = self._find(keys)
        out = np.zeros(keys.shape[0], dtype=np.int64)
        out[hit] = self._values[pos[hit]]
        return out

    def set_many(self, keys: np.ndarray, values) -> None:
        """Write ``values`` at ``keys``; a repeated key keeps its last value."""
        values = np.asarray(values, dtype=np.int64)
        if not (keys[1:] > keys[:-1]).all():  # else already sorted and distinct
            keys, last = np.unique(keys[::-1], return_index=True)
            values = values[::-1][last]
        pos, hit = self._find(keys)
        self._values[pos[hit]] = values[hit]
        miss = ~hit
        if miss.any():
            self._keys = np.insert(self._keys, pos[miss], keys[miss])
            self._values = np.insert(self._values, pos[miss], values[miss])

    def _find(self, keys: np.ndarray):
        pos = self._keys.searchsorted(keys)
        hit = pos < self._keys.size
        hit[hit] = self._keys[pos[hit]] == keys[hit]
        return pos, hit


#: LinkOutcome -> the int8 code of the batched classify path.
_OUTCOME_CODE = {
    LinkOutcome.DELIVER: OUTCOME_DELIVER,
    LinkOutcome.DROP: OUTCOME_DROP,
    LinkOutcome.DELAY: OUTCOME_DELAY,
}


#: up to this many copies (repeated links counted), the Gilbert-Elliott
#: catch-up and classify keep their bookkeeping in Python: below it, their
#: ~40 array operations cost more than the draws
_FEW_LINKS = 64


def _distinct(keys: np.ndarray):
    """``(distinct sorted keys, inverse)``, with ``inverse`` None when the
    keys already ascend strictly (a broadcast round's copies do)."""
    if (keys[1:] > keys[:-1]).all():
        return keys, None
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class LinkModel:
    """Base class: always deliver.  Subclasses override :meth:`classify`.

    ``classify`` receives the directed link, the sender-receiver distance and
    the iteration; the medium calls it once per (message, receiver) pair and
    passes a ``nonce`` that increments across messages on the same link within
    one iteration.  A copy's fate depends on nothing else, so a caller may
    classify a link's copies ahead of sending them (an ARQ round draws them
    in batches).  A model keeps no per-link state: a Gilbert-Elliott chain's
    state is recomputed from its keyed draws by every call that needs it.
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

    # -- checkpoint protocol -------------------------------------------------
    # Every draw is keyed on (seed, link, iteration, nonce), so the models
    # are stateless: a snapshot names the type, which restore checks, and
    # restore ignores any other key (older Gilbert-Elliott snapshots carry a
    # ``chains`` memo).  Static parameters are never carried: restore
    # happens into an identically configured model.

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
        u = link_uniform(self.seed, 1, sender, receiver, iteration, nonce)
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
        u = link_uniform(self.seed, 2, sender, receiver, iteration, nonce)
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

    The state at iteration ``k`` is a pure function of the seed, the link,
    and ``k``, so replaying a run reproduces every burst.  Every chain starts
    good before step 0; step ``k`` draws ``u_k`` (tag 3) and moves good ->
    bad iff ``u_k < p_good_to_bad`` and bad -> good iff ``u_k <
    p_bad_to_good``.  With ``lo``/``hi`` the smaller/larger of the two, a
    draw ``u < lo`` flips the state, ``u >= hi`` keeps it, and ``lo <= u <
    hi`` sets it to ``p_good_to_bad > p_bad_to_good`` whatever it was (a
    coupling step).  So the state at ``k`` is the state the last coupling
    step set (good if none did), XOR the parity of the flips after it, and
    every call walks back from ``k``, drawing ``u_k, u_{k-1}, ...``, until a
    coupling draw or through step 0: at most ``k + 1`` draws, the forward
    replay's count, and ``1 / (hi - lo)`` expected (2.86 at the defaults);
    with equal probabilities nothing couples and the walk draws every step.
    Nothing is remembered between calls.
    """

    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.4
    loss_good: float = 0.0
    loss_bad: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        _check_seed(self.seed)

    def _coupling(self) -> tuple[float, float, bool]:
        """``(lo, hi, coupled)``: a step's draw ``u < lo`` flips the state,
        ``u >= hi`` keeps it, and ``lo <= u < hi`` sets it to ``coupled``
        whatever it was."""
        g2b, b2g = self.p_good_to_bad, self.p_bad_to_good
        return min(g2b, b2g), max(g2b, b2g), g2b > b2g

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        (bad,) = self._advance_few([int(sender)], [int(receiver)], iteration)
        p = self.loss_bad if bad else self.loss_good
        if p <= 0.0:
            return LinkOutcome.DELIVER
        if p >= 1.0:
            return LinkOutcome.DROP
        u = link_uniform(self.seed, 4, sender, receiver, iteration, nonce)
        return LinkOutcome.DROP if u < p else LinkOutcome.DELIVER

    def advance(self, senders, receivers, iteration: int) -> np.ndarray:
        """Whether each directed link's chain is in the bad state at
        ``iteration``, aligned with ``receivers``.

        ``senders`` is a scalar or a per-link array.  Each chain walks back
        from ``iteration`` over its keyed step draws (see the class
        docstring) until a coupling draw or through step 0; the walks move
        in lockstep, one ``link_uniform_many`` call per step over the links
        still walking.  The draws are keyed on (link, step), so batching
        them changes nothing about the state the one-link walk finds; a
        link repeated in one call walks once.
        """
        receivers = np.asarray(receivers)
        senders = np.broadcast_to(np.asarray(senders), receivers.shape)
        if receivers.shape[0] <= _FEW_LINKS:
            return np.array(
                self._advance_few(senders.tolist(), receivers.tolist(), iteration), dtype=bool
            )
        keys, inverse = _distinct((senders.astype(np.int64) << 32) | receivers.astype(np.int64))
        senders, receivers = keys >> 32, keys & 0xFFFFFFFF
        lo, hi, coupled = self._coupling()
        bad = np.zeros(receivers.shape[0], dtype=bool)
        flip = np.zeros(receivers.shape[0], dtype=bool)
        walking = np.arange(receivers.shape[0])
        for k in range(iteration, -1, -1):
            if not walking.size:
                break
            u = link_uniform_many(self.seed, 3, senders[walking], receivers[walking], k, 0)
            flip[walking] ^= u < lo
            set_here = (u >= lo) & (u < hi)
            bad[walking[set_here]] = coupled
            walking = walking[~set_here]
        bad ^= flip
        return bad if inverse is None else bad[inverse]

    def _advance_few(self, senders: list, receivers: list, iteration: int) -> list[bool]:
        """:meth:`advance` for a handful of links: the same lockstep walk,
        with its bookkeeping in Python, where array operations on a few
        elements cost more than the draws."""
        lo, hi, coupled = self._coupling()
        chains: dict[int, list] = {}  # key -> [sender, receiver, bad, flip]
        for s, r in zip(senders, receivers):
            chains.setdefault(s << 32 | r, [s, r, False, False])
        walking = list(chains.values())
        for k in range(iteration, -1, -1):
            if not walking:
                break
            u = link_uniform_many(
                self.seed, 3, np.array([c[0] for c in walking]),
                np.array([c[1] for c in walking]), k, 0,
            )
            still = []
            for chain, uk in zip(walking, u.tolist()):
                if uk < lo:
                    chain[3] = not chain[3]
                elif uk < hi:
                    chain[2] = coupled
                    continue
                still.append(chain)
            walking = still
        bad = {key: chain[2] != chain[3] for key, chain in chains.items()}
        return [bad[s << 32 | r] for s, r in zip(senders, receivers)]

    def classify_many(self, sender, receivers, distances, iteration, nonces):
        receivers = np.asarray(receivers)
        senders = np.broadcast_to(np.asarray(sender), receivers.shape)
        if receivers.shape[0] <= _FEW_LINKS:
            return self._classify_few(senders.tolist(), receivers.tolist(), iteration, nonces)
        bad = self.advance(senders, receivers, iteration)
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

    def _classify_few(self, senders: list, receivers: list, iteration: int, nonces) -> np.ndarray:
        """:meth:`classify_many` for a handful of copies, the same draws
        with Python bookkeeping."""
        nonces = np.broadcast_to(np.asarray(nonces), (len(receivers),)).tolist()
        out = []
        drawn = []
        for i, bad in enumerate(self._advance_few(senders, receivers, iteration)):
            p = self.loss_bad if bad else self.loss_good
            if p <= 0.0:
                out.append(OUTCOME_DELIVER)
            elif p >= 1.0:
                out.append(OUTCOME_DROP)
            else:
                out.append(p)
                drawn.append(i)
        if drawn:
            u = link_uniform_many(
                self.seed, 4, np.array([senders[i] for i in drawn]),
                np.array([receivers[i] for i in drawn]), iteration,
                np.array([nonces[i] for i in drawn]),
            )
            for i, ui in zip(drawn, u.tolist()):
                out[i] = OUTCOME_DROP if ui < out[i] else OUTCOME_DELIVER
        return np.array(out, dtype=np.int8)

    def delivery_probability(self, distance: float) -> float:
        denom = self.p_good_to_bad + self.p_bad_to_good
        pi_bad = self.p_good_to_bad / denom if denom > 0 else 0.0
        return 1.0 - (pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good)


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
        u = link_uniform(self.seed, 5, sender, receiver, iteration, nonce)
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

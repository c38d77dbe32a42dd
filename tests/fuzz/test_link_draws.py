"""Properties of the link layer's draws against their references.

* ``link_uniform_many`` and the scalar replay ``link_uniform`` must equal
  numpy's own ``SeedSequence -> PCG64 -> random()`` chain (kept here as the
  reference) for every key: seeds of any size (multi-word seeds past 2^32,
  2^64 and 2^128 included), every tag, scalar or per-copy
  seed/sender/iteration/nonce, and empty batches.
* ``GilbertElliottLink.classify_many`` must equal the scalar ``classify``
  loop, with duplicate links in one round, iteration gaps (multi-step
  chain advance), and an earlier iteration asked after a later one (replay
  from the chain's origin); the packed chain memos must agree too.
* The chain's ``advance`` ahead of scalar ``classify`` calls must change
  nothing: the same outcomes, and the same memo entry for every link a
  round classified, bare or under a ``DelayingLink``, with repeated links,
  links advanced but never used, and an advance to an iteration before a
  link's memo.
* The Gilbert-Elliott catch-up walks back from the asked iteration to the
  last coupling step; it must equal the forward replay, step by step from
  the memo or the origin (kept here as ``_forward_state_at`` /
  ``_forward_advance``), in states, outcomes, memo entries and snapshots,
  for either order of the two transition probabilities, equal ones, 0 and
  1, draws landing exactly on either probability, and memos missing, one
  step behind, far behind and past the asked iteration.  It never draws
  more than the replay, and a fresh link far ahead resolves in a few
  draws.
* A medium with a Gilbert-Elliott link snapshotted at an iteration
  boundary, restored into a fresh medium and continued must match the
  medium that never stopped, copy for copy.
"""

import json
import types
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.kernels.delivery import (
    OUTCOME_DELAY,
    OUTCOME_DELIVER,
    OUTCOME_DROP,
    link_uniform,
    link_uniform_many,
)
from repro.network import links
from repro.network.links import DelayingLink, GilbertElliottLink, LinkOutcome
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel

_CODE = {
    LinkOutcome.DELIVER: OUTCOME_DELIVER,
    LinkOutcome.DROP: OUTCOME_DROP,
    LinkOutcome.DELAY: OUTCOME_DELAY,
}


def _link_uniform(seed: int, *key: int) -> float:
    """The reference draw: numpy's own SeedSequence -> PCG64 -> random()."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return float(np.random.default_rng(ss).random())


_words = st.integers(0, 2**32 - 1)
_seeds = st.one_of(
    st.integers(0, 2**130 - 1),
    st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128 + 3]),
)


def _scalar_or_per_copy(draw, elements, n):
    return draw(st.one_of(elements, st.lists(elements, min_size=n, max_size=n)))


@st.composite
def _draw_keys(draw):
    n = draw(st.integers(0, 64))
    return (
        _scalar_or_per_copy(draw, _seeds, n),
        draw(st.integers(1, 5)),
        _scalar_or_per_copy(draw, _words, n),
        draw(st.lists(_words, min_size=n, max_size=n)),
        _scalar_or_per_copy(draw, _words, n),
        _scalar_or_per_copy(draw, _words, n),
    )


def _at(value, i):
    return value[i] if isinstance(value, list) else value


@given(keys=_draw_keys())
def test_link_uniform_many_equals_seed_sequence(keys):
    seed, tag, sender, receivers, iteration, nonces = keys
    got = link_uniform_many(seed, tag, sender, receivers, iteration, nonces)
    expected = [
        _link_uniform(_at(seed, i), tag, _at(sender, i), r, _at(iteration, i), _at(nonces, i))
        for i, r in enumerate(receivers)
    ]
    assert got.shape == (len(receivers),)
    assert got.tolist() == expected


@given(
    seed=_seeds,
    tag=st.integers(1, 5),
    sender=_words,
    receiver=_words,
    iteration=_words,
    nonce=_words,
)
def test_link_uniform_equals_seed_sequence(seed, tag, sender, receiver, iteration, nonce):
    got = link_uniform(seed, tag, sender, receiver, iteration, nonce)
    assert got == _link_uniform(seed, tag, sender, receiver, iteration, nonce)


_probabilities = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)


@st.composite
def _ge_params(draw):
    return dict(
        p_good_to_bad=draw(_probabilities),
        p_bad_to_good=draw(_probabilities),
        loss_good=draw(st.sampled_from([0.0, 0.05, 0.3])),
        loss_bad=draw(st.sampled_from([0.5, 0.9, 1.0])),
        seed=draw(st.integers(0, 2**40)),
    )


@st.composite
def _rounds(draw):
    """Rounds over a handful of nodes, so links repeat within a round; the
    iterations come in any order, with gaps, and a last round asks the
    first round's iteration again after the later ones."""

    def one_round(iteration):
        n = draw(st.integers(0, 12))
        nodes = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        sender = draw(st.one_of(st.integers(0, 3), nodes))
        nonces = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return iteration, sender, draw(nodes), nonces

    iterations = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    return [one_round(k) for k in iterations + iterations[:1]]


@given(params=_ge_params(), rounds=_rounds())
def test_gilbert_elliott_batched_equals_scalar(params, rounds):
    scalar = GilbertElliottLink(**params)
    batched = GilbertElliottLink(**params)
    for iteration, sender, receivers, nonces in rounds:
        expected = [
            _CODE[scalar.classify(_at(sender, i), r, 1.0, iteration, nonces[i])]
            for i, r in enumerate(receivers)
        ]
        got = batched.classify_many(
            sender if np.ndim(sender) == 0 else np.array(sender, dtype=np.int64),
            np.array(receivers, dtype=np.int64),
            np.ones(len(receivers)),
            iteration,
            np.array(nonces, dtype=np.int64),
        )
        assert got.tolist() == expected
    assert batched._state == scalar._state
    assert batched.snapshot() == scalar.snapshot()


@st.composite
def _advance_rounds(draw):
    """Rounds over three nodes: each advances a list of links (repeats and
    links no copy uses included), then classifies copies one at a time.
    The iterations come in any order and the last round asks the first
    one's again, so some advances go back past a link's memo."""
    links = st.tuples(st.integers(0, 2), st.integers(0, 2))
    copies = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))

    def one_round(iteration):
        return iteration, draw(st.lists(links, max_size=10)), draw(st.lists(copies, max_size=8))

    iterations = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    return [one_round(k) for k in iterations + iterations[:1]]


@given(params=_ge_params(), delaying=st.booleans(), rounds=_advance_rounds())
@example(  # link 0 -> 1 is bad at 5 and good at 2: going back must replay
    params=dict(p_good_to_bad=0.5, p_bad_to_good=0.5, loss_good=0.0, loss_bad=0.9, seed=2),
    delaying=False,
    rounds=[(5, [(0, 1)], [(0, 1, 0)]), (2, [(0, 1), (0, 1)], [(0, 1, 1)])],
)
def test_advance_then_scalar_classify_equals_scalar_classify(params, delaying, rounds):
    def make():
        chain = GilbertElliottLink(**params)
        return (DelayingLink(chain, p_delay=0.3, seed=5) if delaying else chain), chain

    advanced, advanced_chain = make()
    scalar, scalar_chain = make()
    for iteration, links, copies in rounds:
        senders = np.array([a for a, _b in links], dtype=np.int64)
        receivers = np.array([b for _a, b in links], dtype=np.int64)
        advanced_chain.advance(senders, receivers, iteration)
        got = [advanced.classify(a, b, 1.0, iteration, nc) for a, b, nc in copies]
        expected = [scalar.classify(a, b, 1.0, iteration, nc) for a, b, nc in copies]
        assert got == expected
        # the advanced side may hold more links, or links it advanced but
        # did not use at another position; every link used must agree
        for a, b, _nc in copies:
            key = a << 32 | b
            assert advanced_chain._state.get(key) == scalar_chain._state.get(key)


def _forward_state_at(self, sender: int, receiver: int, iteration: int) -> bool:
    """True iff the directed link is in the bad state at ``iteration``."""
    key = int(sender) << 32 | int(receiver)
    packed = self._state.get(key)
    at, bad = (packed >> 1) - 1, bool(packed & 1)
    if at > iteration:
        # replay from the chain's origin: the per-step draws are keyed,
        # so recomputation gives the identical path
        bad, at = False, -1
    for k in range(at + 1, iteration + 1):
        u = link_uniform(self.seed, 3, sender, receiver, k, 0)
        bad = (u < self.p_good_to_bad) if not bad else (u >= self.p_bad_to_good)
    self._state.set(key, (iteration + 1) << 1 | bad)
    return bad


def _forward_advance(self, senders, receivers, iteration: int) -> np.ndarray:
    """The batched forward replay: the chains step in lockstep from the
    oldest memo, one draw per link per step it is behind."""
    receivers = np.asarray(receivers)
    n = receivers.shape[0]
    senders = np.broadcast_to(np.asarray(senders), receivers.shape)
    keys = (senders.astype(np.int64) << 32) | receivers.astype(np.int64)
    packed = self._state.get_many(keys)
    at = (packed >> 1) - 1
    bad = (packed & 1).astype(bool)
    stale = at > iteration  # replay those from the chain's origin
    at[stale] = -1
    bad[stale] = False
    for k in range(int(at.min()) + 1 if n else iteration + 1, iteration + 1):
        step = at < k
        u = link_uniform_many(self.seed, 3, senders[step], receivers[step], k, 0)
        b = bad[step]
        bad[step] = np.where(b, u >= self.p_bad_to_good, u < self.p_good_to_bad)
    self._state.set_many(keys, bad + ((iteration + 1) << 1))
    return bad


def _forward(params) -> GilbertElliottLink:
    """A Gilbert-Elliott link whose catch-up is the forward replay."""
    chain = GilbertElliottLink(**params)
    chain._state_at = types.MethodType(_forward_state_at, chain)
    chain.advance = types.MethodType(_forward_advance, chain)
    return chain


@contextmanager
def _counted_draws():
    """Count the draws the link models (and the forward replay) make; the
    count is a one-element list, read after each call."""
    count = [0]
    scalar, many = links.link_uniform, links.link_uniform_many

    def counted_scalar(*key):
        count[0] += 1
        return scalar(*key)

    def counted_many(seed, tag, sender, receivers, iteration, nonces):
        count[0] += len(receivers)
        return many(seed, tag, sender, receivers, iteration, nonces)

    spaces = (links.__dict__, globals())
    for space in spaces:
        space["link_uniform"], space["link_uniform_many"] = counted_scalar, counted_many
    try:
        yield count
    finally:
        for space in spaces:
            space["link_uniform"], space["link_uniform_many"] = scalar, many


_edge_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 0.05, 0.4]), st.floats(0.0, 1.0, allow_nan=False)
)


@st.composite
def _walk_params(draw):
    g2b = draw(_edge_probabilities)
    return dict(
        p_good_to_bad=g2b,
        p_bad_to_good=draw(st.one_of(st.just(g2b), _edge_probabilities)),
        loss_good=draw(st.sampled_from([0.0, 0.3])),
        loss_bad=draw(st.sampled_from([0.9, 1.0])),
        seed=draw(st.integers(0, 2**40)),
    )


@st.composite
def _catch_up_rounds(draw):
    """Rounds over three nodes, each a list of links to advance (repeats
    included) and of copies to classify.  Each round's iteration moves on
    from the last by 0, 1 or 2 steps, jumps far ahead, or goes back, so a
    link's memo is missing, one step behind, far behind or past it."""
    link = st.tuples(st.integers(0, 2), st.integers(0, 2))
    copy = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
    move = st.one_of(st.sampled_from([0, 1, 2]), st.integers(20, 200), st.integers(-10, -1))
    iteration = draw(st.integers(0, 20))
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        rounds.append((iteration, draw(st.lists(link, max_size=8)), draw(st.lists(copy, max_size=6))))
        iteration = max(iteration + draw(move), 0)
    return rounds


def _drawn(k: int) -> float:
    """Step ``k``'s draw on link 0 -> 1 under seed 2, from SeedSequence."""
    return _link_uniform(2, 3, 0, 1, k, 0)


# link 0 -> 1 under seed 2: probabilities equal to its step-3 and step-6
# draws (0.125 and 0.466), so draws land exactly on lo and on hi; the rounds
# ask it fresh at 6 and 3, then past, one step behind and far behind a memo
_BOUNDARY_ROUNDS = [
    (6, [(0, 1)], [(0, 1, 0)]),
    (3, [(0, 1), (0, 1)], [(0, 1, 0), (0, 1, 1)]),
    (6, [(0, 1)], [(0, 1, 0)]),
    (7, [(0, 1), (1, 0)], [(0, 1, 0)]),
    (40, [(0, 1)], [(1, 0, 0)]),
]


@given(params=_walk_params(), delaying=st.booleans(), rounds=_catch_up_rounds())
@example(
    params=dict(p_good_to_bad=_drawn(3), p_bad_to_good=_drawn(6), loss_good=0.0,
                loss_bad=1.0, seed=2),
    delaying=False,
    rounds=_BOUNDARY_ROUNDS,
)
@example(
    params=dict(p_good_to_bad=_drawn(6), p_bad_to_good=_drawn(3), loss_good=0.0,
                loss_bad=1.0, seed=2),
    delaying=True,
    rounds=_BOUNDARY_ROUNDS,
)
def test_walk_equals_forward_replay(params, delaying, rounds):
    def make(chain):
        return (DelayingLink(chain, p_delay=0.3, seed=5) if delaying else chain), chain

    batched, chain = make(GilbertElliottLink(**params))
    batched_ref, chain_ref = make(_forward(params))
    scalar, scalar_chain = make(GilbertElliottLink(**params))
    scalar_ref, scalar_chain_ref = make(_forward(params))
    for iteration, pairs, copies in rounds:
        senders = np.array([a for a, _b in pairs], dtype=np.int64)
        receivers = np.array([b for _a, b in pairs], dtype=np.int64)
        got = chain.advance(senders, receivers, iteration)
        assert got.tolist() == chain_ref.advance(senders, receivers, iteration).tolist()
        args = (
            np.array([a for a, _b, _n in copies], dtype=np.int64),
            np.array([b for _a, b, _n in copies], dtype=np.int64),
            np.ones(len(copies)),
            iteration,
            np.array([nc for _a, _b, nc in copies], dtype=np.int64),
        )
        assert batched.classify_many(*args).tolist() == batched_ref.classify_many(*args).tolist()
        for a, b, nc in copies:
            assert scalar.classify(a, b, 1.0, iteration, nc) == scalar_ref.classify(
                a, b, 1.0, iteration, nc
            )
    assert chain._state == chain_ref._state
    assert scalar_chain._state == scalar_chain_ref._state
    assert batched.snapshot() == batched_ref.snapshot()
    assert scalar.snapshot() == scalar_ref.snapshot()


@given(params=_walk_params(), rounds=_catch_up_rounds())
def test_walk_never_draws_more_than_forward_replay(params, rounds):
    walk, forward = GilbertElliottLink(**params), _forward(params)
    scalar, scalar_forward = GilbertElliottLink(**params), _forward(params)
    with _counted_draws() as count:
        for iteration, pairs, copies in rounds:
            senders = np.array([a for a, _b in pairs], dtype=np.int64)
            receivers = np.array([b for _a, b in pairs], dtype=np.int64)
            before = count[0]
            walk.advance(senders, receivers, iteration)
            walked = count[0] - before
            forward.advance(senders, receivers, iteration)
            assert walked <= count[0] - before - walked
            for a, b, _nc in copies:
                before = count[0]
                scalar._state_at(a, b, iteration)
                walked = count[0] - before
                scalar_forward._state_at(a, b, iteration)
                assert walked <= count[0] - before - walked


def test_fresh_link_far_ahead_resolves_in_few_draws():
    # the forward replay draws every step from the origin: 2 001 per link
    for seed in range(4):
        for sender, receiver in [(0, 1), (7, 3), (12, 40)]:
            with _counted_draws() as count:
                walked = GilbertElliottLink(seed=seed)._state_at(sender, receiver, 2000)
                n_scalar = count[0]
                batched = GilbertElliottLink(seed=seed).advance(
                    np.array([sender]), np.array([receiver]), 2000
                )
                n_batched = count[0] - n_scalar
                replayed = _forward({"seed": seed})._state_at(sender, receiver, 2000)
                n_forward = count[0] - n_scalar - n_batched
            assert n_forward == 2001
            assert n_scalar < 64 and n_batched == n_scalar
            assert walked == bool(batched[0]) == replayed


_RADIO = RadioModel(comm_radius=12.0)
_POSITIONS = np.array(
    [[0.0, 0.0], [8.0, 0.0], [4.0, 6.0], [11.0, 7.0], [2.0, 11.0], [9.0, 12.0]]
)


def _medium(params) -> Medium:
    return Medium(_POSITIONS, _RADIO, link_model=GilbertElliottLink(**params))


def _play(medium: Medium, schedule) -> list:
    """Each iteration: one batched round of broadcasts, then one unicast."""
    seen = []
    for iteration, senders, (a, b) in schedule:
        batch = medium.transmission_batch(iteration)
        for s in senders:
            batch.broadcast(s, MeasurementMessage(sender=s, iteration=iteration, value=1.0))
        deliveries = batch.flush()
        if a != b and _RADIO.in_range(_POSITIONS[a], _POSITIONS[b]):
            message = MeasurementMessage(sender=a, iteration=iteration, value=2.0)
            deliveries.append(medium.unicast(a, b, message, iteration))
        seen.append(
            [(d.receivers.tolist(), d.dropped.tolist(), d.delayed.tolist()) for d in deliveries]
        )
    return seen


@st.composite
def _schedules(draw):
    n_iterations = draw(st.integers(2, 6))
    schedule = []
    for k in range(n_iterations):
        senders = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
        pair = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        schedule.append((k, senders, pair))
    return schedule, draw(st.integers(1, n_iterations - 1))


@given(params=_ge_params(), schedule_cut=_schedules())
def test_snapshot_restore_continue_matches_uninterrupted(params, schedule_cut):
    schedule, cut = schedule_cut
    straight = _medium(params)
    reference = _play(straight, schedule)
    first = _medium(params)
    head = _play(first, schedule[:cut])
    snapshot = first.snapshot()
    snapshot["link_model"] = json.loads(json.dumps(snapshot["link_model"]))
    resumed = _medium(params)
    resumed.restore(snapshot)
    tail = _play(resumed, schedule[cut:])
    assert head + tail == reference
    assert resumed.link_model.snapshot() == straight.link_model.snapshot()
    assert resumed.accounting.dropped_by_key == straight.accounting.dropped_by_key


@pytest.mark.parametrize(
    "prop",
    [
        test_gilbert_elliott_batched_equals_scalar,
        test_advance_then_scalar_classify_equals_scalar_classify,
        test_walk_equals_forward_replay,
        test_walk_never_draws_more_than_forward_replay,
    ],
    ids=lambda prop: prop.__name__,
)
def test_properties_hold_on_the_array_pass(prop, monkeypatch):
    """The Gilbert-Elliott properties above draw rounds of a few links,
    which ``advance`` and ``classify_many`` walk with Python bookkeeping;
    the same properties must hold with every call on the array pass."""
    monkeypatch.setattr(links, "_FEW_LINKS", -1)
    prop()

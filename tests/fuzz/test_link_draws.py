"""Properties of the vectorized link layer against its scalar references.

* ``link_uniform_many`` must equal ``_link_uniform`` — numpy's own
  ``SeedSequence -> PCG64 -> random()`` chain — for every key: seeds of any
  size (multi-word seeds past 2^32, 2^64 and 2^128 included), every tag,
  scalar or per-copy seed/sender/iteration/nonce, and empty batches.
* ``GilbertElliottLink.classify_many`` must equal the scalar ``classify``
  loop, with duplicate links in one round, iteration gaps (multi-step
  chain advance), and an earlier iteration asked after a later one (replay
  from the chain's origin); the packed chain memos must agree too.
* A medium with a Gilbert-Elliott link snapshotted at an iteration
  boundary, restored into a fresh medium and continued must match the
  medium that never stopped, copy for copy.
"""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels.delivery import (
    OUTCOME_DELAY,
    OUTCOME_DELIVER,
    OUTCOME_DROP,
    link_uniform_many,
)
from repro.network.links import GilbertElliottLink, LinkOutcome, _link_uniform
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel

_CODE = {
    LinkOutcome.DELIVER: OUTCOME_DELIVER,
    LinkOutcome.DROP: OUTCOME_DROP,
    LinkOutcome.DELAY: OUTCOME_DELAY,
}

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

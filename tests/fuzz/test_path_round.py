"""``unicast_path``'s walk on a ``UnicastRound`` against the per-copy walk.

Every multi-hop unicast (DPF's routes and hand-offs, CDPF's sink report,
CPF's faulted lossless convergecast) walks its packet on a
``UnicastRound``: one attempt per hop, no ack.  The reference is the
hop-by-hop walk it replaced (``tests/network/per_copy.py``), each hop's fate
from a one-key nonce read and a scalar ``classify``, with the round's two
rule edits.  Three media replay the same iterations: one sends each path
through the reference, one through ``Medium.unicast_path`` (a one-path
round each), and one walks all of an iteration's paths in one shared
round.  All three must agree on every ``Delivery`` or raised error, the
ledger (totals, ``by_phase_key``, ``dropped_by_phase_key``), the nonce
store, the inbox log and the parked copies; a second iteration later on
starts a fresh nonce store and sees the first one's parked copies fall due.

A path naming a node outside the deployment must raise ``ValueError``
having drawn and charged nothing; the reference walk only checks senders,
so for such a path it delivers due copies and nothing else.

Drawn: IID, Gilbert-Elliott (the two transition probabilities <, = and >
each other), distance-fading and ``DelayingLink(GE)`` links, or none; a
loss-burst override and a partition; crashed and sleeping relays and
destinations, some both crashed and asleep; positions drifted off the routing geometry so hops leave
range; greedy routes toward one sink (sharing their last hops), repeated
paths, and walks over grid neighbors that may revisit nodes, step off the
grid (a bad id) or stay a single node; and
broadcasts earlier in the iteration so nonce counters start above zero.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.network.messages import MeasurementMessage
from repro.network.routing import RoutingError, greedy_path
from repro.network.spatial import GridIndex

from ..network import per_copy
from .test_arq_round import _RADIO, _SPACING, _medium


@st.composite
def worlds(draw):
    """A jittered grid (routing geometry), what the medium sees, and two
    iterations of paths."""
    side = draw(st.integers(3, 4))
    n = side * side
    jitter = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=n, max_size=n))
    believed = np.array(
        [[(i % side) * _SPACING + jx / 10, (i // side) * _SPACING + jy / 10]
         for i, (jx, jy) in enumerate(jitter)]
    )
    physical = believed.copy()
    if draw(st.booleans()):  # node drift: some hops leave radio range
        moves = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=n, max_size=n))
        physical = believed + np.array(moves) / 10
    ids = st.integers(0, n - 1)
    crashed = draw(st.lists(ids, max_size=2))
    # a node both crashed and asleep drops silently rather than raising
    asleep = draw(st.lists(ids, max_size=2)) + crashed[: draw(st.integers(0, 1))]
    return dict(
        believed=believed,
        physical=physical,
        link=draw(st.sampled_from(["none", "iid", "ge-lt", "ge-eq", "ge-gt", "fading", "delaying-ge"])),
        seed=draw(st.integers(0, 2**20)),
        burst=draw(st.booleans()),
        partition=draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n))),
        crashed=crashed,
        asleep=asleep,
        side=side,
        sink=draw(ids),
        rounds=[draw(_round(n)) for _ in range(2)],
        iteration=draw(st.integers(0, 4)),
        later=draw(st.integers(1, 3)),
    )


@st.composite
def _round(draw, n):
    ids = st.integers(0, n - 1)
    return dict(
        # a greedy route from a source to the sink, an earlier path again,
        # or a walk over grid neighbors from a start node (a step off the
        # grid names a node outside [0, n))
        paths=draw(st.lists(
            st.one_of(
                st.tuples(st.just("routed"), ids),
                st.tuples(st.just("repeat"), st.integers(0, 5)),
                st.tuples(st.just("walk"), st.tuples(ids, st.lists(
                    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), max_size=4
                ))),
            ),
            min_size=1, max_size=6,
        )),
        broadcasters=draw(st.lists(ids, max_size=3)),
    )


def _walk(side, start, steps):
    path = [start]
    x, y = start % side, start // side
    for dx, dy in steps:
        x, y = x + dx, y + dy
        if not (0 <= x < side and 0 <= y < side):
            path.append(-1 if min(x, y) < 0 else side * side)
            break
        path.append(y * side + x)
    return path


def _paths(world, spec, index):
    paths = []
    for kind, arg in spec["paths"]:
        if kind == "walk":
            paths.append(_walk(world["side"], *arg))
        elif kind == "repeat":
            paths.append(paths[arg % len(paths)] if paths else [arg, world["sink"]])
        else:
            try:
                paths.append(greedy_path(index, arg, world["sink"], _RADIO))
            except RoutingError:
                paths.append([arg, world["sink"]])
    return paths


def _outcome(send):
    try:
        d = send()
    except (RuntimeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return (d.receivers.tolist(), d.dropped.tolist(), d.delayed.tolist(), d.n_bytes, d.n_messages)


def _play(side, medium, paths, messages, iteration):
    """One iteration's paths through one side; returns what each did."""
    n = medium.n_nodes
    bad = [len(p) >= 2 and not all(0 <= v < n for v in p) for p in paths]
    if side == "reference":
        out = []
        for path, message, is_bad in zip(paths, messages, bad):
            if is_bad:
                medium.flush_delayed(iteration)
                out.append(("ValueError", "bad id"))
            else:
                out.append(_outcome(
                    lambda: per_copy.unicast_path(medium, path, message, iteration)
                ))
        return out
    if side == "one-path rounds":
        out = [
            _outcome(lambda: medium.unicast_path(path, message, iteration))
            for path, message in zip(paths, messages)
        ]
    else:
        rnd = medium.unicast_round(iteration)
        out = [
            _outcome(lambda: rnd.walk(path, message))
            for path, message in zip(paths, messages)
        ]
        rnd.commit()
    for i, is_bad in enumerate(bad):
        if is_bad:
            assert out[i][0] == "ValueError", out[i]
            out[i] = ("ValueError", "bad id")
    return out


def _state(medium):
    acc = medium.accounting
    return dict(
        totals=(acc.total_bytes, acc.total_messages, acc.total_dropped_bytes, acc.total_dropped_messages),
        by_phase_key=acc.by_phase_key,
        dropped_by_phase_key=acc.dropped_by_phase_key,
        nonces=(medium._nonce_iteration, medium._nonces.items()),
        inbox=[(r.tolist(), id(m)) for r, m in medium._inbox_log],
        delayed=[(due, node, id(m)) for due, node, m in medium._delayed],
    )


@given(world=worlds())
def test_path_round_equals_per_copy_walk(world):
    index = GridIndex(world["believed"], _RADIO.comm_radius)
    sides = {
        side: _medium(world) for side in ("reference", "one-path rounds", "shared round")
    }
    iterations = [world["iteration"], world["iteration"] + world["later"]]
    for spec, iteration in zip(world["rounds"], iterations):
        paths = _paths(world, spec, index)
        # message objects shared by every side, so the inbox logs compare
        # by identity
        messages = [
            MeasurementMessage(sender=i, iteration=iteration, value=float(i))
            for i in range(len(paths))
        ]
        broadcasts = [
            MeasurementMessage(sender=s, iteration=iteration, value=0.5)
            for s in spec["broadcasters"]
        ]
        seen = []
        for side, medium in sides.items():
            for s, message in zip(spec["broadcasters"], broadcasts):
                if not medium.is_asleep(s):
                    medium.broadcast(s, message, iteration)
            with medium.phase("report"):
                out = _play(side, medium, paths, messages, iteration)
            seen.append((out, _state(medium)))
        assert seen[1] == seen[0]
        assert seen[2] == seen[0]

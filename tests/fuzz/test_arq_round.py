"""CPF's stop-and-wait ARQ round against the per-copy reference, bit for bit.

``ReliableUnicast.send_many`` draws each round's copy fates ahead, in
batched calls, and runs stop-and-wait as bookkeeping over them.  The
reference below is the per-copy implementation it replaced, kept verbatim:
``send_path`` walks each hop with ``_send_hop``, one ``Medium.unicast`` per
data or ack copy.  Both run the same round on identical fresh media, and
must agree on every ``Delivery``, the blacklist, the ledger (totals,
``by_phase_key``, ``dropped_by_phase_key``), the nonce store, the inbox log
and the parked copies.  The draw may leave Gilbert-Elliott memo entries the
per-copy walk never made, so instead of comparing memos a second round at a
later iteration must agree too.

Drawn: IID, Gilbert-Elliott (the two transition probabilities <, = and >
each other), distance-fading and ``DelayingLink(GE)`` links, a loss-burst
override and a partition; crashed and sleeping relays and destinations,
and positions drifted off the routing geometry so hops leave range;
``max_retries`` 0-3, acks and route repair on and off; routes resolved
directly or at their turn (or to None), routes that share hops, the same
message twice in a round, arbitrary hop lists, known routes that are never
sent, and a broadcast earlier in the iteration so nonce counters start
above zero.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.network.links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
)
from repro.network.medium import Delivery, Medium
from repro.network.messages import AckMessage, MeasurementMessage, Message
from repro.network.radio import RadioModel
from repro.network.reliability import ReliabilityConfig, ReliableUnicast
from repro.network.routing import RoutingError, greedy_path
from repro.network.spatial import GridIndex

_EMPTY = np.array([], dtype=np.intp)


class PerCopyARQ(ReliableUnicast):
    """The per-copy stop-and-wait ARQ, one ``Medium.unicast`` per copy."""

    def send_many(self, requests, iteration: int, known=()) -> list[Delivery | None]:
        """Send a round of path transmissions; returns one result per request.

        ``requests`` is a sequence of ``(path, message)`` pairs where ``path``
        is either the hop list itself or a zero-arg callable resolving to one
        (or to ``None`` for "unroutable, skip").  Callables are invoked
        immediately before their packet is sent, so route state accumulated by
        earlier packets in the round — the timeout blacklist grown by route
        repair — feeds later routes exactly as in a sequential send loop.

        ARQ is stop-and-wait: each packet's hop outcomes decide its next
        transmission, so the packets themselves run sequentially (the batched
        fan-out lives a layer down, in the medium's broadcast rounds); this
        is the enqueue+flush *shape* for callers, not a vectorized kernel.
        Returns ``None`` for requests whose path resolved to ``None``.  A
        message sent twice in one round is filed at its destination once.
        """
        self._delivered.clear()  # duplicates are suppressed within a round
        out: list[Delivery | None] = []
        for path, message in requests:
            if callable(path):
                path = path()
            if path is None:
                out.append(None)
                continue
            out.append(self.send_path(path, message, iteration))
        self._delivered.clear()
        return out

    def send_path(self, path: list[int], message: Message, iteration: int) -> Delivery:
        """Send ``message`` along ``path`` with per-hop ARQ; returns the
        aggregate delivery (receivers == [dest] on success)."""
        if len(path) < 2:
            raise ValueError("a path needs at least a sender and a receiver")
        current = [int(p) for p in path]
        dest = current[-1]
        total_bytes = 0
        total_messages = 0
        repairs = 0
        i = 0
        while i < len(current) - 1:
            a, b = current[i], current[i + 1]
            status, hop_bytes, hop_messages = self._send_hop(
                a, b, message, iteration, is_dest=(b == dest)
            )
            total_bytes += hop_bytes
            total_messages += hop_messages
            if status == "ok":
                i += 1
                continue
            if status == "delayed":
                return Delivery(
                    receivers=_EMPTY,
                    n_bytes=total_bytes,
                    n_messages=total_messages,
                    delayed=np.array([dest], dtype=np.intp),
                )
            if status == "sender_dead":
                # the packet died in a crashed node's queue; no repair possible
                break
            # hop timed out: try to route around the dead next hop
            if (
                status == "hop_dead"
                and self.config.reroute
                and repairs < self.config.max_route_repairs
                and self._index is not None
                and self._radio is not None
                and b != dest
            ):
                self.blacklist.add(b)
                try:
                    tail = greedy_path(
                        self._index, a, dest, self._radio, exclude=self.blacklist
                    )
                except (RoutingError, ValueError):
                    break
                current = current[:i] + tail  # tail starts at a
                repairs += 1
                continue
            break
        else:
            # every hop acknowledged: the packet reached the destination
            return Delivery(
                receivers=np.array([dest], dtype=np.intp),
                n_bytes=total_bytes,
                n_messages=total_messages,
            )
        return Delivery(
            receivers=_EMPTY,
            n_bytes=total_bytes,
            n_messages=total_messages,
            dropped=np.array([dest], dtype=np.intp),
        )

    # ------------------------------------------------------------------

    def _send_hop(
        self, a: int, b: int, message: Message, iteration: int, *, is_dest: bool
    ) -> tuple[str, int, int]:
        """One stop-and-wait hop.  Returns (status, bytes, messages) where
        status is 'ok' | 'delayed' | 'hop_dead' | 'sender_dead'."""
        n_bytes = 0
        n_messages = 0
        data_delivered = False
        for _attempt in range(1 + self.config.max_retries):
            deliver_to_inbox = (
                is_dest
                and not data_delivered
                and message.dedupe_key() not in self._delivered
            )
            try:
                d = self.medium.unicast(
                    a, b, message, iteration, deliver_to_inbox=deliver_to_inbox
                )
            except RuntimeError:
                # asleep sender / geometry: not recoverable by retrying
                return ("hop_dead", n_bytes, n_messages)
            n_bytes += d.n_bytes
            n_messages += d.n_messages
            if d.n_messages == 0:
                # crashed sender: the medium recorded the silent drop
                return ("sender_dead", n_bytes, n_messages)
            if d.delayed.size:
                if is_dest:
                    # parked for next iteration: arrives, but late
                    return ("delayed", n_bytes, n_messages)
                # relay-side MAC delay: forwarding continues next slot
                data_delivered = True
            elif d.receivers.size:
                data_delivered = True
                if is_dest:
                    self._delivered[message.dedupe_key()] = message
            if not data_delivered:
                continue  # data copy lost: retransmit
            if not self.config.ack:
                return ("ok", n_bytes, n_messages)
            ack = AckMessage(sender=b, iteration=iteration)
            try:
                ad = self.medium.unicast(
                    b, a, ack, iteration, deliver_to_inbox=False
                )
            except RuntimeError:
                return ("hop_dead", n_bytes, n_messages)
            n_bytes += ad.n_bytes
            n_messages += ad.n_messages
            if ad.receivers.size or ad.delayed.size:
                return ("ok", n_bytes, n_messages)
            # ack lost: the sender times out and retransmits a duplicate,
            # which the receiver's dedupe_key suppression discards
        if data_delivered:
            # data arrived but every ack was lost: the hop succeeded even
            # though the sender cannot know it — deliver-and-pray outcome;
            # count it as success (the copy IS at b / the destination)
            return ("ok", n_bytes, n_messages)
        return ("hop_dead", n_bytes, n_messages)


_RADIO = RadioModel(comm_radius=14.0)
_SPACING = 10.0


def _link_model(kind: str, seed: int):
    if kind == "iid":
        return IIDLossLink(p_loss=0.3, seed=seed)
    if kind == "fading":
        return DistanceFadingLink(comm_radius=14.0, inner_radius=6.0, edge_probability=0.3, seed=seed)
    if kind == "delaying-ge":
        return DelayingLink(GilbertElliottLink(0.3, 0.3, loss_bad=0.8, seed=seed), p_delay=0.3, seed=seed + 1)
    g2b, b2g = {"ge-lt": (0.1, 0.4), "ge-eq": (0.3, 0.3), "ge-gt": (0.5, 0.2)}[kind]
    return GilbertElliottLink(g2b, b2g, loss_good=0.1, loss_bad=0.8, seed=seed)


@st.composite
def worlds(draw):
    """A jittered grid (routing geometry) and what the medium sees."""
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
    return dict(
        believed=believed,
        physical=physical,
        link=draw(st.sampled_from(["none", "iid", "ge-lt", "ge-eq", "ge-gt", "fading", "delaying-ge"])),
        seed=draw(st.integers(0, 2**20)),
        burst=draw(st.booleans()),
        partition=draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n))),
        crashed=draw(st.lists(ids, max_size=2)),
        asleep=draw(st.lists(ids, max_size=2)),
        sink=draw(ids),
        config=ReliabilityConfig(
            max_retries=draw(st.integers(0, 3)),
            ack=draw(st.booleans()),
            reroute=draw(st.booleans()),
            max_route_repairs=draw(st.integers(0, 2)),
        ),
        rounds=[draw(_round(n)) for _ in range(2)],
        iteration=draw(st.integers(0, 4)),
        later=draw(st.integers(1, 3)),
    )


@st.composite
def _round(draw, n):
    ids = st.integers(0, n - 1)
    walk = st.lists(ids, min_size=2, max_size=5)
    return dict(
        # (kind, source or hop list): routed at the round's start, routed at
        # the packet's turn, resolving to None, or an arbitrary hop list
        requests=draw(st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["routed", "at-turn"]), ids),
                st.tuples(st.just("none"), ids),
                st.tuples(st.just("walk"), walk),
            ),
            min_size=1, max_size=6,
        )),
        duplicate=draw(st.booleans()),
        unused_known=draw(st.one_of(st.none(), walk)),
        broadcasters=draw(st.lists(ids, max_size=3)),
    )


def _medium(world) -> Medium:
    medium = Medium(world["believed"], _RADIO)
    if world["link"] != "none":
        medium.link_model = _link_model(world["link"], world["seed"])
    if world["burst"]:
        medium.install_link_override(IIDLossLink(p_loss=0.5, seed=world["seed"] + 7))
    if world["partition"] is not None:
        medium.set_partition(np.array(world["partition"]))
    medium.update_positions(world["physical"])
    medium.fail_nodes(world["crashed"])
    medium.set_asleep(world["asleep"])
    return medium


def _route(index, source, sink, exclude):
    """The greedy route, None when there is none or nothing to send."""
    try:
        path = greedy_path(index, source, sink, _RADIO, exclude=exclude)
    except (RoutingError, ValueError):
        return None
    return path if len(path) > 1 else None


def _play_round(arq, medium, index, world, spec, iteration, messages, broadcasts):
    """One round: a few broadcasts, then the ARQ round; returns what the
    round observably did."""
    for s, message in zip(spec["broadcasters"], broadcasts):
        if not medium.is_asleep(s):
            medium.broadcast(s, message, iteration)
    sink = world["sink"]
    requests = []
    known = []
    for (kind, arg), message in zip(spec["requests"], messages):
        if kind == "walk":
            requests.append((list(arg), message))
            known.append(list(arg))
        elif kind == "none":
            requests.append((lambda: None, message))
        elif kind == "routed":
            path = _route(index, arg, sink, set(arq.blacklist))
            requests.append((path if path is not None else (lambda: None), message))
            if path is not None:
                known.append(path)
        else:  # routed at the packet's turn, around the blacklist as it stands
            requests.append((lambda arg=arg: _route(index, arg, sink, set(arq.blacklist)), message))
    if spec["duplicate"]:
        requests.append(requests[0])
    if spec["unused_known"] is not None:
        known.append(list(spec["unused_known"]))
    with medium.phase("convergecast"):
        out = arq.send_many(requests, iteration, known)
    acc = medium.accounting
    return dict(
        deliveries=[
            None if d is None else (
                d.receivers.tolist(), d.dropped.tolist(), d.delayed.tolist(), d.n_bytes, d.n_messages
            )
            for d in out
        ],
        blacklist=sorted(arq.blacklist),
        totals=(acc.total_bytes, acc.total_messages, acc.total_dropped_bytes, acc.total_dropped_messages),
        by_phase_key=acc.by_phase_key,
        dropped_by_phase_key=acc.dropped_by_phase_key,
        nonces=(medium._nonce_iteration, medium._nonces.items()),
        inbox=[(r.tolist(), id(m)) for r, m in medium._inbox_log],
        delayed=[(due, node, id(m)) for due, node, m in medium._delayed],
    )


@given(world=worlds())
def test_arq_round_equals_per_copy_reference(world):
    index = GridIndex(world["believed"], _RADIO.comm_radius)
    sides = []
    for arq_cls in (ReliableUnicast, PerCopyARQ):
        medium = _medium(world)
        sides.append((arq_cls(medium, world["config"], index=index, radio=_RADIO), medium))
    iterations = [world["iteration"], world["iteration"] + world["later"]]
    for spec, iteration in zip(world["rounds"], iterations):
        # message objects shared by both sides, so the inbox logs compare
        # by identity
        messages = [
            MeasurementMessage(sender=i, iteration=iteration, value=float(i))
            for i in range(len(spec["requests"]))
        ]
        broadcasts = [
            MeasurementMessage(sender=s, iteration=iteration, value=0.5)
            for s in spec["broadcasters"]
        ]
        got, want = (
            _play_round(arq, medium, index, world, spec, iteration, messages, broadcasts)
            for arq, medium in sides
        )
        assert got == want


def test_invalid_hop_raises_after_the_same_partial_round():
    """A hop naming a node outside the deployment raises the medium's
    ValueError at its copy's turn; what the round did before it is
    committed as the per-copy sends left it."""
    world = dict(
        believed=np.array([[x * _SPACING, 0.0] for x in range(4)]),
        physical=np.array([[x * _SPACING, 0.0] for x in range(4)]),
        link="ge-gt", seed=3, burst=False, partition=None, crashed=[], asleep=[], sink=3,
    )
    index = GridIndex(world["believed"], _RADIO.comm_radius)
    seen = []
    for arq_cls in (ReliableUnicast, PerCopyARQ):
        medium = _medium(world)
        arq = arq_cls(medium, ReliabilityConfig(max_retries=3), index=index, radio=_RADIO)
        messages = [MeasurementMessage(sender=s, iteration=2, value=1.0) for s in (0, 1)]
        requests = [([0, 1, 2, 3], messages[0]), ([1, 2, 9], messages[1])]
        try:
            arq.send_many(requests, 2, [path for path, _m in requests])
        except ValueError as exc:
            error = str(exc)
        acc = medium.accounting
        seen.append((
            error, acc.by_phase_key, acc.dropped_by_phase_key,
            (medium._nonce_iteration, medium._nonces.items()),
            [(r.tolist(), id(m)) for r, m in medium._inbox_log],
        ))
    assert seen[0] == seen[1]
    assert seen[0][0] == "receiver id 9 out of range"

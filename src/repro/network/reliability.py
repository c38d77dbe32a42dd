"""Bounded ack/retransmit reliability for unicast paths over a lossy medium.

CPF's convergecast is the one traffic pattern in the system with no overhear
redundancy: a measurement walks a single multi-hop path and a single lost hop
kills it.  Real deployments answer this with hop-by-hop ARQ — explicit acks
and a bounded number of retransmissions — which is what this layer models.
Every attempt (data and ack alike) is charged to the medium's accounting, so
the cost figures show what reliability actually buys and what it costs:
under loss, CPF's convergecast bytes grow by roughly ``1 / (1 - p)`` per hop
plus the ack overhead, while CDPF's overheard aggregation pays nothing.

Mechanics per hop ``a -> b``:

1. ``a`` transmits the data copy (charged).  A relay hop forwards without
   filing the message in an inbox; the final hop delivers to the destination.
2. On success, ``b`` returns an :class:`~repro.network.messages.AckMessage`
   (charged under ``control``).  A lost ack triggers a retransmission of
   data the receiver already has; the receiver suppresses the duplicate by
   the message's :meth:`~repro.network.messages.Message.dedupe_key` — the
   standard stop-and-wait dedupe, evaluated harness-side.
3. After ``1 + max_retries`` failed data attempts the hop is declared dead.
   With ``reroute`` enabled and a spatial index available, the sender
   blacklists the dead next hop and re-runs greedy geographic forwarding
   around it (:func:`~repro.network.routing.greedy_path` with ``exclude``) —
   the local route repair a timeout makes locally observable.  Repairs are
   bounded by ``max_route_repairs`` per packet.

A crashed *sender* cannot retransmit: its send is recorded as dropped by the
medium and the packet dies where it stands.

A round's copies run over pre-drawn fates.  A copy's fate is a pure
function of the seed, its directed link, the iteration and the link's nonce,
and a link's copies take consecutive nonces in send order, so each link's
fates form a fixed stream whichever packet consumes them.  A round
(:meth:`ReliableUnicast.send_many`) draws the streams of every data and ack
link of the routes it knows in one batched call, then runs stop-and-wait as
integer bookkeeping over them on a :class:`~repro.network.medium.UnicastRound`,
which charges the round as one ledger row per category: the outcomes,
nonces and ledger totals of sending every copy through
:meth:`~repro.network.medium.Medium.unicast` one at a time.
"""

from __future__ import annotations

import numbers
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..kernels.delivery import OUTCOME_DELAY, OUTCOME_DELIVER
from .medium import COPY_REFUSED, COPY_SENDER_DEAD, Delivery, Medium, UnicastRound
from .messages import AckMessage, Message
from .radio import RadioModel
from .routing import RoutingError, greedy_path
from .spatial import GridIndex

__all__ = ["ReliabilityConfig", "ReliableUnicast"]

_EMPTY = np.array([], dtype=np.intp)


@dataclass(frozen=True)
class ReliabilityConfig:
    """ARQ knobs: attempts are bounded so a dead link cannot spin forever."""

    max_retries: int = 2  # retransmissions per hop beyond the first attempt
    ack: bool = True  # charge explicit per-hop acks (and expose them to loss)
    reroute: bool = True  # greedy route repair around a dead next hop
    max_route_repairs: int = 2  # repairs per packet

    def __post_init__(self) -> None:
        for name in ("max_retries", "max_route_repairs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


class ReliableUnicast:
    """Hop-by-hop ARQ over a :class:`~repro.network.medium.Medium`.

    Parameters
    ----------
    medium:
        The (typically lossy) medium to send through.
    config:
        ARQ bounds; defaults are stop-and-wait with 2 retries and route repair.
    index, radio:
        Optional spatial index + radio model enabling route repair; without
        them a dead hop simply kills the packet.
    """

    def __init__(
        self,
        medium: Medium,
        config: ReliabilityConfig | None = None,
        *,
        index: GridIndex | None = None,
        radio: RadioModel | None = None,
    ) -> None:
        self.medium = medium
        self.config = config if config is not None else ReliabilityConfig()
        self._index = index
        self._radio = radio
        #: next hops declared dead by timeout (kept across packets: a crashed
        #: node stays crashed; a congested one costs only a detour)
        self.blacklist: set[int] = set()
        #: messages filed at their destination, by ``dedupe_key``; an entry
        #: lives only as long as its message, so a later message that
        #: reuses a freed message's ``id()`` is never taken for a duplicate
        self._delivered = weakref.WeakValueDictionary()

    # -- checkpoint protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """The timeout blacklist; the filed-message record is not carried
        because its keys embed ``id(message)`` — it suppresses duplicates
        within one convergecast round only, and a checkpoint boundary is
        never inside a round."""
        return {"blacklist": sorted(self.blacklist)}

    def restore(self, state: dict) -> None:
        self.blacklist = set(int(i) for i in state["blacklist"])
        self._delivered.clear()


    # ------------------------------------------------------------------

    def send_many(self, requests, iteration: int, known=()) -> list[Delivery | None]:
        """Send a round of path transmissions; returns one result per request.

        ``requests`` is a sequence of ``(path, message)`` pairs where ``path``
        is either the hop list itself or a zero-arg callable resolving to one
        (or to ``None`` for "unroutable, skip").  Callables are invoked
        immediately before their packet is sent, so route state accumulated by
        earlier packets in the round — the timeout blacklist grown by route
        repair — feeds later routes exactly as in a sequential send loop.

        ``known`` lists the routes the caller knows before the round (built
        up front or cached): the fates of every data link ``a -> b`` on them,
        and of each ack link ``b -> a`` when acks are on, are drawn in one
        call before the first packet (a :class:`~repro.network.medium.
        UnicastRound`).  Each packet's path and each repair tail take spare
        crossings of those draws and draw the rest in one call when they
        appear.  The packets then run sequentially, stop-and-wait as
        bookkeeping over those fates, in the order a per-copy loop would
        send them, so every outcome, nonce and ledger total is that loop's.

        Returns ``None`` for requests whose path resolved to ``None``.  A
        message sent twice in one round is filed at its destination once.
        """
        self._delivered.clear()  # duplicates are suppressed within a round
        try:
            return self._send_round(requests, iteration, known)
        finally:
            self._delivered.clear()

    def send_path(self, path: list[int], message: Message, iteration: int) -> Delivery:
        """Send ``message`` along ``path`` with per-hop ARQ; returns the
        aggregate delivery (receivers == [dest] on success).  The one-request
        round of :meth:`send_many`, without resetting the dedupe record."""
        return self._send_round([(path, message)], iteration, [path])[0]

    # ------------------------------------------------------------------

    def _hop_links(self, paths) -> tuple[list[int], list[int]]:
        """Senders and receivers of every copy link on ``paths``: the data
        hops, then their acks' reverse links when acks are on."""
        senders = [a for path in paths for a in path[:-1]]
        receivers = [b for path in paths for b in path[1:]]
        if self.config.ack:
            return senders + receivers, receivers + senders
        return senders, receivers

    def _send_round(self, requests, iteration: int, known) -> list[Delivery | None]:
        """The round engine: before a packet walks a path, every link
        crossing on it holds ``1 + max_retries`` fates of its own, as many as
        its stop-and-wait can use, so no stream runs out.  The known routes'
        crossings are drawn up front; a packet's path and a repair tail take
        spare crossings of those and draw the rest when they appear."""
        rnd = self.medium.unicast_round(iteration, 1 + self.config.max_retries)
        spare: Counter = Counter()
        out: list[Delivery | None] = []
        try:
            links = self._hop_links([[int(p) for p in path] for path in known])
            rnd.draw(*links)
            spare.update(zip(*links))
            for path, message in requests:
                if callable(path):
                    path = path()
                if path is None:
                    out.append(None)
                    continue
                if len(path) < 2:
                    raise ValueError("a path needs at least a sender and a receiver")
                out.append(self._send_packet(rnd, spare, [int(p) for p in path], message))
        finally:
            rnd.commit()
        return out

    def _reserve(self, rnd: UnicastRound, spare: Counter, path: list[int]) -> None:
        """Give each link crossing on ``path`` its fates: a spare crossing
        the round already drew, or new fates, drawn in one call."""
        senders: list[int] = []
        receivers: list[int] = []
        for link in zip(*self._hop_links([path])):
            if spare[link]:
                spare[link] -= 1
            else:
                senders.append(link[0])
                receivers.append(link[1])
        rnd.draw(senders, receivers)

    def _send_packet(
        self, rnd: UnicastRound, spare: Counter, current: list[int], message: Message
    ) -> Delivery:
        """One packet along the hop list ``current``: stop-and-wait per hop,
        route repair around a dead next hop."""
        self._reserve(rnd, spare, current)
        dest = current[-1]
        total_bytes = 0
        total_messages = 0
        repairs = 0
        i = 0
        while i < len(current) - 1:
            a, b = current[i], current[i + 1]
            status, hop_bytes, hop_messages = self._hop(rnd, a, b, message, is_dest=(b == dest))
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
                self.config.reroute
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
                self._reserve(rnd, spare, tail)
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

    def _hop(
        self, rnd: UnicastRound, a: int, b: int, message: Message, *, is_dest: bool
    ) -> tuple[str, int, int]:
        """One stop-and-wait hop over the round's copy codes.  Returns
        (status, bytes, messages) where status is 'ok' | 'delayed' |
        'hop_dead' | 'sender_dead'; bytes and messages count the copies the
        medium charged."""
        n_bytes = 0
        n_messages = 0
        data_bytes = message.size_bytes(self.medium.sizes)
        key = message.dedupe_key() if is_dest else None
        ack = None
        data_delivered = False
        for _attempt in range(1 + self.config.max_retries):
            to_inbox = is_dest and not data_delivered and key not in self._delivered
            code = rnd.send(a, b, message, to_inbox)
            if code == COPY_REFUSED:
                # asleep sender / hop out of range: retrying cannot help
                return ("hop_dead", n_bytes, n_messages)
            if code == COPY_SENDER_DEAD:
                # crashed sender: the medium recorded the silent drop
                return ("sender_dead", n_bytes, n_messages)
            n_bytes += data_bytes
            n_messages += 1
            if code == OUTCOME_DELAY:
                if is_dest:
                    # parked for next iteration: arrives, but late
                    return ("delayed", n_bytes, n_messages)
                # relay-side MAC delay: forwarding continues next slot
                data_delivered = True
            elif code == OUTCOME_DELIVER:
                data_delivered = True
                if is_dest:
                    self._delivered[key] = message
            if not data_delivered:
                continue  # data copy lost: retransmit
            if not self.config.ack:
                return ("ok", n_bytes, n_messages)
            if ack is None:
                ack = AckMessage(sender=b, iteration=rnd.iteration)
            code = rnd.send(b, a, ack, False)
            if code == COPY_REFUSED:
                return ("hop_dead", n_bytes, n_messages)
            if code != COPY_SENDER_DEAD:
                n_bytes += ack.size_bytes(self.medium.sizes)
                n_messages += 1
            if code == OUTCOME_DELIVER or code == OUTCOME_DELAY:
                return ("ok", n_bytes, n_messages)
            # ack lost: the sender times out and retransmits a duplicate,
            # which the receiver's dedupe_key suppression discards
        if data_delivered:
            # data arrived but every ack was lost: the hop succeeded even
            # though the sender cannot know it — deliver-and-pray outcome;
            # count it as success (the copy IS at b / the destination)
            return ("ok", n_bytes, n_messages)
        return ("hop_dead", n_bytes, n_messages)

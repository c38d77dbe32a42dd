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

Stop-and-wait sends one copy at a time, and under a Gilbert-Elliott link
each copy would first catch its link's chain up to the round's iteration,
one scalar draw per missed iteration.  :meth:`ReliableUnicast.advance`
moves that catch-up ahead of the round: one batched pass over every data
and ack link of the routes the caller already knows.
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .medium import Delivery, Medium
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

    def advance(self, routes, iteration: int) -> None:
        """Advance the link state of every hop of ``routes`` to ``iteration``
        in one batched call: data ``a -> b``, plus ack ``b -> a`` when acks
        are on, each distinct link once (routes share their hops near the
        sink).  Call it before a round over those routes; outcomes do not
        change (:meth:`~repro.network.medium.Medium.advance_links`)."""
        senders = [a for path in routes for a in path[:-1]]
        receivers = [b for path in routes for b in path[1:]]
        if not senders:
            return
        if self.config.ack:
            senders, receivers = senders + receivers, receivers + senders
        links = np.unique(
            np.array(senders, dtype=np.int64) << 32 | np.array(receivers, dtype=np.int64)
        )
        self.medium.advance_links(links >> 32, links & 0xFFFFFFFF, iteration)

    def send_many(self, requests, iteration: int) -> list[Delivery | None]:
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

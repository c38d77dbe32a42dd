"""The shared wireless medium: delivery, overhearing, loss, and cost accounting.

Semantics follow the paper's round-based simulation:

* ``broadcast`` delivers a message to **every awake node within the
  communication radius** of the sender — this is the *overhearing effect*
  (§I, [14]) that CDPF exploits: any node in a predicted area hears all
  particle broadcasts, so the total weight arrives as a side product.
* ``unicast`` models one hop of a routed transmission; multi-hop forwarding
  (``unicast_path``: CPF's convergecast, DPF's routes and hand-offs, CDPF's
  sink report) charges one message per hop, exactly as in the ``D_m * H_i``
  term of Table I.
* Every transmission is logged into a :class:`CommAccounting` ledger, broken
  down by iteration and by message category, so each figure's cost series is
  read straight from the ledger.

The plane is organized around **rounds, not messages**, with one engine per
transmission kind.  Broadcasters enqueue into a :class:`TransmissionBatch`
and one ``flush()`` resolves the whole round — receiver sets come from one
:meth:`~repro.network.spatial.GridIndex.box_candidates` gather of the grid
cells the senders' query boxes overlap, cut to each sender's disk by one
distance mask, on the index of a shared
:class:`~repro.network.neighborhood.NeighborhoodCache` (with per-sender
results cached until availability or positions change), loss/delay outcomes
come from one :func:`~repro.kernels.delivery.batch_deliver` kernel call over
every open copy in the round, and the ledger takes one append per message.
The per-message ``broadcast`` is a thin wrapper over a one-element batch.
Every unicast copy resolves on a :class:`UnicastRound`: each link's copy
fates drawn ahead in batches, each copy resolved by integer bookkeeping, the
round committed to the ledger (one charged and one dropped row per
category), nonce counters and inboxes at its end.  Stop-and-wait ARQ, whose
next copy depends on the last one's outcome, sends its copies through one
round; ``unicast_path`` is a one-path round walking its packet with one
attempt per hop, CPF's faulted lossless convergecast walks all its paths in
one round, and ``unicast`` is a one-copy round.

A path's walk keeps the rules of ``unicast`` and of broadcasts at its two
edges: (a) a sleeping transmitter anywhere on ``path[:-1]`` raises up
front, with the range check and before anything is drawn or charged, even
when an earlier hop would have lost the packet; (b) a copy to a
destination that is down is charged but draws no fate, so it is never
logged as dropped.  A bad node id anywhere on the path, the destination's
included, raises ``ValueError``.

Inboxes are likewise round-structured: a delivery appends one ``(receivers,
message)`` entry to a shared log instead of one list append per receiver, and
``collect_many`` materializes several nodes' inboxes lazily in one scan of the
log from their cursors (``collect`` is its one-node call).  At paper
densities a broadcast reaches >1000 receivers of which only the recorder set
ever reads its inbox, so the log turns the dominant O(copies) Python cost
into O(messages).

Unreliable channels (paper §VIII-1's future-work evaluation) are opt-in: a
:class:`~repro.network.links.LinkModel` decides per (message, receiver)
whether the copy is delivered, dropped, or delayed one iteration.  Drops are
recorded per recipient in the :class:`Delivery` result and in a parallel
*dropped* ledger on :class:`CommAccounting` — transmission cost is unchanged
(the sender pays for the transmission whether or not anyone decodes it),
which is exactly why a medium with a zero-loss link model is byte-for-byte
identical to one with no link model at all.  Fault plans additionally hook in
through :meth:`Medium.install_link_override` (loss bursts) and
:meth:`Medium.set_partition` (region partitions).

Crashed nodes drop their own transmissions silently (recorded in the dropped
ledger) instead of raising: a node program cannot know its radio died, and
fault plans inject fresh crashes between the availability check and the send.

The medium never lets a node read another node's state — algorithms see only
their inbox, which is what "completely distributed" means operationally.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..kernels.delivery import (
    OUTCOME_DELAY,
    OUTCOME_DELIVER,
    OUTCOME_DROP,
    batch_deliver,
)
from ..kernels.geometry import norm2d_many
from .links import LinkModel, LinkTable
from .messages import DataSizes, Message
from .neighborhood import NeighborhoodCache
from .radio import RadioModel

__all__ = [
    "COPY_LOST",
    "COPY_REFUSED",
    "COPY_SENDER_DEAD",
    "CommAccounting",
    "Medium",
    "Delivery",
    "TransmissionBatch",
    "UnicastRound",
]

_EMPTY_IDS = np.array([], dtype=np.intp)


class _AppendLog:
    """Growable struct-of-arrays ledger log.

    Five int64 columns — iteration, category id, phase id, bytes, messages —
    stored as one ``(5, capacity)`` block with amortized-doubling growth, so
    a batched flush appends a whole round with one slice assignment and the
    dict ledgers of the old implementation are materialized lazily instead of
    mutated per message.
    """

    __slots__ = ("_buf", "n")

    def __init__(self) -> None:
        self._buf = np.zeros((5, 16), dtype=np.int64)
        self.n = 0

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self._buf.shape[1]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        grown = np.zeros((5, cap), dtype=np.int64)
        grown[:, : self.n] = self._buf[:, : self.n]
        self._buf = grown

    def append(self, iteration: int, cat_id: int, phase_id: int, n_bytes: int, n_messages: int) -> None:
        self._reserve(1)
        col = self.n
        buf = self._buf
        buf[0, col] = iteration
        buf[1, col] = cat_id
        buf[2, col] = phase_id
        buf[3, col] = n_bytes
        buf[4, col] = n_messages
        self.n = col + 1

    def extend(self, iterations, cat_ids, phase_ids, n_bytes, n_messages) -> None:
        k = len(n_bytes)
        if k == 0:
            return
        self._reserve(k)
        sl = slice(self.n, self.n + k)
        buf = self._buf
        buf[0, sl] = iterations
        buf[1, sl] = cat_ids
        buf[2, sl] = phase_ids
        buf[3, sl] = n_bytes
        buf[4, sl] = n_messages
        self.n += k

    def rows(self) -> np.ndarray:
        return self._buf[:, : self.n]

    def snapshot(self) -> np.ndarray:
        return self.rows().copy()

    def restore(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.shape[1]
        cap = 16
        while cap < n:
            cap *= 2
        self._buf = np.zeros((5, cap), dtype=np.int64)
        self._buf[:, :n] = rows
        self.n = n


class CommAccounting:
    """Ledger of transmissions: bytes and message counts, total and per key.

    Keys are ``(iteration, category)``; convenience views aggregate either
    axis.  ``record`` is the single entry point so totals can never drift
    from the breakdowns.

    A parallel *dropped* ledger (same keys) counts per-recipient copies lost
    to an unreliable channel or to a crashed sender.  Dropped entries never
    touch the transmission totals: the radio energy was spent whether or not
    the copy decoded, so cost figures are loss-invariant while loss studies
    read the dropped views.

    When a phase scope is active (``with medium.phase("propagation"):`` — the
    runtime's :class:`~repro.runtime.pipeline.PhasePipeline` opens one around
    every phase body), each entry is *additionally* filed under
    ``(iteration, category, phase)`` in ``by_phase_key`` /
    ``dropped_by_phase_key``.  Traffic charged outside any scope lands on the
    empty phase name ``""``, so the phase marginals always sum to the totals
    — Table I's per-phase rows are read straight from these views.

    Storage is struct-of-arrays: every entry appends one row of int64
    columns (iteration / category id / phase id / bytes / messages) to an
    append-only log, and the legacy dict ledgers — ``by_key``,
    ``dropped_by_key``, ``by_phase_key``, ``dropped_by_phase_key`` — are
    **lazily materialized views** over those rows, cached until the next
    append.  Totals stay plain integer attributes (the phase pipeline reads
    them before/after every phase body, so they must be O(1)).
    """

    def __init__(self, sizes: DataSizes | None = None) -> None:
        self.sizes = sizes if sizes is not None else DataSizes()
        self.total_bytes = 0
        self.total_messages = 0
        self.total_dropped_bytes = 0
        self.total_dropped_messages = 0
        #: phase scope stack; the innermost name wins attribution, so a nested
        #: pipeline (multi-target tracks inside a wrapper phase) files its
        #: traffic under its own detailed phases
        self.phase_stack: list[str] = []
        self._charged = _AppendLog()
        self._dropped = _AppendLog()
        self._cat_ids: dict[str, int] = {}
        self._cats: list[str] = []
        self._phase_ids: dict[str, int] = {"": 0}
        self._phases: list[str] = [""]
        self._view_cache: dict[str, tuple[int, dict]] = {}

    # -- phase scopes ----------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self.phase_stack[-1] if self.phase_stack else ""

    def push_phase(self, name: str) -> None:
        self.phase_stack.append(str(name))

    def pop_phase(self) -> None:
        self.phase_stack.pop()

    # -- interning -------------------------------------------------------

    def _cat_id(self, category: str) -> int:
        cid = self._cat_ids.get(category)
        if cid is None:
            cid = len(self._cats)
            self._cat_ids[category] = cid
            self._cats.append(category)
        return cid

    def _phase_id(self, phase: str) -> int:
        pid = self._phase_ids.get(phase)
        if pid is None:
            pid = len(self._phases)
            self._phase_ids[phase] = pid
            self._phases.append(phase)
        return pid

    # -- recording -------------------------------------------------------

    def record(self, iteration: int, category: str, n_bytes: int, n_messages: int = 1) -> None:
        if n_bytes < 0 or n_messages < 0:
            raise ValueError("accounting entries must be non-negative")
        self.total_bytes += n_bytes
        self.total_messages += n_messages
        self._charged.append(
            iteration, self._cat_id(category), self._phase_id(self.current_phase), n_bytes, n_messages
        )

    def record_dropped(
        self, iteration: int, category: str, n_bytes: int, n_messages: int = 1
    ) -> None:
        """Log per-recipient copies lost in flight (channel loss / dead sender)."""
        if n_bytes < 0 or n_messages < 0:
            raise ValueError("accounting entries must be non-negative")
        self.total_dropped_bytes += n_bytes
        self.total_dropped_messages += n_messages
        self._dropped.append(
            iteration, self._cat_id(category), self._phase_id(self.current_phase), n_bytes, n_messages
        )

    def _rows_for(self, iteration, categories, n_bytes, n_messages):
        n_bytes = np.asarray(n_bytes, dtype=np.int64)
        n_messages = np.asarray(n_messages, dtype=np.int64)
        if n_messages.ndim == 0:
            n_messages = np.full(n_bytes.shape, int(n_messages), dtype=np.int64)
        if (n_bytes < 0).any() or (n_messages < 0).any():
            raise ValueError("accounting entries must be non-negative")
        k = n_bytes.shape[0]
        iterations = np.asarray(iteration, dtype=np.int64)
        if iterations.ndim == 0:
            iterations = np.full(k, int(iterations), dtype=np.int64)
        cat_ids = np.fromiter((self._cat_id(c) for c in categories), dtype=np.int64, count=k)
        phase_ids = np.full(k, self._phase_id(self.current_phase), dtype=np.int64)
        return iterations, cat_ids, phase_ids, n_bytes, n_messages

    def record_rows(self, iteration, categories, n_bytes, n_messages=1) -> None:
        """Batched :meth:`record`: one row per message, one slice append.

        ``iteration`` and ``n_messages`` may be scalars (applied to every
        row) or per-row sequences; ``categories`` is one string per row.
        """
        rows = self._rows_for(iteration, categories, n_bytes, n_messages)
        self._charged.extend(*rows)
        self.total_bytes += int(rows[3].sum())
        self.total_messages += int(rows[4].sum())

    def record_dropped_rows(self, iteration, categories, n_bytes, n_messages=1) -> None:
        """Batched :meth:`record_dropped`, same row semantics as :meth:`record_rows`."""
        rows = self._rows_for(iteration, categories, n_bytes, n_messages)
        self._dropped.extend(*rows)
        self.total_dropped_bytes += int(rows[3].sum())
        self.total_dropped_messages += int(rows[4].sum())

    # -- lazily materialized dict views ----------------------------------

    def _build_view(self, log: _AppendLog, with_phase: bool) -> dict:
        rows = log.rows()
        out: dict = {}
        if rows.shape[1] == 0:
            return out
        its = rows[0].tolist()
        cids = rows[1].tolist()
        bs = rows[3].tolist()
        ms = rows[4].tolist()
        cats = self._cats
        if with_phase:
            phases = self._phases
            pids = rows[2].tolist()
            for it, c, p, b, m in zip(its, cids, pids, bs, ms):
                key = (it, cats[c], phases[p])
                entry = out.get(key)
                if entry is None:
                    out[key] = [b, m]
                else:
                    entry[0] += b
                    entry[1] += m
        else:
            for it, c, b, m in zip(its, cids, bs, ms):
                key = (it, cats[c])
                entry = out.get(key)
                if entry is None:
                    out[key] = [b, m]
                else:
                    entry[0] += b
                    entry[1] += m
        return out

    def _view(self, name: str, log: _AppendLog, with_phase: bool) -> dict:
        cached = self._view_cache.get(name)
        if cached is not None and cached[0] == log.n:
            return cached[1]
        view = self._build_view(log, with_phase)
        self._view_cache[name] = (log.n, view)
        return view

    @property
    def by_key(self) -> dict[tuple[int, str], list]:
        """(iteration, category) -> [bytes, messages], materialized lazily."""
        return self._view("by_key", self._charged, False)

    @property
    def dropped_by_key(self) -> dict[tuple[int, str], list]:
        return self._view("dropped_by_key", self._dropped, False)

    @property
    def by_phase_key(self) -> dict[tuple[int, str, str], list]:
        """(iteration, category, phase) -> [bytes, messages], materialized lazily."""
        return self._view("by_phase_key", self._charged, True)

    @property
    def dropped_by_phase_key(self) -> dict[tuple[int, str, str], list]:
        return self._view("dropped_by_phase_key", self._dropped, True)

    # -- aggregated views ------------------------------------------------

    def bytes_by_iteration(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for (it, _cat), (b, _m) in self.by_key.items():
            out[it] += b
        return dict(out)

    def messages_by_iteration(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for (it, _cat), (_b, m) in self.by_key.items():
            out[it] += m
        return dict(out)

    def bytes_by_category(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, cat), (b, _m) in self.by_key.items():
            out[cat] += b
        return dict(out)

    def messages_by_category(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, cat), (_b, m) in self.by_key.items():
            out[cat] += m
        return dict(out)

    def dropped_messages_by_iteration(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for (it, _cat), (_b, m) in self.dropped_by_key.items():
            out[it] += m
        return dict(out)

    def dropped_messages_by_category(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, cat), (_b, m) in self.dropped_by_key.items():
            out[cat] += m
        return dict(out)

    def dropped_bytes_by_category(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, cat), (b, _m) in self.dropped_by_key.items():
            out[cat] += b
        return dict(out)

    # -- phase-attributed views -----------------------------------------

    def bytes_by_phase(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, _cat, phase), (b, _m) in self.by_phase_key.items():
            out[phase] += b
        return dict(out)

    def messages_by_phase(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, _cat, phase), (_b, m) in self.by_phase_key.items():
            out[phase] += m
        return dict(out)

    def bytes_by_category_phase(self) -> dict[tuple[str, str], int]:
        """(category, phase) -> bytes: Table I's per-phase rows, measured."""
        out: dict[tuple[str, str], int] = defaultdict(int)
        for (_it, cat, phase), (b, _m) in self.by_phase_key.items():
            out[(cat, phase)] += b
        return dict(out)

    def dropped_bytes_by_phase(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, _cat, phase), (b, _m) in self.dropped_by_phase_key.items():
            out[phase] += b
        return dict(out)

    def dropped_messages_by_phase(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_it, _cat, phase), (_b, m) in self.dropped_by_phase_key.items():
            out[phase] += m
        return dict(out)

    # -- checkpoint protocol ---------------------------------------------

    def snapshot(self) -> dict:
        """Totals, both SoA logs, the intern tables, and the phase stack.

        The lazily materialized dict views are derived caches and are not
        carried; they rebuild on first access after a restore.
        """
        return {
            "total_bytes": int(self.total_bytes),
            "total_messages": int(self.total_messages),
            "total_dropped_bytes": int(self.total_dropped_bytes),
            "total_dropped_messages": int(self.total_dropped_messages),
            "phase_stack": list(self.phase_stack),
            "charged": self._charged.snapshot(),
            "dropped": self._dropped.snapshot(),
            "categories": list(self._cats),
            "phases": list(self._phases),
        }

    def restore(self, state: dict) -> None:
        self.total_bytes = int(state["total_bytes"])
        self.total_messages = int(state["total_messages"])
        self.total_dropped_bytes = int(state["total_dropped_bytes"])
        self.total_dropped_messages = int(state["total_dropped_messages"])
        self.phase_stack = [str(p) for p in state["phase_stack"]]
        self._cats = [str(c) for c in state["categories"]]
        self._cat_ids = {c: i for i, c in enumerate(self._cats)}
        self._phases = [str(p) for p in state["phases"]]
        self._phase_ids = {p: i for i, p in enumerate(self._phases)}
        self._charged.restore(state["charged"])
        self._dropped.restore(state["dropped"])
        self._view_cache = {}

    def merge(self, other: "CommAccounting") -> None:
        for mine, theirs in ((self._charged, other._charged), (self._dropped, other._dropped)):
            rows = theirs.rows()
            if rows.shape[1] == 0:
                continue
            cat_map = np.fromiter(
                (self._cat_id(c) for c in other._cats), dtype=np.int64, count=len(other._cats)
            )
            phase_map = np.fromiter(
                (self._phase_id(p) for p in other._phases), dtype=np.int64, count=len(other._phases)
            )
            mine.extend(rows[0], cat_map[rows[1]], phase_map[rows[2]], rows[3], rows[4])
        self.total_bytes += other.total_bytes
        self.total_messages += other.total_messages
        self.total_dropped_bytes += other.total_dropped_bytes
        self.total_dropped_messages += other.total_dropped_messages


@dataclass(frozen=True)
class Delivery:
    """Result of one transmission: who heard it, who lost it, what it cost.

    ``receivers + dropped + delayed`` partition the recipients the radio
    *offered* the message to (in range and available); a reliable medium
    always reports empty ``dropped``/``delayed``.
    """

    receivers: np.ndarray  # node ids that received the message
    n_bytes: int
    n_messages: int
    dropped: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)  # copies lost in flight
    delayed: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)  # arrive next iteration

    @property
    def n_offered(self) -> int:
        """Recipient slots the radio offered (delivered + dropped + delayed)."""
        return int(self.receivers.size + self.dropped.size + self.delayed.size)


def _failed_send(
    accounting: CommAccounting, iteration: int, message: Message, n_bytes: int
) -> Delivery:
    """A crashed sender's transmission: silently lost, logged as dropped."""
    accounting.record_dropped(iteration, message.category, n_bytes, 1)
    return Delivery(receivers=_EMPTY_IDS, n_bytes=0, n_messages=0)


class TransmissionBatch:
    """One communication round of broadcasts: enqueue them, flush them together.

    A phase enqueues every broadcast it wants to make, plus any out-of-band
    charges, and a single :meth:`flush` resolves them **in enqueue order**
    (ordering is what keeps the per-link nonces, and therefore every loss
    draw, identical to sending the same messages one by one) as one
    vectorized round: receiver sets from the medium's offered-receiver
    overlay (one ``box_candidates`` gather and one distance mask for the
    senders it misses), one ``batch_deliver`` kernel call over every open
    copy, one availability mask, and batched ledger appends.  Unicast
    copies, single hops and multi-hop paths alike, run on a
    :class:`UnicastRound` instead.

    ``flush`` returns one :class:`Delivery` per enqueued broadcast, in
    enqueue order (out-of-band charges produce no delivery).  A batch is
    single-use: flushing twice raises.
    """

    def __init__(self, medium: "Medium", iteration: int) -> None:
        self.medium = medium
        self.iteration = int(iteration)
        self._entries: list[tuple[int, Message]] = []
        self._charges: list[tuple[str, int, int]] = []
        self._flushed = False

    def broadcast(self, sender: int, message: Message) -> int:
        """Enqueue a one-hop broadcast; returns the entry's index in the flush."""
        self._entries.append((int(sender), message))
        return len(self._entries) - 1

    def charge_out_of_band(self, category: str, n_bytes: int, n_messages: int) -> None:
        """Enqueue an accounting-only charge (no inbox delivery, no Delivery)."""
        self._charges.append((category, int(n_bytes), int(n_messages)))

    def __len__(self) -> int:
        return len(self._entries)

    def flush(self) -> list[Delivery]:
        if self._flushed:
            raise RuntimeError("TransmissionBatch already flushed")
        self._flushed = True
        medium = self.medium
        iteration = self.iteration
        medium.flush_delayed(iteration)
        deliveries = medium._flush_broadcasts(self._entries, iteration)
        if self._charges:
            medium.accounting.record_rows(
                iteration,
                [c for c, _b, _m in self._charges],
                [b for _c, b, _m in self._charges],
                [m for _c, _b, m in self._charges],
            )
        return deliveries


#: what became of one copy sent through a :class:`UnicastRound`, beyond the
#: link fates ``OUTCOME_DELIVER`` / ``OUTCOME_DROP`` / ``OUTCOME_DELAY``
COPY_LOST = 3  # charged, but the receiver sleeps or has crashed
COPY_REFUSED = 4  # neither sent nor charged: the sender sleeps or the hop is out of range
COPY_SENDER_DEAD = 5  # the sender has crashed: logged as dropped, nothing on the air

# a round's link states, in the reverse of the order a copy's checks run
# (:meth:`UnicastRound.send`): a copy is charged iff its link's state is at
# most _RECEIVER_DOWN, and only _FATES links consume nonces
(
    _FATES,  # the next fate of the link's drawn stream
    _CLEAR,  # no link model: delivered, no nonce
    _CROSSING,  # across the partition: dropped, no nonce
    _RECEIVER_DOWN,
    _OUT_OF_RANGE,
    _BAD_RECEIVER,
    _ASLEEP,
    _CRASHED,
    _BAD_SENDER,
) = range(9)


class UnicastRound:
    """A round of unicast copies over pre-drawn link fates: the medium's one
    unicast engine.

    A copy's fate is a pure function of the seed, the directed link, the
    iteration and the copy's nonce (a Gilbert-Elliott chain's state
    included: no link model keeps state between calls), and a link's copies
    in one iteration take consecutive nonces from the link's counter in
    send order.  So each link's fates form a fixed stream, whichever
    message ends up using them, and stop-and-wait ARQ — whose next copy
    depends on the last one's outcome — can run as integer bookkeeping, as
    can a path's single-attempt walk:

    * :meth:`draw` classifies the links it has not seen yet — crashed or
      sleeping sender, receiver down, hop out of range (``in_range_many``),
      partition crossing — and draws ``depth`` fates per occurrence of every
      link that needs them, all in one ``batch_deliver`` call (nonces from
      each link's counter, distances from ``norm2d_many``, override on the
      base model's nonce, as a broadcast round does).  Drawing consumes no
      nonce and changes no model, so fates drawn for links no copy uses
      (ack links, unused routes) cost only their draws; a stream that runs
      out is extended from where it stopped.
    * :meth:`send` resolves one copy from its link's state and a cursor into
      the link's stream, and returns an ``OUTCOME_*`` or ``COPY_*`` code.
      Its checks run in this order: sender id (``ValueError``), crashed
      sender (``COPY_SENDER_DEAD``, a silent drop logged as dropped),
      sleeping sender, receiver id (``ValueError``), radio range
      (``COPY_REFUSED``, uncharged); then the copy is charged, and a
      receiver that is down loses it (``COPY_LOST``, no fate drawn), and
      otherwise the link's next fate decides.
    * :meth:`walk` sends one packet along a path, one attempt per hop and no
      ack: :meth:`Medium.unicast_path`.
    * :meth:`commit` writes what the round did: each used link's nonce
      counter (one ``set_many``), one charged and one dropped ledger row per
      category, and the inbox entries and parked copies in send order.

    Built by :meth:`Medium.unicast_round`; the medium must not change
    (positions, faults, link models) while a round is open, and only one
    round is open at a time.
    """

    def __init__(self, medium: "Medium", iteration: int, depth: int) -> None:
        self.medium = medium
        self.iteration = int(iteration)
        self._depth = max(int(depth), 1)
        #: (sender, receiver) -> [state, fates (bytes of OUTCOME_* codes),
        #: fates used, the link's nonce counter at the round's start]
        self._links: dict[tuple[int, int], list] = {}
        self._charged: dict[str, list[int]] = {}  # category -> [bytes, messages]
        self._dropped: dict[str, list[int]] = {}
        self._inbox: list[tuple[int, Message]] = []
        self._parked: list[tuple[int, Message]] = []
        self._started = False
        self._committed = False

    # -- the draw ----------------------------------------------------------

    def draw(self, senders, receivers) -> None:
        """Reserve ``depth`` fates for each occurrence of a link ``senders[i]
        -> receivers[i]``: links this round has not seen are classified and
        drawn, open streams are extended, all in one ``batch_deliver``."""
        counts = Counter(zip(map(int, senders), map(int, receivers)))
        if not counts:
            return
        medium = self.medium
        n = medium.n_nodes
        links = self._links
        valid = []
        extend = []
        for key in counts:
            link = links.get(key)
            if link is not None:
                if link[0] == _FATES:
                    extend.append(key)
                continue
            s, r = key
            if not 0 <= s < n:
                links[key] = [_BAD_SENDER]
            elif s in medium._failed:
                links[key] = [_CRASHED]
            elif s in medium._asleep:
                links[key] = [_ASLEEP]
            elif not 0 <= r < n:
                links[key] = [_BAD_RECEIVER]
            else:
                valid.append(key)
        opened = []
        if valid:
            pairs = np.array(valid, dtype=np.int64)
            s, r = pairs[:, 0], pairs[:, 1]
            pos = medium.positions
            state = np.full(s.size, _FATES, dtype=np.int64)
            if medium._partition is not None:
                state[medium._partition[s] != medium._partition[r]] = _CROSSING
            if medium.link_model is None and medium._link_override is None:
                state[state == _FATES] = _CLEAR
            state[~medium._available[r]] = _RECEIVER_DOWN
            state[~medium.radio.in_range_many(pos[s], pos[r])] = _OUT_OF_RANGE
            for key, st in zip(valid, state.tolist()):
                if st == _FATES:
                    opened.append(key)
                else:
                    links[key] = [st]
            if opened:
                bases = self._nonce_bases(opened)
                for key, base in zip(opened, bases.tolist()):
                    links[key] = [_FATES, b"", 0, base]
        todo = extend + opened
        if todo:
            streams = self._fates(
                todo,
                [links[key][3] + len(links[key][1]) for key in todo],
                [self._depth * counts[key] for key in todo],
            )
            for key, stream in zip(todo, streams):
                links[key][1] += stream

    def _nonce_bases(self, links: list[tuple[int, int]]) -> np.ndarray:
        """The links' nonce counters at the round's iteration, read without
        opening a new store (a round that consumes no nonce leaves the
        medium's store as it found it)."""
        medium = self.medium
        if medium._nonce_iteration != self.iteration:
            return np.zeros(len(links), dtype=np.int64)
        return medium._nonces.get_many(
            np.fromiter((s << 32 | r for s, r in links), dtype=np.int64, count=len(links))
        )

    def _fates(self, links, starts, counts) -> list[bytes]:
        """``counts[i]`` fates of link ``links[i]`` from nonce ``starts[i]``
        on, for every link in one ``batch_deliver`` call."""
        medium = self.medium
        pairs = np.array(links, dtype=np.int64)
        sp = medium.positions[pairs[:, 0]]
        rp = medium.positions[pairs[:, 1]]
        distances = norm2d_many(sp[:, 0] - rp[:, 0], sp[:, 1] - rp[:, 1]).tolist()
        senders: list[int] = []
        receivers: list[int] = []
        spans: list[float] = []
        nonces: list[int] = []
        for (s, r), d, start, count in zip(links, distances, starts, counts):
            senders += [s] * count
            receivers += [r] * count
            spans += [d] * count
            nonces += range(start, start + count)
        codes = batch_deliver(
            medium.link_model,
            medium._link_override,
            np.array(senders, dtype=np.int64),
            np.array(receivers, dtype=np.int64),
            np.array(spans),
            self.iteration,
            np.array(nonces, dtype=np.int64),
        ).tobytes()
        out = []
        at = 0
        for count in counts:
            out.append(codes[at : at + count])
            at += count
        return out

    # -- the bookkeeping ---------------------------------------------------

    def send(self, sender: int, receiver: int, message: Message, to_inbox: bool) -> int:
        """One copy ``sender -> receiver``, filed at the receiver (or parked
        there) iff ``to_inbox``; returns its code."""
        if not self._started:
            # due copies are delivered before the round's first copy;
            # copies parked this round are due next iteration
            self._started = True
            self.medium.flush_delayed(self.iteration)
        link = self._links.get((sender, receiver))
        if link is None or link[0] == _FATES and link[2] == len(link[1]):
            # a copy no draw reserved a fate for
            self.draw((sender,), (receiver,))
            link = self._links[(sender, receiver)]
        state = link[0]
        category = message.category
        n_bytes = message.size_bytes(self.medium.sizes)
        if state > _RECEIVER_DOWN:
            if state == _OUT_OF_RANGE or state == _ASLEEP:
                return COPY_REFUSED
            if state == _CRASHED:
                self._tally(self._dropped, category, n_bytes)
                return COPY_SENDER_DEAD
            if state == _BAD_SENDER:
                raise ValueError(
                    f"sender id {sender} out of range [0, {self.medium.n_nodes})"
                )
            raise ValueError(f"receiver id {receiver} out of range")
        self._tally(self._charged, category, n_bytes)
        if state == _FATES:
            used = link[2]
            code = link[1][used]
            link[2] = used + 1
        elif state == _CLEAR:
            code = OUTCOME_DELIVER
        elif state == _CROSSING:
            code = OUTCOME_DROP
        else:
            return COPY_LOST
        if code == OUTCOME_DROP:
            self._tally(self._dropped, category, n_bytes)
        elif to_inbox:
            (self._inbox if code == OUTCOME_DELIVER else self._parked).append(
                (receiver, message)
            )
        return code

    def walk(self, path, message: Message) -> Delivery:
        """One packet along the hop list ``path``, one attempt per hop and
        no ack; returns its delivery.

        Due delayed copies are delivered first, as by a round's first copy.
        Then, before anything is drawn or charged, a path shorter than two
        nodes or a bad node id raises ``ValueError``, and a hop out of radio
        range or a sleeping transmitter (a crashed one drops silently
        instead) raises ``RuntimeError`` at the first hop that fails.  The
        hops' fates are reserved in one draw and the copies go out in path
        order through :meth:`send`.  A crashed transmitter (uncharged), a
        crashed relay (charged) and a dropped copy lose the packet, each
        with a dropped row.  A relay-hop delay forwards at once (a MAC-level
        wait, invisible at filter timescale) and a delay into the
        destination parks the packet for the next iteration.  Only the
        destination files the message; one that is down gets its charged
        copy and nothing else.
        """
        if not self._started:
            self._started = True
            self.medium.flush_delayed(self.iteration)
        path = [int(p) for p in path]
        if len(path) < 2:
            raise ValueError("a path needs at least a sender and a receiver")
        medium = self.medium
        n = medium.n_nodes
        for node in path:
            if not 0 <= node < n:
                raise ValueError(f"path node id {node} out of range [0, {n})")
        senders, receivers = path[:-1], path[1:]
        pos = medium.positions
        reach = medium.radio.in_range_many(pos[senders], pos[receivers]).tolist()
        for a, b, ok in zip(senders, receivers, reach):
            if not ok:
                raise RuntimeError(
                    f"path hop {a}->{b} exceeds comm radius {medium.radio.comm_radius}"
                )
            if a in medium._asleep and a not in medium._failed:
                raise RuntimeError(f"node {a} is asleep and cannot transmit")
        self.draw(senders, receivers)
        dest = path[-1]
        n_bytes = message.size_bytes(medium.sizes)
        charged = 0
        for a, b in zip(senders, receivers):
            code = self.send(a, b, message, False)
            charged += code != COPY_SENDER_DEAD
            if code == COPY_LOST and b != dest:
                # transmitted into a crashed relay: charged, and lost
                self._tally(self._dropped, message.category, n_bytes)
                code = OUTCOME_DROP
            if code == COPY_SENDER_DEAD or code == OUTCOME_DROP or (
                code == OUTCOME_DELAY and b == dest
            ):
                break
        # the last copy decides: a loss drops the packet, a delay into the
        # destination parks it, and a destination that is down (COPY_LOST)
        # hears nothing
        if code == OUTCOME_DELIVER:
            self._inbox.append((dest, message))
        elif code == OUTCOME_DELAY:
            self._parked.append((dest, message))
        one = np.array([dest], dtype=np.intp)
        return Delivery(
            receivers=one if code == OUTCOME_DELIVER else _EMPTY_IDS,
            n_bytes=n_bytes * charged,
            n_messages=charged,
            dropped=one if code == OUTCOME_DROP or code == COPY_SENDER_DEAD else _EMPTY_IDS,
            delayed=one if code == OUTCOME_DELAY else _EMPTY_IDS,
        )

    def _tally(self, ledger: dict, category: str, n_bytes: int) -> None:
        entry = ledger.get(category)
        if entry is None:
            ledger[category] = [n_bytes, 1]
        else:
            entry[0] += n_bytes
            entry[1] += 1

    def commit(self) -> None:
        """Write the round's nonce counters, ledger rows, inbox entries and
        parked copies to the medium; a round commits once."""
        if self._committed:
            raise RuntimeError("UnicastRound already committed")
        self._committed = True
        medium = self.medium
        iteration = self.iteration
        used = [
            (s << 32 | r, link[3] + link[2])
            for (s, r), link in self._links.items()
            if link[0] == _FATES and link[2]
        ]
        if used:
            keys, values = zip(*used)
            medium._nonce_store(iteration).set_many(
                np.array(keys, dtype=np.int64), np.array(values, dtype=np.int64)
            )
        acc = medium.accounting
        for ledger, record in (
            (self._charged, acc.record_rows),
            (self._dropped, acc.record_dropped_rows),
        ):
            if ledger:
                record(
                    iteration,
                    list(ledger),
                    [b for b, _m in ledger.values()],
                    [m for _b, m in ledger.values()],
                )
        medium._inbox_log.extend(
            (np.array([r], dtype=np.intp), message) for r, message in self._inbox
        )
        medium._delayed.extend((iteration + 1, r, message) for r, message in self._parked)


class Medium:
    """Round-based wireless medium over a static deployment.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node positions (the deployment).
    radio:
        :class:`RadioModel` with the communication radius.
    sizes:
        Byte model used to charge every message.
    accounting:
        Optional shared ledger; a fresh one is created if omitted.
    link_model:
        Optional :class:`~repro.network.links.LinkModel` deciding per-copy
        delivery.  ``None`` (default) is the paper's reliable medium.
    neighborhood:
        Optional shared :class:`~repro.network.neighborhood.NeighborhoodCache`
        (normally handed over by :meth:`repro.scenario.Scenario.make_medium`,
        which shares one cache between the medium and the topology layer so
        the comm-radius grid index is built exactly once per deployment).
        Built privately if omitted.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radio: RadioModel,
        sizes: DataSizes | None = None,
        accounting: CommAccounting | None = None,
        link_model: LinkModel | None = None,
        *,
        neighborhood: NeighborhoodCache | None = None,
    ) -> None:
        self.positions = np.asarray(positions, dtype=np.float64)
        #: the positions the medium was built with: a snapshot carries
        #: ``positions`` only once mobility has moved a node off them
        self._built_positions = self.positions
        self.radio = radio
        self.sizes = sizes if sizes is not None else DataSizes()
        self.accounting = accounting if accounting is not None else CommAccounting(self.sizes)
        self.link_model = link_model
        if neighborhood is not None and neighborhood.radius == float(radio.comm_radius):
            self._neighborhood = neighborhood
        else:
            self._neighborhood = NeighborhoodCache(self.positions, radio.comm_radius)
        #: round-structured inbox log: one (sorted receiver ids, message)
        #: entry per delivery; per-node cursors materialize inboxes lazily
        self._inbox_log: list[tuple[np.ndarray, Message]] = []
        self._inbox_cursor: dict[int, int] = {}
        self._asleep: set[int] = set()
        self._failed: set[int] = set()
        #: cached boolean availability over node ids; every mutation of the
        #: asleep/failed sets goes through the three mutators below, which
        #: rebuild it — broadcast fan-out filters receivers with one gather
        #: instead of a per-copy set lookup
        self._available: np.ndarray = np.ones(self.positions.shape[0], dtype=bool)
        self._all_available = True
        #: per-sender offered-receiver overlay (in-range ∩ available, sorted);
        #: derived from the geometric neighborhood cache and invalidated by
        #: ``_rebuild_available`` (faults) and ``update_positions`` (mobility)
        self._offered: dict[int, np.ndarray] = {}
        #: fault-plan hooks: an extra link model (loss bursts) and a boolean
        #: side-of-partition mask (region partitions); both None when healthy
        self._link_override: LinkModel | None = None
        self._partition: np.ndarray | None = None
        #: messages parked by a DELAY outcome: (deliver_at_iteration, node, msg)
        self._delayed: list[tuple[int, int, Message]] = []
        #: per-link message counters of the current iteration only (key
        #: ``sender << 32 | receiver``), so two messages on the same link in
        #: one iteration draw independent link fates; a send at another
        #: iteration starts a fresh store
        self._nonces = LinkTable()
        self._nonce_iteration: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def _index(self):
        """The shared comm-radius grid index (owned by the neighborhood cache)."""
        return self._neighborhood.index

    @contextmanager
    def phase(self, name: str):
        """Scope every transmission charged inside to the named phase.

        Nests: the innermost scope wins attribution (a multi-target wrapper
        phase containing a sub-tracker's pipeline sees the sub-tracker's own
        phase names in the ledger).  The scope changes *attribution only* —
        totals, categories and delivery semantics are untouched, which is why
        a phase-scoped run stays byte-identical to an unscoped one.
        """
        self.accounting.push_phase(name)
        try:
            yield self
        finally:
            self.accounting.pop_phase()

    def update_positions(self, positions: np.ndarray) -> None:
        """Replace the physical node positions (mobile-WSN support).

        Rebinds to a fresh neighborhood cache; node count must not change.
        Believed positions held by node programs are *not* touched — the gap
        between the two is exactly the §V-D mobility uncertainty, which is
        also why a previously *shared* cache is detached rather than rebound
        (the topology layer must keep serving the believed geometry).
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"position shape {positions.shape} != {self.positions.shape}"
            )
        self.positions = positions
        self._neighborhood = NeighborhoodCache(positions, self.radio.comm_radius)
        self._offered.clear()

    # -- node availability -------------------------------------------------

    def set_asleep(self, node_ids) -> None:
        """Replace the sleeping set: sleeping nodes neither hear nor transmit."""
        self._asleep = set(int(i) for i in node_ids)
        self._rebuild_available()

    def wake(self, node_ids) -> None:
        self._asleep -= set(int(i) for i in node_ids)
        self._rebuild_available()

    def fail_nodes(self, node_ids) -> None:
        """Permanently remove nodes (crash faults for the robustness ablation)."""
        self._failed |= set(int(i) for i in node_ids)
        self._rebuild_available()

    def _rebuild_available(self) -> None:
        mask = np.ones(self.n_nodes, dtype=bool)
        off = [i for i in self._asleep | self._failed if 0 <= i < self.n_nodes]
        if off:
            mask[off] = False
        self._available = mask
        self._all_available = not off
        # availability feeds the offered-receiver overlay; geometric neighbor
        # lists in the shared cache stay valid (positions did not move)
        self._offered.clear()

    def is_available(self, node_id: int) -> bool:
        return node_id not in self._asleep and node_id not in self._failed

    def available_mask(self, node_ids: np.ndarray) -> np.ndarray:
        """:meth:`is_available` of each of ``node_ids`` (valid ids), as one
        bool mask."""
        return self._available[node_ids]

    def is_asleep(self, node_id: int) -> bool:
        """True iff the node is sleeping (it would *raise* on transmit, unlike
        a crashed node whose sends are silently dropped)."""
        return node_id in self._asleep

    # -- fault-plan hooks ----------------------------------------------------

    def install_link_override(self, link_model: LinkModel | None) -> None:
        """Install (or clear) an *additional* link model on top of any base one.

        Used by fault plans for loss-burst windows: during the window every
        copy must survive both the base model and the override.
        """
        self._link_override = link_model

    def set_partition(self, side_mask: np.ndarray | None) -> None:
        """Partition the network: copies crossing the mask boundary are dropped.

        ``side_mask`` is a boolean array over node ids; a copy is dropped iff
        sender and receiver sit on different sides.  ``None`` heals the
        partition.
        """
        if side_mask is not None:
            side_mask = np.asarray(side_mask, dtype=bool)
            if side_mask.shape != (self.n_nodes,):
                raise ValueError(
                    f"partition mask shape {side_mask.shape} != ({self.n_nodes},)"
                )
        self._partition = side_mask

    @property
    def is_unreliable(self) -> bool:
        """True when any lossy machinery is installed (link model, burst, partition)."""
        return (
            self.link_model is not None
            or self._link_override is not None
            or self._partition is not None
        )

    @property
    def delivers_all(self) -> bool:
        """True when a broadcast reaches exactly its in-range receivers: no
        lossy machinery, no parked delayed copy, and every node awake and
        alive.  Trackers may then hand a round's data over directly instead
        of routing it through inboxes (see ``CDPFTracker``)."""
        return not self.is_unreliable and self._all_available and not self._delayed

    # -- link nonces and parked copies ---------------------------------------

    def _nonce_store(self, iteration: int) -> LinkTable:
        """The link-nonce counters of ``iteration``."""
        if iteration != self._nonce_iteration:
            self._nonces = LinkTable()
            self._nonce_iteration = iteration
        return self._nonces

    def _assign_nonces(
        self, senders: np.ndarray, receivers: np.ndarray, iteration: int
    ) -> np.ndarray:
        """Per-copy link nonces for a round, identical to sequential sends.

        The scalar path takes a link's counter and increments it once per
        copy in send order; here a whole round advances the same counters at
        once: one stable sort groups the copies by link (keeping send order
        within a link), the counters of the distinct links are read with one
        ``get_many`` and written back with one ``set_many``.
        """
        n = receivers.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        nonces = self._nonce_store(iteration)
        keys = (senders.astype(np.int64) << 32) | receivers.astype(np.int64)
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        counts = np.diff(np.append(starts, n))
        links = ordered[starts]
        base = nonces.get_many(links)
        nonces.set_many(links, base + counts)
        out = np.empty(n, dtype=np.int64)
        # base of the copy's link + its rank among that link's copies
        out[order] = np.repeat(base - starts, counts) + np.arange(n)
        return out

    def flush_delayed(self, iteration: int) -> None:
        """Deliver parked copies whose iteration has arrived (to awake nodes)."""
        if not self._delayed:
            return
        still_parked: list[tuple[int, int, Message]] = []
        for due, node, message in self._delayed:
            if due <= iteration:
                if self.is_available(node):
                    self._inbox_log.append((np.array([node], dtype=np.intp), message))
                # a copy due while its target is unavailable is simply lost;
                # it was already counted in the Delivery's delayed record
            else:
                still_parked.append((due, node, message))
        self._delayed = still_parked

    # -- transmission primitives --------------------------------------------

    def transmission_batch(self, iteration: int) -> TransmissionBatch:
        """Open a :class:`TransmissionBatch` for one round at ``iteration``."""
        return TransmissionBatch(self, iteration)

    def unicast_round(self, iteration: int, depth: int = 1) -> UnicastRound:
        """Open a :class:`UnicastRound` at ``iteration`` that draws
        ``depth`` fates per occurrence of a link (a stop-and-wait sender's
        attempts per hop)."""
        return UnicastRound(self, iteration, depth)

    def _check_sender(self, sender: int) -> bool:
        """Validate the sender; returns False when the send must be silently
        dropped (crashed sender), raises for programming errors."""
        if not 0 <= sender < self.n_nodes:
            raise ValueError(f"sender id {sender} out of range [0, {self.n_nodes})")
        if sender in self._failed:
            return False
        if sender in self._asleep:
            raise RuntimeError(f"node {sender} is asleep and cannot transmit")
        return True

    def _offered_misses(self, senders) -> None:
        """Fill the offered-receiver overlay for every sender missing from it.

        The candidates are every node in a grid cell some miss sender's
        query box overlaps (one ``GridIndex.box_candidates`` gather, sorted
        by id), a superset of each sender's disk; one ``(senders,
        candidates)`` squared-distance mask (bitwise the ``query_disk``
        compare) and one availability mask cut it down, then each sender
        takes its row of the sorted candidates.
        """
        miss = [s for s in senders if s not in self._offered]
        if not miss:
            return
        radius = self.radio.comm_radius
        centers = self.positions[miss]
        cand = self._neighborhood.index.box_candidates(centers, radius)
        if cand.size == 0:
            for s in miss:
                self._offered[s] = _EMPTY_IDS
            return
        cpos = self.positions[cand]
        avail = self._available[cand]
        dx = cpos[None, :, 0] - centers[:, 0:1]
        dy = cpos[None, :, 1] - centers[:, 1:2]
        keep = (dx * dx + dy * dy <= radius * radius) & avail[None, :]
        for row, s in enumerate(miss):
            offered = cand[keep[row]]
            self._offered[s] = offered[offered != s].astype(np.intp, copy=False)

    def _flush_broadcasts(self, entries, iteration: int) -> list[Delivery]:
        """Resolve a run of enqueued broadcasts as one vectorized round.

        ``entries`` is a list of ``(sender, message)`` in enqueue order.
        Loss draws are keyed per (link, nonce) and nonces follow enqueue
        order, so the outcomes are bit-identical to sending the same
        broadcasts one at a time.
        """
        acc = self.accounting
        results: list[Delivery] = [None] * len(entries)  # type: ignore[list-item]
        live: list[tuple[int, int, Message, int]] = []
        for idx, (sender, message) in enumerate(entries):
            n_bytes = message.size_bytes(self.sizes)
            if not self._check_sender(sender):
                results[idx] = _failed_send(acc, iteration, message, n_bytes)
                continue
            live.append((idx, sender, message, n_bytes))
        if not live:
            return results
        self._offered_misses([s for _i, s, _msg, _b in live])

        charge_cats: list[str] = []
        charge_bytes: list[int] = []

        if not self.is_unreliable:
            for idx, sender, message, n_bytes in live:
                offered = self._offered[sender]
                if offered.size:
                    self._inbox_log.append((offered, message))
                charge_cats.append(message.category)
                charge_bytes.append(n_bytes)
                results[idx] = Delivery(receivers=offered, n_bytes=n_bytes, n_messages=1)
            acc.record_rows(iteration, charge_cats, charge_bytes, 1)
            return results

        # lossy round: partition crossings drop BEFORE any nonce is consumed,
        # the no-model case consumes none, and every surviving copy goes
        # through ONE batch_deliver call across all broadcasts in the run
        part = self._partition
        has_model = not (self.link_model is None and self._link_override is None)
        per_entry: list[tuple[int, int, Message, int, np.ndarray, np.ndarray]] = []
        open_recv: list[np.ndarray] = []
        open_send: list[np.ndarray] = []
        open_slices: list[tuple[int, np.ndarray, int, int]] = []
        total_open = 0
        for idx, sender, message, n_bytes in live:
            offered = self._offered[sender]
            codes = np.full(offered.size, OUTCOME_DELIVER, dtype=np.int8)
            if part is not None and offered.size:
                crossed = part[offered] != part[sender]
                codes[crossed] = OUTCOME_DROP
                open_idx = np.flatnonzero(~crossed)
            else:
                open_idx = np.arange(offered.size)
            if has_model and open_idx.size:
                recv = offered[open_idx]
                open_recv.append(recv.astype(np.int64, copy=False))
                open_send.append(np.full(recv.size, sender, dtype=np.int64))
                open_slices.append((len(per_entry), open_idx, total_open, recv.size))
                total_open += recv.size
            per_entry.append((idx, sender, message, n_bytes, offered, codes))
        if total_open:
            recvs = np.concatenate(open_recv)
            sends = np.concatenate(open_send)
            nonces = self._assign_nonces(sends, recvs, iteration)
            dx = self.positions[sends, 0] - self.positions[recvs, 0]
            dy = self.positions[sends, 1] - self.positions[recvs, 1]
            distances = norm2d_many(dx, dy)
            all_codes = batch_deliver(
                self.link_model,
                self._link_override,
                sends,
                recvs,
                distances,
                iteration,
                nonces,
            )
            for pos, open_idx, start, size in open_slices:
                per_entry[pos][5][open_idx] = all_codes[start : start + size]

        dropped_cats: list[str] = []
        dropped_bytes: list[int] = []
        dropped_msgs: list[int] = []
        for idx, sender, message, n_bytes, offered, codes in per_entry:
            delivered = offered[codes == OUTCOME_DELIVER].astype(np.intp, copy=False)
            delayed = offered[codes == OUTCOME_DELAY].astype(np.intp, copy=False)
            dropped = offered[codes == OUTCOME_DROP].astype(np.intp, copy=False)
            if delivered.size:
                self._inbox_log.append((delivered, message))
            for r in delayed.tolist():
                self._delayed.append((iteration + 1, r, message))
            charge_cats.append(message.category)
            charge_bytes.append(n_bytes)
            if dropped.size:
                dropped_cats.append(message.category)
                dropped_bytes.append(n_bytes * dropped.size)
                dropped_msgs.append(dropped.size)
            results[idx] = Delivery(
                receivers=delivered,
                n_bytes=n_bytes,
                n_messages=1,
                dropped=dropped,
                delayed=delayed,
            )
        acc.record_rows(iteration, charge_cats, charge_bytes, 1)
        if dropped_cats:
            acc.record_dropped_rows(iteration, dropped_cats, dropped_bytes, dropped_msgs)
        return results

    def broadcast(self, sender: int, message: Message, iteration: int) -> Delivery:
        """One-hop broadcast with overhearing.

        Every *available* node within the communication radius of the sender
        (excluding the sender itself) gets the message appended to its inbox.
        The cost is one message of ``message.size_bytes`` regardless of the
        number of receivers — broadcast is charged once, which is exactly why
        overhearing-based aggregation is free.  Under an unreliable channel
        each in-range copy is individually dropped/delayed per the link model;
        the transmission still costs one message.

        This is a thin wrapper over a one-element :class:`TransmissionBatch`.
        """
        batch = TransmissionBatch(self, iteration)
        batch.broadcast(sender, message)
        return batch.flush()[0]

    def unicast(
        self,
        sender: int,
        receiver: int,
        message: Message,
        iteration: int,
        *,
        deliver_to_inbox: bool = True,
    ) -> Delivery:
        """Single-hop unicast.  The receiver must be in radio range and awake.

        ``deliver_to_inbox=False`` evaluates link success and charges the
        transmission without filing the message (relay hops of a reliability
        layer, where intermediate nodes forward rather than consume).

        A one-copy :class:`UnicastRound`, whose :meth:`UnicastRound.send`
        states the checks and their order; a sleeping sender or a hop out of
        radio range raises ``RuntimeError``.
        """
        sender, receiver = int(sender), int(receiver)
        rnd = self.unicast_round(iteration)
        try:
            code = rnd.send(sender, receiver, message, deliver_to_inbox)
        finally:
            rnd.commit()
        if code == COPY_REFUSED:
            if sender in self._asleep:
                raise RuntimeError(f"node {sender} is asleep and cannot transmit")
            raise RuntimeError(
                f"unicast {sender}->{receiver} exceeds comm radius "
                f"{self.radio.comm_radius}"
            )
        if code == COPY_SENDER_DEAD:
            return Delivery(receivers=_EMPTY_IDS, n_bytes=0, n_messages=0)
        one = np.array([receiver], dtype=np.intp)
        return Delivery(
            receivers=one if code == OUTCOME_DELIVER else _EMPTY_IDS,
            n_bytes=message.size_bytes(self.sizes),
            n_messages=1,
            dropped=one if code == OUTCOME_DROP else _EMPTY_IDS,
            delayed=one if code == OUTCOME_DELAY else _EMPTY_IDS,
        )

    def unicast_path(self, path: list[int], message: Message, iteration: int) -> Delivery:
        """Multi-hop forwarding along ``path`` (a list of node ids).

        Charges one transmission per hop (``len(path) - 1`` messages), the
        convergecast cost model of CPF.  Only the final node receives the
        message in its inbox; intermediate nodes are pure relays.

        Under an unreliable channel the packet walks the path hop by hop:
        hops up to a loss are still charged (the radios did transmit), the
        copy is recorded as dropped at the losing hop, and nothing reaches
        the destination.  A crashed transmitter or relay kills the packet
        the same way; a destination that is down gets its charged copy and
        nothing else.  Relay-hop DELAY outcomes count as immediate
        forwarding (stop-and-wait at the MAC, invisible at filter timescale);
        only a final-hop delay parks the message for the next iteration.

        A one-path :class:`UnicastRound`; :meth:`UnicastRound.walk` states
        what raises and when.
        """
        rnd = self.unicast_round(iteration)
        try:
            return rnd.walk(path, message)
        finally:
            rnd.commit()

    def global_broadcast(self, message: Message, iteration: int, sender: int = -1) -> Delivery:
        """SDPF's global transceiver: reaches every available node in ONE message.

        The paper assumes the transceiver "is one hop away from every node in
        the network"; its broadcast therefore costs a single message.
        ``sender = -1`` denotes the transceiver, which is not a field node.
        The transceiver's high-power channel is modeled as reliable even when
        the field links are lossy (it is infrastructure, not a field radio).
        """
        self.flush_delayed(iteration)
        receivers = np.flatnonzero(self._available).astype(np.intp, copy=False)
        if receivers.size:
            self._inbox_log.append((receivers, message))
        n_bytes = message.size_bytes(self.sizes)
        self.accounting.record(iteration, message.category, n_bytes, 1)
        return Delivery(receivers=receivers, n_bytes=n_bytes, n_messages=1)

    def charge_out_of_band(self, iteration: int, category: str, n_bytes: int, n_messages: int) -> None:
        """Charge traffic that does not need inbox delivery (e.g. node->transceiver
        reports, where the transceiver is simulated by the harness)."""
        self.accounting.record(iteration, category, n_bytes, n_messages)

    # -- inboxes ------------------------------------------------------------

    def collect(self, node_id: int) -> list[Message]:
        """Drain and return the node's inbox (messages in arrival order): the
        one-node call of :meth:`collect_many`."""
        return self.collect_many([node_id])[1]

    def collect_many(self, node_ids) -> tuple[np.ndarray, list[Message]]:
        """Drain the inboxes of several distinct nodes in one pass over the
        round log.

        Returns ``(rows, messages)``: ``messages[k]`` was in the inbox of
        ``node_ids[rows[k]]``.  Rows ascend, and each row's messages come in
        arrival order, so a row's slice is what :meth:`collect` returns for
        that node.  Each log entry past the nodes' earliest cursor is tested
        against every node with one ``searchsorted`` over its sorted
        receivers, and a listed node with pending entries has its cursor
        advanced to the log head.
        """
        ids = np.asarray(node_ids, dtype=np.intp).reshape(-1)
        log = self._inbox_log
        end = len(log)
        cursor = self._inbox_cursor
        id_list = ids.tolist()
        starts = np.fromiter(
            (cursor.get(n, 0) for n in id_list), dtype=np.intp, count=len(id_list)
        )
        rows: list[np.ndarray] = []
        entries: list[np.ndarray] = []
        for i in range(int(starts.min()) if id_list else end, end):
            receivers = log[i][0]
            pos = np.minimum(np.searchsorted(receivers, ids), receivers.size - 1)
            hit = np.flatnonzero((receivers[pos] == ids) & (starts <= i))
            if hit.size:
                rows.append(hit)
                entries.append(np.full(hit.size, i))
        for n, start in zip(id_list, starts.tolist()):
            if start < end:
                cursor[n] = end
        if not rows:
            return _EMPTY_IDS, []
        row = np.concatenate(rows)
        order = np.argsort(row, kind="stable")  # entries ascend within a row
        return row[order], [log[i][1] for i in np.concatenate(entries)[order].tolist()]

    def peek(self, node_id: int) -> list[Message]:
        """The node's pending messages, without draining them."""
        log = self._inbox_log
        start = self._inbox_cursor.get(node_id, 0)
        out: list[Message] = []
        for i in range(start, len(log)):
            receivers, message = log[i]
            pos = np.searchsorted(receivers, node_id)
            if pos < receivers.size and receivers[pos] == node_id:
                out.append(message)
        return out

    def pending_nodes(self) -> list[int]:
        """Sorted ids of nodes with a non-empty inbox.

        O(total pending copies) — a diagnostic view for the consistency
        checker and the tests, not a hot path.
        """
        cursor = self._inbox_cursor
        pending: set[int] = set()
        for i, (receivers, _message) in enumerate(self._inbox_log):
            for r in receivers.tolist():
                if r not in pending and cursor.get(r, 0) <= i:
                    pending.add(r)
        return sorted(pending)

    def clear_inboxes(self) -> None:
        self._inbox_log.clear()
        self._inbox_cursor.clear()

    # -- checkpoint protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """The medium's mutable state at an iteration boundary.

        Carried: the failed set (crash faults fire once and never replay),
        the sleeping set, the partition mask, the round-structured inbox
        log + cursors, parked delayed copies, the link model's snapshot
        (its type: every draw is keyed, so a model has no state to carry),
        the full cost ledger, and the positions once mobility has moved a
        node off the ones the medium was built with (drift accumulates).

        Deliberately NOT carried, because it is derived or recomputed:

        * unmoved positions — a restore without the key takes the
          positions its medium was built with, the same deployment;
        * ``_available`` / ``_offered`` — rebuilt from the sets;
        * the link-nonce store — it holds one iteration's counters, and at
          a boundary that iteration has finished;
        * ``_link_override`` — installed (or cleared) by the fault plan's
          ``apply`` at the start of every iteration, including the first
          resumed one;
        * the per-(drift-event, iteration) mobility marker — it only
          de-duplicates re-application *within* one iteration.
        """
        from .messages import message_to_state

        state = {
            "asleep": sorted(self._asleep),
            "failed": sorted(self._failed),
            "partition": (
                None if self._partition is None else self._partition.copy()
            ),
            "inbox_log": [
                [receivers.copy(), message_to_state(message)]
                for receivers, message in self._inbox_log
            ],
            "inbox_cursor": {
                int(k): int(v) for k, v in self._inbox_cursor.items()
            },
            "delayed": [
                [int(due), int(node), message_to_state(message)]
                for due, node, message in self._delayed
            ],
            "link_model": (
                None if self.link_model is None else self.link_model.snapshot()
            ),
            "accounting": self.accounting.snapshot(),
        }
        if not np.array_equal(self.positions, self._built_positions):
            state["positions"] = self.positions.copy()
        return state

    def restore(self, state: dict) -> None:
        """Transplant a snapshot into this (configuration-identical) medium.

        A snapshot without ``positions`` was taken before any node moved;
        checkpoints written before that rule carry them always, and restore
        the same way."""
        from .messages import message_from_state

        positions = np.asarray(
            state.get("positions", self._built_positions), dtype=np.float64
        )
        if not np.array_equal(positions, self.positions):
            # the snapshot's nodes stand elsewhere (mobility); detach from
            # any shared cache exactly as update_positions does on a live run
            self.update_positions(positions)
        self._asleep = set(int(i) for i in state["asleep"])
        self._failed = set(int(i) for i in state["failed"])
        partition = state["partition"]
        self._partition = (
            None if partition is None else np.asarray(partition, dtype=bool)
        )
        self._inbox_log = [
            (np.asarray(receivers, dtype=np.intp), message_from_state(message))
            for receivers, message in state["inbox_log"]
        ]
        self._inbox_cursor = {
            int(k): int(v) for k, v in state["inbox_cursor"].items()
        }
        self._delayed = [
            (int(due), int(node), message_from_state(message))
            for due, node, message in state["delayed"]
        ]
        if state["link_model"] is not None:
            if self.link_model is None:
                raise ValueError(
                    "snapshot carries link-model state but this medium has "
                    "no link model; restore needs an identically configured "
                    "world"
                )
            self.link_model.restore(state["link_model"])
        self.accounting.restore(state["accounting"])
        self._nonces = LinkTable()
        self._nonce_iteration = None
        self._rebuild_available()

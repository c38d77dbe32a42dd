"""The per-copy unicast the medium's rounds replaced, kept as a reference.

``Medium.unicast`` used to resolve its one copy on its own, and every
``Medium.unicast_path`` walked its packet hop by hop, each hop's fate from
``Medium._copy_outcome``: a one-key nonce read and write, a distance and a
scalar ``classify`` per copy.  Both now run on a ``UnicastRound``.  The
functions below are those bodies, moved here verbatim with ``self`` made a
``medium`` argument, so the fuzzers can check the round against them bit
for bit: :func:`unicast` (``tests/fuzz/test_arq_round.py`` and
``tests/network/test_medium.py::TestUnicastRound``) and
:func:`unicast_path` (``tests/fuzz/test_path_round.py``).

:func:`unicast_path` carries the two rule edits the round made, each marked
where it sits: (a) a sleeping transmitter anywhere on ``path[:-1]`` raises
up front with the range check, and (b) a copy to a down destination draws
no fate.  Node ids are checked as they were: only the senders' (a bad
receiver id is the round's ``ValueError``, which the callers test on its
own).
"""

from __future__ import annotations

import numpy as np

from repro.network.links import LinkOutcome
from repro.network.medium import Delivery, Medium, _failed_send
from repro.network.messages import Message

_EMPTY_IDS = np.array([], dtype=np.intp)


def copy_outcome(medium: Medium, sender: int, receiver: int, iteration: int) -> LinkOutcome:
    """Fate of one message copy on the directed link sender -> receiver."""
    if medium._partition is not None and bool(
        medium._partition[sender] != medium._partition[receiver]
    ):
        return LinkOutcome.DROP
    if medium.link_model is None and medium._link_override is None:
        return LinkOutcome.DELIVER
    nonces = medium._nonce_store(iteration)
    key = np.array([int(sender) << 32 | int(receiver)], dtype=np.int64)
    nonce = int(nonces.get_many(key)[0])
    nonces.set_many(key, [nonce + 1])
    distance = float(np.linalg.norm(medium.positions[sender] - medium.positions[receiver]))
    outcome = LinkOutcome.DELIVER
    if medium.link_model is not None:
        outcome = medium.link_model.classify(sender, receiver, distance, iteration, nonce)
    if outcome is LinkOutcome.DELIVER and medium._link_override is not None:
        outcome = medium._link_override.classify(sender, receiver, distance, iteration, nonce)
    return outcome


def unicast(
    medium: Medium,
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

    One copy, resolved on its own: due delayed copies are delivered
    first, as a flush does, then the checks run in this order — sender
    id, crashed sender (a silent drop), sleeping sender, receiver id,
    radio range — before the copy is charged; a receiver that is down
    loses it, and otherwise its link's fate decides.
    """
    sender, receiver, iteration = int(sender), int(receiver), int(iteration)
    medium.flush_delayed(iteration)
    n_bytes = message.size_bytes(medium.sizes)
    if not medium._check_sender(sender):
        return _failed_send(medium.accounting, iteration, message, n_bytes)
    if not 0 <= receiver < medium.n_nodes:
        raise ValueError(f"receiver id {receiver} out of range")
    if not medium.radio.in_range(medium.positions[sender], medium.positions[receiver]):
        raise RuntimeError(
            f"unicast {sender}->{receiver} exceeds comm radius "
            f"{medium.radio.comm_radius}"
        )
    medium.accounting.record(iteration, message.category, n_bytes, 1)
    if not medium.is_available(receiver):
        return Delivery(receivers=_EMPTY_IDS, n_bytes=n_bytes, n_messages=1)
    outcome = (
        copy_outcome(medium, sender, receiver, iteration)
        if medium.is_unreliable
        else LinkOutcome.DELIVER
    )
    if outcome is LinkOutcome.DROP:
        medium.accounting.record_dropped(iteration, message.category, n_bytes, 1)
        return Delivery(
            receivers=_EMPTY_IDS,
            n_bytes=n_bytes,
            n_messages=1,
            dropped=np.array([receiver], dtype=np.intp),
        )
    if outcome is LinkOutcome.DELAY:
        if deliver_to_inbox:
            medium._delayed.append((iteration + 1, receiver, message))
        return Delivery(
            receivers=_EMPTY_IDS,
            n_bytes=n_bytes,
            n_messages=1,
            delayed=np.array([receiver], dtype=np.intp),
        )
    if deliver_to_inbox:
        medium._inbox_log.append((np.array([receiver], dtype=np.intp), message))
    return Delivery(
        receivers=np.array([receiver], dtype=np.intp), n_bytes=n_bytes, n_messages=1
    )


def unicast_path(medium: Medium, path: list[int], message: Message, iteration: int) -> Delivery:
    """Multi-hop forwarding along ``path``, hop by hop: the one-path flush
    (due delayed copies first) and then the per-hop walk."""
    medium.flush_delayed(iteration)
    if len(path) < 2:
        raise ValueError("a path needs at least a sender and a receiver")
    n_bytes_each = message.size_bytes(medium.sizes)
    # geometry errors are programming errors regardless of channel state
    for a, b in zip(path[:-1], path[1:]):
        if not 0 <= a < medium.n_nodes:
            raise ValueError(f"sender id {a} out of range [0, {medium.n_nodes})")
        if not medium.radio.in_range(medium.positions[a], medium.positions[b]):
            raise RuntimeError(
                f"path hop {a}->{b} exceeds comm radius {medium.radio.comm_radius}"
            )
        # rule edit (a): a sleeping transmitter raises here, with the range
        # check, before anything is drawn or charged, as a sleeping sender
        # of a broadcast or of ``Medium.unicast`` does.  The walk below used
        # to raise only on reaching it, and not at all after a loss.  A
        # crashed node stays a silent drop, asleep or not.
        if a in medium._asleep and a not in medium._failed:
            raise RuntimeError(f"node {a} is asleep and cannot transmit")
    dest = int(path[-1])
    hops_attempted = 0
    lost_at: int | None = None
    for a, b in zip(path[:-1], path[1:]):
        a, b = int(a), int(b)
        if a in medium._failed:
            # the relay crashed holding the packet: hops already counted
            medium.accounting.record_dropped(iteration, message.category, n_bytes_each, 1)
            lost_at = b
            break
        hops_attempted += 1
        if b != dest and b in medium._failed:
            # transmitted into a dead relay: charged, copy lost
            medium.accounting.record_dropped(iteration, message.category, n_bytes_each, 1)
            lost_at = b
            break
        # rule edit (b): a copy to a down destination draws no fate (no
        # nonce, no partition or link drop), as in ``Medium.unicast`` and a
        # broadcast, which never offer a copy to a node that is down
        if medium.is_unreliable and not (b == dest and not medium.is_available(dest)):
            outcome = copy_outcome(medium, a, b, iteration)
            if outcome is LinkOutcome.DROP:
                medium.accounting.record_dropped(
                    iteration, message.category, n_bytes_each, 1
                )
                lost_at = b
                break
            if outcome is LinkOutcome.DELAY and b == dest:
                # final hop delayed: the packet arrives next iteration
                medium._delayed.append((iteration + 1, dest, message))
                medium.accounting.record(
                    iteration,
                    message.category,
                    n_bytes_each * hops_attempted,
                    hops_attempted,
                )
                return Delivery(
                    receivers=_EMPTY_IDS,
                    n_bytes=n_bytes_each * hops_attempted,
                    n_messages=hops_attempted,
                    delayed=np.array([dest], dtype=np.intp),
                )
    if hops_attempted:
        medium.accounting.record(
            iteration, message.category, n_bytes_each * hops_attempted, hops_attempted
        )
    if lost_at is not None:
        return Delivery(
            receivers=_EMPTY_IDS,
            n_bytes=n_bytes_each * hops_attempted,
            n_messages=hops_attempted,
            dropped=np.array([dest], dtype=np.intp),
        )
    delivered = medium.is_available(dest)
    if delivered:
        medium._inbox_log.append((np.array([dest], dtype=np.intp), message))
    recv = np.array([dest] if delivered else [], dtype=np.intp)
    return Delivery(
        receivers=recv, n_bytes=n_bytes_each * hops_attempted, n_messages=hops_attempted
    )

"""Medium: delivery geometry, overhearing, accounting, sleep/failure."""

import numpy as np
import pytest

from repro.network.links import LinkModel, LinkOutcome
from repro.network.medium import CommAccounting, Medium
from repro.network.messages import DataSizes, MeasurementMessage, ParticleMessage
from repro.network.radio import RadioModel


def line_medium(spacing=10.0, n=6, comm=30.0):
    """Nodes on a line at the given spacing."""
    pos = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return Medium(pos, RadioModel(comm_radius=comm))


def msg(sender=0, value=1.0, k=0):
    return MeasurementMessage(sender=sender, iteration=k, value=value)


class TestBroadcast:
    def test_delivers_within_comm_radius_only(self):
        m = line_medium()  # nodes at x = 0,10,...,50; comm 30
        d = m.broadcast(0, msg(), 0)
        assert sorted(d.receivers.tolist()) == [1, 2, 3]

    def test_sender_not_in_receivers(self):
        m = line_medium()
        d = m.broadcast(2, msg(2), 0)
        assert 2 not in d.receivers

    def test_overhearing_all_in_range_receive(self):
        """The overhearing effect: every in-range node gets the message,
        not just an addressed destination."""
        m = line_medium(spacing=5.0, n=5)
        m.broadcast(0, msg(), 0)
        for nid in (1, 2, 3, 4):
            assert len(m.peek(nid)) == 1

    def test_cost_is_one_message_regardless_of_receivers(self):
        m = line_medium(spacing=1.0, n=20)
        d = m.broadcast(0, msg(), 0)
        assert d.n_messages == 1
        assert m.accounting.total_messages == 1
        assert m.accounting.total_bytes == 4

    def test_count_cost_false_skips_ledger(self):
        m = line_medium()
        m.broadcast(0, msg(), 0, count_cost=False)
        assert m.accounting.total_messages == 0

    def test_invalid_sender(self):
        m = line_medium()
        with pytest.raises(ValueError):
            m.broadcast(99, msg(), 0)


class TestUnicast:
    def test_in_range_delivery(self):
        m = line_medium()
        d = m.unicast(0, 2, msg(), 0)
        assert d.receivers.tolist() == [2]
        assert len(m.peek(2)) == 1

    def test_out_of_range_raises(self):
        m = line_medium()
        with pytest.raises(RuntimeError, match="comm radius"):
            m.unicast(0, 5, msg(), 0)  # 50 m apart, radius 30

    def test_path_charges_per_hop(self):
        m = line_medium()
        d = m.unicast_path([0, 2, 4], msg(), 0)
        assert d.n_messages == 2
        assert m.accounting.total_bytes == 2 * 4
        assert len(m.peek(4)) == 1
        assert len(m.peek(2)) == 0  # relays do not keep the message

    def test_path_with_invalid_hop_raises(self):
        m = line_medium()
        with pytest.raises(RuntimeError):
            m.unicast_path([0, 5], msg(), 0)

    def test_path_too_short_raises(self):
        m = line_medium()
        with pytest.raises(ValueError):
            m.unicast_path([0], msg(), 0)


class TestGlobalBroadcast:
    def test_reaches_everyone_for_one_message(self):
        m = line_medium(n=6)
        d = m.global_broadcast(msg(-1), 0)
        assert sorted(d.receivers.tolist()) == list(range(6))
        assert m.accounting.total_messages == 1

    def test_skips_unavailable(self):
        m = line_medium(n=4)
        m.set_asleep([2])
        d = m.global_broadcast(msg(-1), 0)
        assert 2 not in d.receivers


class TestSleepAndFailure:
    def test_asleep_nodes_do_not_receive(self):
        m = line_medium()
        m.set_asleep([1])
        d = m.broadcast(0, msg(), 0)
        assert 1 not in d.receivers
        assert len(m.peek(1)) == 0

    def test_asleep_sender_cannot_transmit(self):
        m = line_medium()
        m.set_asleep([0])
        with pytest.raises(RuntimeError, match="asleep"):
            m.broadcast(0, msg(), 0)

    def test_wake_restores_reception(self):
        m = line_medium()
        m.set_asleep([1])
        m.wake([1])
        d = m.broadcast(0, msg(), 0)
        assert 1 in d.receivers

    def test_failed_nodes_cannot_transmit_or_receive(self):
        m = line_medium()
        m.fail_nodes([1])
        d = m.broadcast(0, msg(), 0)
        assert 1 not in d.receivers
        # a crashed sender's send is a *silent drop*, not a programming
        # error: nothing goes on the air, nothing is charged, and the
        # attempt lands in the dropped ledger (fault plans crash nodes
        # mid-protocol, so trackers must be able to survive the attempt)
        d = m.broadcast(1, msg(1), 0)
        assert d.receivers.size == 0
        assert d.n_messages == 0 and d.n_bytes == 0
        assert m.accounting.total_messages == 1  # only node 0's broadcast
        assert m.accounting.total_dropped_messages == 1
        assert m.pending_nodes() == [2, 3] or set(m.pending_nodes()) == {2, 3}

    def test_failed_unicast_sender_drops_silently(self):
        m = line_medium()
        m.fail_nodes([0])
        d = m.unicast(0, 1, msg(), 0)
        assert d.receivers.size == 0 and d.n_messages == 0
        assert m.accounting.total_dropped_messages == 1
        assert len(m.peek(1)) == 0

    def test_waking_does_not_heal_failed_node(self):
        m = line_medium()
        m.fail_nodes([1])
        m.wake([1])
        assert not m.is_available(1)

    def test_delivers_all_tracks_every_condition(self):
        """Direct handoff is allowed only while every copy would arrive."""
        from repro.network.links import IIDLossLink

        m = line_medium()
        assert m.delivers_all
        m.set_asleep([2])
        assert not m.delivers_all
        m.wake([2])
        assert m.delivers_all
        m.set_partition(np.arange(m.n_nodes) < 3)
        assert not m.delivers_all
        m.set_partition(None)
        m.install_link_override(IIDLossLink(p_loss=0.0, seed=1))
        assert not m.delivers_all
        m.install_link_override(None)
        m.fail_nodes([4])
        assert not m.delivers_all
        lossless_model = Medium(
            m.positions, m.radio, link_model=IIDLossLink(p_loss=0.0, seed=1)
        )
        assert not lossless_model.delivers_all


class _NonceRecorder(LinkModel):
    """Delivers every copy and records the nonce each one drew with."""

    def __init__(self):
        self.nonces = []

    def classify(self, sender, receiver, distance, iteration, nonce=0):
        self.nonces.append((sender, receiver, iteration, nonce))
        return LinkOutcome.DELIVER


class TestLinkNonces:
    def test_counted_per_link_and_kept_for_the_current_iteration_only(self):
        recorder = _NonceRecorder()
        pos = np.column_stack([np.arange(6) * 10.0, np.zeros(6)])
        m = Medium(pos, RadioModel(comm_radius=30.0), link_model=recorder)
        m.broadcast(0, msg(), 0)  # reaches 1, 2, 3
        m.unicast(0, 1, msg(), 0)
        m.broadcast(0, msg(), 0)
        assert [nc for s, r, k, nc in recorder.nonces if (s, r) == (0, 1)] == [0, 1, 2]
        assert [nc for s, r, k, nc in recorder.nonces if (s, r) == (0, 2)] == [0, 1]
        assert dict(m._nonces.items()) == {0 << 32 | 1: 3, 0 << 32 | 2: 2, 0 << 32 | 3: 2}

        recorder.nonces.clear()
        m.unicast(0, 1, msg(k=1), 1)
        m.broadcast(2, msg(2, k=1), 1)  # reaches 0, 1, 3, 4, 5
        m.unicast(0, 1, msg(k=1), 1)
        assert [nc for s, r, k, nc in recorder.nonces if (s, r) == (0, 1)] == [0, 1]
        assert all(k == 1 for _s, _r, k, _nc in recorder.nonces)
        assert m._nonce_iteration == 1
        assert dict(m._nonces.items()) == {
            0 << 32 | 1: 2, **{2 << 32 | r: 1 for r in (0, 1, 3, 4, 5)}
        }


class TestInboxes:
    def test_collect_drains(self):
        m = line_medium()
        m.broadcast(0, msg(), 0)
        assert len(m.collect(1)) == 1
        assert len(m.collect(1)) == 0

    def test_arrival_order_preserved(self):
        m = line_medium()
        m.broadcast(0, msg(0, 1.0), 0)
        m.broadcast(2, msg(2, 2.0), 0)
        inbox = m.collect(1)
        assert [x.sender for x in inbox] == [0, 2]

    def test_pending_nodes(self):
        m = line_medium()
        m.broadcast(0, msg(), 0)
        assert set(m.pending_nodes()) == {1, 2, 3}

    def test_clear_inboxes(self):
        m = line_medium()
        m.broadcast(0, msg(), 0)
        m.clear_inboxes()
        assert m.pending_nodes() == []

    @staticmethod
    def _busy_log(m):
        m.broadcast(0, msg(0, 1.0), 0)
        m.unicast(4, 5, msg(4, 2.0), 0)
        m.global_broadcast(msg(-1, 3.0), 0)
        m.broadcast(3, msg(3, 4.0), 0)

    def test_collect_many_is_one_collect_per_node(self):
        """Rows ascend, each row's messages in arrival order; nodes whose
        cursor already moved past part of the log see only the rest, and a
        node with an empty inbox keeps no cursor."""
        a, b = line_medium(), line_medium()
        for m in (a, b):
            m.broadcast(2, msg(2, 0.5), 0)
            assert len(m.collect(1)) == 1  # node 1's cursor moves past entry 0
            self._busy_log(m)
        nodes = [5, 1, 0, 2]
        rows, got = a.collect_many(nodes)
        want = [b.collect(n) for n in nodes]
        assert np.all(np.diff(rows) >= 0)
        assert [[got[k] for k in np.flatnonzero(rows == i)] for i in range(4)] == want
        assert [len(x) for x in want] == [4, 3, 3, 3]
        assert a._inbox_cursor == b._inbox_cursor
        assert a.collect_many(nodes)[1] == []  # drained
        empty = line_medium()
        assert empty.collect_many([1, 2])[0].size == 0
        assert empty._inbox_cursor == {}


class TestAccounting:
    def test_breakdowns_sum_to_totals(self):
        m = line_medium()
        m.broadcast(0, msg(k=0), 0)
        m.broadcast(
            0,
            ParticleMessage(sender=0, iteration=1, states=np.zeros((2, 4)), weights=[1, 1]),
            1,
        )
        acc = m.accounting
        assert sum(acc.bytes_by_iteration().values()) == acc.total_bytes
        assert sum(acc.messages_by_iteration().values()) == acc.total_messages
        assert sum(acc.bytes_by_category().values()) == acc.total_bytes
        assert acc.bytes_by_category()["propagation"] == 40
        assert acc.bytes_by_category()["measurement"] == 4

    def test_merge(self):
        a, b = CommAccounting(), CommAccounting()
        a.record(0, "x", 10, 1)
        b.record(0, "x", 5, 2)
        b.record(1, "y", 7, 1)
        a.merge(b)
        assert a.total_bytes == 22
        assert a.total_messages == 4
        assert a.by_key[(0, "x")] == [15, 3]

    def test_negative_rejected(self):
        acc = CommAccounting()
        with pytest.raises(ValueError):
            acc.record(0, "x", -1)

    def test_out_of_band_charge(self):
        m = line_medium()
        m.charge_out_of_band(3, "weight_aggregation", 32, 1)
        assert m.accounting.bytes_by_iteration()[3] == 32

    def test_custom_sizes_respected(self):
        pos = np.zeros((2, 2))
        pos[1, 0] = 5.0
        m = Medium(pos, RadioModel(comm_radius=30), DataSizes(measurement=10, header=2))
        m.broadcast(0, msg(), 0)
        assert m.accounting.total_bytes == 12


class TestUnicastRound:
    """Copies sent through a ``UnicastRound`` resolve as ``Medium.unicast``
    resolves them one at a time, whether or not a draw reserved their
    fates first; a stream that runs out is extended."""

    def media(self):
        from repro.network.links import GilbertElliottLink

        pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        return [
            Medium(pos, RadioModel(comm_radius=15.0),
                   link_model=GilbertElliottLink(0.4, 0.3, loss_bad=0.7, seed=3))
            for _ in range(2)
        ]

    # (sender, receiver): in range, repeated past any stream, reverse,
    # out of range, to a crashed node, from a crashed node
    COPIES = [(0, 1)] * 7 + [(1, 0), (1, 2), (0, 3), (2, 3)] + [(1, 2)] * 3 + [(3, 2)]

    @pytest.mark.parametrize("reserve", [0, 1], ids=["undrawn", "drawn-once"])
    def test_copies_resolve_as_unicast(self, reserve):
        from repro.kernels.delivery import OUTCOME_DELAY, OUTCOME_DELIVER, OUTCOME_DROP
        from repro.network.medium import COPY_LOST, COPY_REFUSED, COPY_SENDER_DEAD

        rounds, single = self.media()
        for medium in (rounds, single):
            medium.fail_nodes([3])
        rnd = rounds.unicast_round(5, depth=2)
        if reserve:
            rnd.draw([0, 1], [1, 2])
        got = [rnd.send(a, b, msg(a), True) for a, b in self.COPIES]
        rnd.commit()
        want = []
        for a, b in self.COPIES:
            try:
                d = single.unicast(a, b, msg(a), 5)
            except RuntimeError:
                want.append(COPY_REFUSED)
                continue
            if d.n_messages == 0:
                want.append(COPY_SENDER_DEAD)
            elif d.receivers.size:
                want.append(OUTCOME_DELIVER)
            elif d.dropped.size:
                want.append(OUTCOME_DROP)
            elif d.delayed.size:
                want.append(OUTCOME_DELAY)
            else:
                want.append(COPY_LOST)
        assert got == want
        assert {COPY_REFUSED, COPY_SENDER_DEAD, COPY_LOST, OUTCOME_DROP} <= set(got)
        ra, sa = rounds.accounting, single.accounting
        assert ra.by_key == sa.by_key and ra.dropped_by_key == sa.dropped_by_key
        assert rounds._nonces.items() == single._nonces.items()
        assert [r.tolist() for r, _m in rounds._inbox_log] == [
            r.tolist() for r, _m in single._inbox_log
        ]

    def test_a_round_commits_once(self):
        rnd = self.media()[0].unicast_round(0)
        rnd.commit()
        with pytest.raises(RuntimeError):
            rnd.commit()

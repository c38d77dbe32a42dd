"""LinkModel + lossy Medium: transparency, conservation, determinism, bursts.

The invariants here are what the whole lossy-channel tier stands on:

* **zero-loss transparency** — a medium with a zero-loss link model behaves
  byte-for-byte like a medium with no link model at all;
* **conservation** — delivered + dropped + delayed copies partition exactly
  the recipients the radio offered the message to;
* **determinism** — the same seed reproduces the same drop pattern on a
  fresh medium, regardless of unrelated draws in between.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.delivery import link_uniform
from repro.network.links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
    LinkModel,
    LinkOutcome,
    LinkTable,
)
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel


def grid_medium(link_model=None, n_side=5, spacing=10.0, comm=25.0):
    xs, ys = np.meshgrid(np.arange(n_side) * spacing, np.arange(n_side) * spacing)
    pos = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    return Medium(pos, RadioModel(comm_radius=comm), link_model=link_model)


def msg(sender=0, k=0, value=1.0):
    return MeasurementMessage(sender=sender, iteration=k, value=value)


def run_script(medium, n_iters=3):
    """A fixed broadcast/unicast script; returns (deliveries, inbox snapshot)."""
    deliveries = []
    for k in range(n_iters):
        medium.flush_delayed(k)
        deliveries.append(medium.broadcast(k % medium.n_nodes, msg(k % medium.n_nodes, k), k))
        deliveries.append(medium.broadcast(k + 5, msg(k + 5, k, 2.0), k))
        deliveries.append(medium.unicast(0, 1, msg(0, k, 3.0), k))
    inboxes = {
        i: [(m.sender, m.iteration, m.value) for m in medium.peek(i)]
        for i in range(medium.n_nodes)
    }
    return deliveries, inboxes


class TestZeroLossTransparency:
    def test_zero_loss_identical_to_reliable(self):
        """p_loss = 0 must be indistinguishable from no link model at all."""
        plain = grid_medium(None)
        zero = grid_medium(IIDLossLink(p_loss=0.0, seed=99))
        d_plain, in_plain = run_script(plain)
        d_zero, in_zero = run_script(zero)
        assert in_plain == in_zero
        for a, b in zip(d_plain, d_zero):
            assert a.receivers.tolist() == b.receivers.tolist()
            assert b.dropped.size == 0 and b.delayed.size == 0
            assert (a.n_bytes, a.n_messages) == (b.n_bytes, b.n_messages)
        assert plain.accounting.total_bytes == zero.accounting.total_bytes
        assert plain.accounting.by_key == zero.accounting.by_key
        assert zero.accounting.total_dropped_messages == 0

    def test_base_linkmodel_class_is_transparent(self):
        plain = grid_medium(None)
        base = grid_medium(LinkModel())
        _, in_plain = run_script(plain)
        _, in_base = run_script(base)
        assert in_plain == in_base
        assert base.accounting.total_dropped_messages == 0

    def test_is_unreliable_flag(self):
        assert not grid_medium(None).is_unreliable
        assert grid_medium(IIDLossLink(p_loss=0.0)).is_unreliable
        m = grid_medium(None)
        m.install_link_override(IIDLossLink(p_loss=0.5))
        assert m.is_unreliable
        m.install_link_override(None)
        assert not m.is_unreliable


class TestConservation:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_delivered_dropped_delayed_partition_offered(self, seed, p_loss):
        lossy = grid_medium(DelayingLink(IIDLossLink(p_loss=p_loss, seed=seed), p_delay=0.3, seed=seed + 1))
        plain = grid_medium(None)
        for k in range(2):
            d_lossy = lossy.broadcast(12, msg(12, k), k)
            d_plain = plain.broadcast(12, msg(12, k), k)
            # the offered set is a channel-independent geometric fact
            assert d_lossy.n_offered == d_plain.receivers.size
            combined = np.concatenate([d_lossy.receivers, d_lossy.dropped, d_lossy.delayed])
            assert sorted(combined.tolist()) == sorted(d_plain.receivers.tolist())
            # the three sets are disjoint
            assert len(set(combined.tolist())) == combined.size

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 0.99))
    def test_dropped_ledger_matches_drop_records(self, seed, p_loss):
        m = grid_medium(IIDLossLink(p_loss=p_loss, seed=seed))
        total_drops = 0
        for k in range(3):
            d = m.broadcast(6, msg(6, k), k)
            total_drops += int(d.dropped.size)
        assert m.accounting.total_dropped_messages == total_drops
        # transmission cost is loss-invariant: 3 broadcasts, 3 charges
        assert m.accounting.total_messages == 3


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_same_seed_same_drop_pattern(self, seed):
        a = grid_medium(IIDLossLink(p_loss=0.4, seed=seed))
        b = grid_medium(IIDLossLink(p_loss=0.4, seed=seed))
        # interleave unrelated traffic on b only: keyed draws must not care
        b.broadcast(24, msg(24, 0), 0)
        da = a.broadcast(6, msg(6, 0), 0)
        db = b.broadcast(6, msg(6, 0), 0)
        assert da.receivers.tolist() == db.receivers.tolist()
        assert da.dropped.tolist() == db.dropped.tolist()

    def test_different_seed_different_pattern(self):
        outcomes = set()
        for seed in range(8):
            m = grid_medium(IIDLossLink(p_loss=0.5, seed=seed))
            outcomes.add(tuple(m.broadcast(12, msg(12, 0), 0).dropped.tolist()))
        assert len(outcomes) > 1

    def test_nonce_gives_independent_fates_within_iteration(self):
        m = grid_medium(IIDLossLink(p_loss=0.5, seed=3))
        fates = [m.broadcast(12, msg(12, 0, float(i)), 0).dropped.tolist() for i in range(6)]
        assert len({tuple(f) for f in fates}) > 1  # not one shared coin flip


class TestDistanceFading:
    def test_probability_monotone_in_distance(self):
        link = DistanceFadingLink(comm_radius=30.0, inner_radius=10.0, edge_probability=0.4)
        ds = np.linspace(0.0, 30.0, 61)
        ps = [link.delivery_probability(float(d)) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
        assert ps[0] == 1.0
        assert ps[-1] == pytest.approx(0.4)

    def test_perfect_inside_inner_radius(self):
        link = DistanceFadingLink(comm_radius=30.0, inner_radius=15.0, edge_probability=0.1, seed=7)
        for _ in range(20):
            assert link.classify(0, 1, 14.9, 0) is LinkOutcome.DELIVER

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceFadingLink(comm_radius=-1.0)
        with pytest.raises(ValueError):
            DistanceFadingLink(inner_radius=40.0, comm_radius=30.0)


def forward_states(link, sender, receiver, n):
    """The chain's states at iterations 0..n-1, stepped forward from good."""
    bad, states = False, []
    for k in range(n):
        u = link_uniform(link.seed, 3, sender, receiver, k, 0)
        bad = u >= link.p_bad_to_good if bad else u < link.p_good_to_bad
        states.append(bad)
    return states


def state_at(link, sender, receiver, iteration):
    return bool(link.advance(sender, [receiver], iteration)[0])


class TestGilbertElliott:
    def test_state_replay_is_deterministic(self):
        a = GilbertElliottLink(seed=5)
        b = GilbertElliottLink(seed=5)
        # ask b out of order: no call leaves anything behind to change the path
        backwards = [state_at(b, 0, 1, k) for k in range(9, -1, -1)]
        forwards = [state_at(a, 0, 1, k) for k in range(10)]
        assert forwards == backwards[::-1] == forward_states(a, 0, 1, 10)

    def test_losses_cluster_in_bad_state(self):
        link = GilbertElliottLink(
            p_good_to_bad=0.2, p_bad_to_good=0.3, loss_good=0.0, loss_bad=1.0, seed=11
        )
        drops = [
            link.classify(0, 1, 10.0, k) is LinkOutcome.DROP for k in range(200)
        ]
        states = [state_at(link, 0, 1, k) for k in range(200)]
        assert drops == states == forward_states(link, 0, 1, 200)  # drop iff bad
        assert any(states) and not all(states)

    def test_stationary_delivery_probability(self):
        link = GilbertElliottLink(
            p_good_to_bad=0.1, p_bad_to_good=0.4, loss_good=0.0, loss_bad=1.0
        )
        assert link.delivery_probability(5.0) == pytest.approx(1.0 - 0.1 / 0.5)


class TestLinkTable:
    """The packed-key table agrees with a plain dict under batched reads and
    writes of any size, one key included (absent keys read 0, last write
    wins)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 9)),
                max_size=12,
            ),
            max_size=8,
        )
    )
    def test_matches_dict(self, ops):
        table, oracle = LinkTable(), {}
        for writes in ops:
            keys = np.array([s << 32 | r for s, r, _v in writes], dtype=np.int64)
            values = [v for *_k, v in writes]
            got = table.get_many(keys)
            assert got.tolist() == [oracle.get(k, 0) for k in keys.tolist()]
            table.set_many(keys, np.array(values, dtype=np.int64))
            oracle.update(zip(keys.tolist(), values))
        assert table.items() == sorted(oracle.items())


class TestDelay:
    def test_delayed_copy_arrives_next_iteration(self):
        m = grid_medium(DelayingLink(LinkModel(), p_delay=1.0, seed=0))
        d = m.broadcast(12, msg(12, 0), 0)
        assert d.receivers.size == 0
        assert d.delayed.size > 0
        assert m.pending_nodes() == []  # nothing arrived yet
        m.flush_delayed(1)
        assert sorted(m.pending_nodes()) == sorted(d.delayed.tolist())

    def test_delayed_copy_lost_if_target_dies(self):
        m = grid_medium(DelayingLink(LinkModel(), p_delay=1.0, seed=0))
        d = m.broadcast(12, msg(12, 0), 0)
        victim = int(d.delayed[0])
        m.fail_nodes([victim])
        m.flush_delayed(1)
        assert victim not in m.pending_nodes()


class TestPartitionHook:
    def test_partition_blocks_cross_side_traffic_only(self):
        m = grid_medium(None)
        mask = m.positions[:, 0] < 20.0  # left columns vs right columns
        m.set_partition(mask)
        d = m.broadcast(12, msg(12, 0), 0)  # node 12 = center of the 5x5 grid
        sender_side = bool(mask[12])
        for r in d.receivers:
            assert bool(mask[int(r)]) == sender_side
        for r in d.dropped:
            assert bool(mask[int(r)]) != sender_side
        assert d.dropped.size > 0
        m.set_partition(None)
        healed = m.broadcast(12, msg(12, 1), 1)
        assert healed.dropped.size == 0

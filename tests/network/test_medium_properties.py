"""Hypothesis property tests: the communication ledger's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.links import IIDLossLink
from repro.network.medium import CommAccounting, Medium
from repro.network.messages import MeasurementMessage, ParticleMessage
from repro.network.radio import RadioModel


entries = st.lists(
    st.tuples(
        st.integers(0, 20),  # iteration
        st.sampled_from(["propagation", "measurement", "weight_aggregation", "x"]),
        st.integers(0, 10_000),  # bytes
        st.integers(0, 50),  # messages
    ),
    max_size=60,
)


class TestLedgerInvariants:
    @settings(max_examples=60, deadline=None)
    @given(entries)
    def test_breakdowns_always_sum_to_totals(self, recs):
        acc = CommAccounting()
        for it, cat, b, m in recs:
            acc.record(it, cat, b, m)
        assert sum(acc.bytes_by_iteration().values()) == acc.total_bytes
        assert sum(acc.messages_by_iteration().values()) == acc.total_messages
        assert sum(acc.bytes_by_category().values()) == acc.total_bytes
        assert sum(acc.messages_by_category().values()) == acc.total_messages

    @settings(max_examples=40, deadline=None)
    @given(entries, entries)
    def test_merge_is_additive(self, recs_a, recs_b):
        a, b = CommAccounting(), CommAccounting()
        for it, cat, by, m in recs_a:
            a.record(it, cat, by, m)
        for it, cat, by, m in recs_b:
            b.record(it, cat, by, m)
        total_bytes = a.total_bytes + b.total_bytes
        total_msgs = a.total_messages + b.total_messages
        a.merge(b)
        assert a.total_bytes == total_bytes
        assert a.total_messages == total_msgs
        assert sum(a.bytes_by_category().values()) == total_bytes


class TestBroadcastGeometryProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(5.0, 50.0))
    def test_receivers_exactly_the_in_range_awake_nodes(self, seed, radius):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 100, (40, 2))
        medium = Medium(pos, RadioModel(comm_radius=radius))
        asleep = rng.integers(1, 40, size=5)
        medium.set_asleep(asleep)
        msg = MeasurementMessage(sender=0, iteration=0, value=0.1)
        if not medium.is_available(0):
            medium.wake([0])
        delivery = medium.broadcast(0, msg, 0)
        got = set(delivery.receivers.tolist())
        d = np.linalg.norm(pos - pos[0], axis=1)
        expected = {
            i
            for i in range(1, 40)
            if d[i] <= radius and medium.is_available(i)
        }
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_particle_broadcast_charge_matches_size(self, seed, n_particles):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 50, (10, 2))
        medium = Medium(pos, RadioModel(comm_radius=30.0))
        msg = ParticleMessage(
            sender=0,
            iteration=3,
            states=rng.uniform(0, 50, (n_particles, 4)),
            weights=rng.uniform(0, 1, n_particles),
        )
        medium.broadcast(0, msg, 3)
        assert medium.accounting.total_bytes == n_particles * 20
        assert medium.accounting.total_messages == 1


dropped_entries = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.sampled_from(["propagation", "measurement", "control"]),
        st.integers(0, 10_000),
        st.integers(0, 50),
    ),
    max_size=40,
)


class TestDroppedLedgerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(dropped_entries)
    def test_dropped_breakdowns_sum_to_totals(self, recs):
        acc = CommAccounting()
        for it, cat, b, m in recs:
            acc.record_dropped(it, cat, b, m)
        assert sum(acc.dropped_messages_by_iteration().values()) == acc.total_dropped_messages
        assert sum(acc.dropped_messages_by_category().values()) == acc.total_dropped_messages
        assert sum(acc.dropped_bytes_by_category().values()) == acc.total_dropped_bytes
        # the dropped ledger never leaks into the transmission totals
        assert acc.total_bytes == 0 and acc.total_messages == 0

    @settings(max_examples=30, deadline=None)
    @given(dropped_entries, dropped_entries)
    def test_merge_is_additive_for_dropped(self, recs_a, recs_b):
        a, b = CommAccounting(), CommAccounting()
        for it, cat, by, m in recs_a:
            a.record_dropped(it, cat, by, m)
        for it, cat, by, m in recs_b:
            b.record_dropped(it, cat, by, m)
        expected = a.total_dropped_messages + b.total_dropped_messages
        a.merge(b)
        assert a.total_dropped_messages == expected
        assert sum(m for _b, m in a.dropped_by_key.values()) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_lossy_broadcast_conserves_offered_copies(self, seed, p_loss):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 100, (40, 2))
        reliable = Medium(pos, RadioModel(comm_radius=35.0))
        lossy = Medium(
            pos, RadioModel(comm_radius=35.0), link_model=IIDLossLink(p_loss=p_loss, seed=seed)
        )
        m = MeasurementMessage(sender=0, iteration=0, value=0.5)
        offered = reliable.broadcast(0, m, 0).receivers
        d = lossy.broadcast(0, m, 0)
        got = np.concatenate([d.receivers, d.dropped, d.delayed])
        assert sorted(got.tolist()) == sorted(offered.tolist())
        # cost is loss-invariant; per-copy drops land in the parallel ledger
        assert lossy.accounting.total_messages == reliable.accounting.total_messages
        assert lossy.accounting.total_dropped_messages == d.dropped.size

#: One accounting "op": (phase-path, charged?, iteration, category, bytes, messages).
#: The phase path nests scopes (() = unscoped, ("a", "b") = a around b), so a
#: single op list exercises nested scopes with charged and dropped entries
#: interleaved in arbitrary order.
phase_ops = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["propagation", "correction", "wrap"]), max_size=2),
        st.booleans(),
        st.integers(0, 20),
        st.sampled_from(["particle", "measurement", "control"]),
        st.integers(0, 10_000),
        st.integers(0, 50),
    ),
    max_size=60,
)


class TestPhaseMarginalInvariants:
    """Satellite: phase marginals sum exactly to totals under nested scopes
    and interleaved dropped entries; a plain-dict oracle replay pins the
    struct-of-arrays ledgers to the pre-SoA defaultdict semantics."""

    @staticmethod
    def _replay(acc, ops, rows=False):
        """Run the ops through ``acc`` and through a plain-dict oracle;
        ``rows`` records through the batched ``record_rows`` /
        ``record_dropped_rows`` appends instead of one entry at a time."""
        oracle_by_key = {}
        oracle_by_phase = {}
        oracle_dropped = {}
        oracle_dropped_phase = {}
        for phases, charged, it, cat, b, m in ops:
            for p in phases:
                acc.push_phase(p)
            innermost = phases[-1] if phases else ""
            if charged:
                if rows:
                    acc.record_rows([it], [cat], [b], m)
                else:
                    acc.record(it, cat, b, m)
                key, pkey = (it, cat), (it, cat, innermost)
                tgt, ptgt = oracle_by_key, oracle_by_phase
            else:
                if rows:
                    acc.record_dropped_rows([it], [cat], [b], m)
                else:
                    acc.record_dropped(it, cat, b, m)
                key, pkey = (it, cat), (it, cat, innermost)
                tgt, ptgt = oracle_dropped, oracle_dropped_phase
            tgt.setdefault(key, [0, 0])
            tgt[key][0] += b
            tgt[key][1] += m
            ptgt.setdefault(pkey, [0, 0])
            ptgt[pkey][0] += b
            ptgt[pkey][1] += m
            for _ in phases:
                acc.pop_phase()
        return oracle_by_key, oracle_by_phase, oracle_dropped, oracle_dropped_phase

    @settings(max_examples=60, deadline=None)
    @given(phase_ops)
    def test_phase_marginals_sum_to_totals(self, ops):
        acc = CommAccounting()
        self._replay(acc, ops)
        assert sum(acc.bytes_by_phase().values()) == acc.total_bytes
        assert sum(acc.messages_by_phase().values()) == acc.total_messages
        assert sum(acc.dropped_bytes_by_phase().values()) == acc.total_dropped_bytes
        assert (
            sum(acc.dropped_messages_by_phase().values())
            == acc.total_dropped_messages
        )
        # the phase axis only refines by_key, never changes its totals
        assert sum(b for b, _m in acc.by_phase_key.values()) == sum(
            b for b, _m in acc.by_key.values()
        )

    @settings(max_examples=60, deadline=None)
    @given(phase_ops)
    def test_soa_ledgers_match_plain_dict_oracle(self, ops):
        for rows in (False, True):
            acc = CommAccounting()
            by_key, by_phase, dropped, dropped_phase = self._replay(acc, ops, rows)
            assert dict(acc.by_key) == by_key
            assert dict(acc.by_phase_key) == by_phase
            assert dict(acc.dropped_by_key) == dropped
            assert dict(acc.dropped_by_phase_key) == dropped_phase
            assert acc.total_bytes == sum(b for b, _m in by_key.values())
            assert acc.total_messages == sum(m for _b, m in by_key.values())

    @settings(max_examples=30, deadline=None)
    @given(phase_ops, phase_ops)
    def test_merge_preserves_phase_attribution(self, ops_a, ops_b):
        a, b = CommAccounting(), CommAccounting()
        _, phase_a, _, _ = self._replay(a, ops_a)
        _, phase_b, _, _ = self._replay(b, ops_b)
        merged = dict(phase_a)
        for k, (by, m) in phase_b.items():
            entry = merged.setdefault(k, [0, 0])
            merged[k] = [entry[0] + by, entry[1] + m]
        a.merge(b)
        assert dict(a.by_phase_key) == merged


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_same_seed_reproduces_drop_pattern(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 100, (30, 2))
        runs = []
        for _ in range(2):
            medium = Medium(
                pos, RadioModel(comm_radius=40.0), link_model=IIDLossLink(p_loss=0.5, seed=seed)
            )
            trace = []
            for k in range(3):
                d = medium.broadcast(k, MeasurementMessage(sender=k, iteration=k, value=1.0), k)
                trace.append((tuple(d.receivers.tolist()), tuple(d.dropped.tolist())))
            runs.append(trace)
        assert runs[0] == runs[1]

"""The batched communication plane: TransmissionBatch, NeighborhoodCache.

Pins the two load-bearing claims of the round-level refactor:

* **wrapper equivalence** — enqueueing a round of transmissions and flushing
  once is bit-identical (deliveries, inboxes, every ledger) to sending the
  same messages one by one, reliable or lossy;
* **shared neighborhoods** — one ``NeighborhoodCache`` per deployment feeds
  both the medium and the topology layer, so the comm-radius grid index is
  built exactly once and invalidates only on mobility/fault mutations.
"""

import numpy as np
import pytest

from repro.network.links import DelayingLink, GilbertElliottLink, IIDLossLink
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage, ParticleMessage
from repro.network.neighborhood import NeighborhoodCache
from repro.network.radio import RadioModel
from repro.network.spatial import GridIndex
from repro.scenario import make_paper_scenario

from . import per_copy

RADIO = RadioModel(comm_radius=30.0)


def _positions(n=60, seed=7):
    return np.random.default_rng(seed).uniform(0, 100, (n, 2))


def _ledgers(medium):
    acc = medium.accounting
    return (
        acc.total_bytes,
        acc.total_messages,
        acc.total_dropped_bytes,
        acc.total_dropped_messages,
        dict(acc.by_key),
        dict(acc.by_phase_key),
        dict(acc.dropped_by_key),
        dict(acc.dropped_by_phase_key),
    )


def _delivery_tuple(d):
    return (
        d.receivers.tolist(),
        d.n_bytes,
        d.n_messages,
        d.dropped.tolist(),
        d.delayed.tolist(),
    )


class TestBatchEquivalence:
    """One flush == the same sends issued per message, bit for bit."""

    def _round(self, medium, iteration, *, batched):
        msgs = [
            MeasurementMessage(sender=s, iteration=iteration, value=0.1 * s)
            for s in range(6)
        ]
        if batched:
            batch = medium.transmission_batch(iteration)
            for s, m in enumerate(msgs):
                batch.broadcast(s, m)
            return batch.flush()
        return [medium.broadcast(s, m, iteration) for s, m in enumerate(msgs)]

    @pytest.mark.parametrize(
        "link_model",
        [
            None,
            IIDLossLink(p_loss=0.4, seed=3),
            GilbertElliottLink(seed=3, p_good_to_bad=0.4, loss_bad=0.8),
            DelayingLink(inner=IIDLossLink(p_loss=0.3, seed=5), p_delay=0.5, seed=9),
        ],
        ids=["reliable", "iid", "gilbert-elliott", "delaying"],
    )
    def test_broadcast_round_matches_per_message_sends(self, link_model):
        pos = _positions()
        results = {}
        for batched in (False, True):
            lm = None
            if link_model is not None:
                lm = type(link_model)(**{
                    f.name: getattr(link_model, f.name)
                    for f in link_model.__dataclass_fields__.values()
                    if f.init
                })
            medium = Medium(pos, RADIO, link_model=lm)
            trace = []
            for k in range(3):
                deliveries = self._round(medium, k, batched=batched)
                trace.append([_delivery_tuple(d) for d in deliveries])
                inboxes = {n: medium.collect(n) for n in range(pos.shape[0])}
                trace.append(
                    {n: [(m.sender, m.value) for m in ms] for n, ms in inboxes.items() if ms}
                )
            results[batched] = (trace, _ledgers(medium))
        assert results[False] == results[True]

    def test_reliable_round_matches_disk_queries(self):
        """A flushed reliable round reaches exactly each sender's comm-radius
        disk query minus the sender, and charges one message per broadcast —
        what the per-message medium did with one ``query_disk`` per send."""
        pos = _positions(n=300, seed=11)
        medium = Medium(pos, RADIO)
        index = GridIndex(pos, RADIO.comm_radius)
        senders = [3, 17, 42, 99, 150, 271]
        msgs = [
            ParticleMessage(sender=s, iteration=0, states=np.zeros((1, 4)),
                            weights=np.ones(1))
            for s in senders
        ]
        batch = medium.transmission_batch(0)
        for s, m in zip(senders, msgs):
            batch.broadcast(s, m)
        deliveries = batch.flush()
        for s, d in zip(senders, deliveries):
            in_range = index.query_disk(pos[s], RADIO.comm_radius)
            assert np.array_equal(d.receivers, np.sort(in_range[in_range != s])), s
        n_bytes = msgs[0].size_bytes(medium.sizes)
        assert dict(medium.accounting.by_key) == {
            (0, msgs[0].category): [len(senders) * n_bytes, len(senders)]
        }

    def test_mixed_round_preserves_enqueue_order_nonces(self):
        """A broadcast, a one-hop path and a broadcast sent one after
        another consume the per-link nonces in send order, and so draw the
        fates the per-copy path walk draws."""
        pos = _positions(n=20)
        got = []
        for unicast_path in (Medium.unicast_path, per_copy.unicast_path):
            medium = Medium(pos, RADIO, link_model=IIDLossLink(p_loss=0.5, seed=11))
            nbrs = NeighborhoodCache(pos, RADIO.comm_radius).neighbors(0)
            target = int(nbrs[0])
            m1 = MeasurementMessage(sender=0, iteration=0, value=1.0)
            m2 = MeasurementMessage(sender=0, iteration=0, value=2.0)
            m3 = MeasurementMessage(sender=0, iteration=0, value=3.0)
            deliveries = [
                medium.broadcast(0, m1, 0),
                unicast_path(medium, [0, target], m2, 0),
                medium.broadcast(0, m3, 0),
            ]
            # 3 copies crossed the 0->target link, in send order
            assert medium._nonce_iteration == 0
            assert medium._nonces.get_many(np.array([0 << 32 | target])).tolist() == [3]
            got.append([_delivery_tuple(d) for d in deliveries])
        assert got[0] == got[1]

    def test_flush_is_single_use(self):
        medium = Medium(_positions(), RADIO)
        batch = medium.transmission_batch(0)
        batch.broadcast(0, MeasurementMessage(sender=0, iteration=0, value=1.0))
        batch.flush()
        with pytest.raises(RuntimeError):
            batch.flush()

    def test_out_of_band_charges_ride_the_flush(self):
        medium = Medium(_positions(), RADIO)
        batch = medium.transmission_batch(4)
        batch.charge_out_of_band("weight", 120, 1)
        batch.charge_out_of_band("weight", 80, 1)
        assert medium.accounting.total_bytes == 0  # not charged until flush
        batch.flush()
        assert medium.accounting.total_bytes == 200
        assert medium.accounting.by_key[(4, "weight")] == [200, 2]

    def test_failed_sender_drops_silently_in_batch(self):
        medium = Medium(_positions(), RADIO)
        medium.fail_nodes([2])
        batch = medium.transmission_batch(0)
        batch.broadcast(2, MeasurementMessage(sender=2, iteration=0, value=1.0))
        batch.broadcast(0, MeasurementMessage(sender=0, iteration=0, value=2.0))
        d_failed, d_ok = batch.flush()
        assert d_failed.n_messages == 0 and d_failed.receivers.size == 0
        assert d_ok.receivers.size > 0
        assert medium.accounting.total_dropped_messages == 1

    def test_asleep_sender_raises_at_flush(self):
        medium = Medium(_positions(), RADIO)
        medium.set_asleep([1])
        batch = medium.transmission_batch(0)
        batch.broadcast(1, MeasurementMessage(sender=1, iteration=0, value=1.0))
        with pytest.raises(RuntimeError, match="asleep"):
            batch.flush()


class TestDelayedAcrossFlushBoundary:
    """Satellite: a copy delayed at iteration t surfaces in t+1's inbox and
    stays charged to the original sender's iteration t."""

    def _medium(self):
        # p_delay=1: every delivered copy is parked for the next iteration
        return Medium(
            _positions(n=30),
            RADIO,
            link_model=DelayingLink(inner=IIDLossLink(p_loss=0.0), p_delay=1.0),
        )

    def test_delayed_copy_surfaces_after_next_flush(self):
        medium = self._medium()
        msg = ParticleMessage(
            sender=0, iteration=2, states=np.zeros((1, 4)), weights=np.ones(1)
        )
        batch = medium.transmission_batch(2)
        batch.broadcast(0, msg)
        (delivery,) = batch.flush()
        assert delivery.receivers.size == 0
        assert delivery.delayed.size > 0
        victim = int(delivery.delayed[0])
        # not visible inside iteration 2, even after the flush
        assert medium.collect(victim) == []
        # the next iteration's flush (empty batch) surfaces it
        medium.transmission_batch(3).flush()
        inbox = medium.collect(victim)
        assert [m.sender for m in inbox] == [0]
        assert inbox[0].iteration == 2  # the stale original, not a re-send

    def test_delayed_copy_charged_to_original_iteration(self):
        medium = self._medium()
        msg = ParticleMessage(
            sender=0, iteration=2, states=np.zeros((1, 4)), weights=np.ones(1)
        )
        batch = medium.transmission_batch(2)
        batch.broadcast(0, msg)
        (delivery,) = batch.flush()
        n_bytes = msg.size_bytes(medium.sizes)
        assert medium.accounting.by_key[(2, msg.category)] == [n_bytes, 1]
        medium.transmission_batch(3).flush()
        # delivery at t+1 never re-charges: the ledger still shows only t
        assert dict(medium.accounting.by_key) == {(2, msg.category): [n_bytes, 1]}
        # and the delayed copies were never logged as dropped
        assert medium.accounting.total_dropped_messages == 0
        assert delivery.delayed.size > 0


class TestSharedNeighborhood:
    """Satellite: Medium and NeighborTables consume one NeighborhoodCache."""

    def test_scenario_builds_one_cache_for_medium_and_tables(self):
        scenario = make_paper_scenario(2.0, rng=np.random.default_rng(0))
        medium = scenario.make_medium()
        tables = scenario.make_neighbor_tables()
        assert medium._neighborhood is tables._neighborhood
        # one grid index object serves both consumers
        assert medium._index is tables._neighborhood.index

    def test_localization_error_splits_the_caches(self):
        scenario = make_paper_scenario(2.0, rng=np.random.default_rng(0))
        noisy = scenario.with_localization_error(1.0, np.random.default_rng(1))
        medium = noisy.make_medium()
        tables = noisy.make_neighbor_tables()
        # physical (radio) and believed (node knowledge) geometries differ,
        # so the caches must not be shared
        assert medium._neighborhood is not tables._neighborhood
        assert medium._neighborhood.positions is noisy.physical_deployment.positions
        assert tables._neighborhood.positions is noisy.deployment.positions

    def test_neighbors_match_disk_query_and_are_frozen(self):
        pos = _positions(n=80)
        cache = NeighborhoodCache(pos, RADIO.comm_radius)
        d = np.linalg.norm(pos - pos[5], axis=1)
        expected = sorted(
            i for i in range(80) if i != 5 and d[i] <= RADIO.comm_radius
        )
        got = cache.neighbors(5)
        assert got.tolist() == expected
        assert cache.neighbors(5) is got  # cached
        with pytest.raises(ValueError):
            got[0] = 0  # read-only

    def test_fault_mutations_keep_geometry_but_refresh_offered_sets(self):
        pos = _positions(n=40)
        medium = Medium(pos, RADIO)
        msg = MeasurementMessage(sender=0, iteration=0, value=1.0)
        before = medium.broadcast(0, msg, 0).receivers
        index_before = medium._index
        victim = int(before[0])
        medium.fail_nodes([victim])
        after = medium.broadcast(0, msg, 0).receivers
        # geometric cache untouched (positions did not move) ...
        assert medium._index is index_before
        # ... but the availability overlay dropped the failed node
        assert victim not in after.tolist()
        assert sorted(after.tolist() + [victim]) == sorted(before.tolist())

    def test_mobility_detaches_the_shared_cache(self):
        scenario = make_paper_scenario(2.0, rng=np.random.default_rng(0))
        medium = scenario.make_medium()
        tables = scenario.make_neighbor_tables()
        shared = tables._neighborhood
        moved = scenario.deployment.positions + 1.0
        medium.update_positions(moved)
        # the medium follows the physical move; believed tables must not
        assert medium._neighborhood is not shared
        assert tables._neighborhood is shared
        assert shared.positions is scenario.deployment.positions

    def test_cache_rejects_bad_inputs(self):
        pos = _positions(n=10)
        with pytest.raises(ValueError, match="radius"):
            NeighborhoodCache(pos, 0.0)
        cache = NeighborhoodCache(pos, 10.0)
        with pytest.raises(ValueError, match="out of range"):
            cache.neighbors(10)
        with pytest.raises(ValueError, match="shape"):
            cache.rebind(np.zeros((5, 2)))

    def test_rebind_invalidates_and_bumps_epoch(self):
        pos = _positions(n=10)
        cache = NeighborhoodCache(pos, 20.0)
        first = cache.neighbors(0)
        epoch = cache.epoch
        cache.rebind(pos + 5.0)
        assert cache.epoch == epoch + 1
        again = cache.neighbors(0)
        assert again is not first


class TestEmptyFlush:
    """Flushing a batch with zero enqueued transmissions is a ledger no-op."""

    def test_empty_flush_changes_no_ledger(self):
        medium = Medium(_positions(), RADIO)
        # prior traffic so the ledgers are non-trivial before the empty flush
        medium.broadcast(0, MeasurementMessage(sender=0, iteration=0, value=1.0), 0)
        before = _ledgers(medium)
        assert medium.transmission_batch(1).flush() == []
        assert _ledgers(medium) == before

    def test_empty_flush_on_lossy_medium(self):
        medium = Medium(_positions(), RADIO, link_model=IIDLossLink(p_loss=0.4, seed=3))
        medium.broadcast(0, MeasurementMessage(sender=0, iteration=0, value=1.0), 0)
        before = _ledgers(medium)
        assert medium.transmission_batch(1).flush() == []
        assert _ledgers(medium) == before

    def test_empty_flush_still_releases_due_delayed_copies(self):
        """The round boundary (delayed-copy release) runs even with no sends —
        and releasing a parked copy charges nothing (it was counted at send
        time, in the original Delivery's ``delayed`` record)."""
        link = DelayingLink(IIDLossLink(p_loss=0.0, seed=0), p_delay=1.0, seed=5)
        medium = Medium(_positions(), RADIO, link_model=link)
        d = medium.broadcast(0, MeasurementMessage(sender=0, iteration=0, value=1.0), 0)
        assert d.delayed.size > 0
        target = int(d.delayed[0])
        assert all(m.sender != 0 for m in medium.peek(target))
        before = _ledgers(medium)
        assert medium.transmission_batch(1).flush() == []
        assert _ledgers(medium) == before
        assert any(m.sender == 0 for m in medium.peek(target))

    def test_empty_batch_is_still_single_use(self):
        medium = Medium(_positions(), RADIO)
        batch = medium.transmission_batch(0)
        batch.flush()
        with pytest.raises(RuntimeError, match="already flushed"):
            batch.flush()

"""ReliableUnicast: stop-and-wait ARQ, dedupe, route repair, honest accounting."""

import numpy as np
import pytest

from repro.network.links import GilbertElliottLink, IIDLossLink
from repro.network.medium import Medium
from repro.network.messages import MeasurementMessage
from repro.network.radio import RadioModel
from repro.network.reliability import ReliabilityConfig, ReliableUnicast
from repro.network.spatial import GridIndex


def line_medium(link_model=None, spacing=20.0, n=5, comm=25.0):
    pos = np.column_stack([np.arange(n) * spacing, np.zeros(n)]).astype(float)
    return Medium(pos, RadioModel(comm_radius=comm), link_model=link_model)


def msg(sender=0, k=0):
    return MeasurementMessage(sender=sender, iteration=k, value=1.0)


class TestLosslessPath:
    def test_delivers_and_charges_acks(self):
        m = line_medium()
        arq = ReliableUnicast(m)
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.tolist() == [2]
        assert len(m.peek(2)) == 1
        assert len(m.peek(1)) == 0  # relays forward, never consume
        # 2 data hops + 2 acks
        assert m.accounting.messages_by_category() == {"measurement": 2, "control": 2}

    def test_no_ack_config_skips_ack_traffic(self):
        m = line_medium()
        arq = ReliableUnicast(m, ReliabilityConfig(ack=False))
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.tolist() == [2]
        assert "control" not in m.accounting.messages_by_category()

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            ReliableUnicast(line_medium()).send_path([0], msg(), 0)


class TestLossyPath:
    def test_retransmits_until_delivered_without_duplicates(self):
        # seeded moderate loss: over many sends, every outcome is either a
        # clean single-copy delivery or an honest dropped/delayed report
        delivered = dropped = 0
        for seed in range(20):
            m = line_medium(IIDLossLink(p_loss=0.4, seed=seed))
            arq = ReliableUnicast(m, ReliabilityConfig(max_retries=3, reroute=False))
            message = msg(k=seed)
            d = arq.send_path([0, 1, 2], message, 0)
            assert d.n_offered <= 1
            if d.receivers.size:
                delivered += 1
                assert len(m.peek(2)) == 1  # dedupe: never two copies
            else:
                dropped += 1
                assert len(m.peek(2)) == 0
        assert delivered > 0  # retries do rescue packets at 40% loss

    def test_retries_cost_more_than_lossless(self):
        lossless = line_medium()
        ReliableUnicast(lossless).send_path([0, 1, 2], msg(), 0)
        lossy = line_medium(IIDLossLink(p_loss=0.5, seed=3))
        ReliableUnicast(lossy, ReliabilityConfig(max_retries=3)).send_path(
            [0, 1, 2], msg(), 0
        )
        assert lossy.accounting.total_messages > lossless.accounting.total_messages

    def test_bounded_attempts_give_up(self):
        m = line_medium(IIDLossLink(p_loss=1.0, seed=0))
        arq = ReliableUnicast(m, ReliabilityConfig(max_retries=2, reroute=False))
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.size == 0 and d.dropped.tolist() == [2]
        # exactly 1 + max_retries data attempts on the first hop, no acks back
        assert m.accounting.total_messages == 3


class TestRouteRepair:
    def grid(self):
        # 0 -- 1 -- 2 in a line, with 3 a detour neighbor of 0 and 2
        pos = np.array([[0.0, 0.0], [20.0, 0.0], [40.0, 0.0], [20.0, 15.0]])
        radio = RadioModel(comm_radius=26.0)
        m = Medium(pos, radio)
        return m, GridIndex(pos, radio.comm_radius), radio

    def test_dead_relay_is_blacklisted_and_routed_around(self):
        m, index, radio = self.grid()
        m.fail_nodes([1])
        arq = ReliableUnicast(m, index=index, radio=radio)
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.tolist() == [2]
        assert 1 in arq.blacklist
        assert len(m.peek(2)) == 1

    def test_no_repair_possible_drops_packet(self):
        m, index, radio = self.grid()
        m.fail_nodes([1, 3])
        arq = ReliableUnicast(m, index=index, radio=radio)
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.size == 0

    def test_crashed_sender_kills_packet(self):
        m, index, radio = self.grid()
        m.fail_nodes([0])
        arq = ReliableUnicast(m, index=index, radio=radio)
        d = arq.send_path([0, 1, 2], msg(), 0)
        assert d.receivers.size == 0
        assert m.accounting.total_messages == 0  # nothing went on the air
        assert m.accounting.total_dropped_messages >= 1


class TestDedupe:
    def test_distinct_messages_reusing_a_freed_id_are_all_filed(self):
        # each message is freed once its inbox is cleared, so CPython hands
        # its id() to the next one; a new message is a new packet, never a
        # retransmitted duplicate
        m = line_medium(IIDLossLink(p_loss=1e-4, seed=0))
        arq = ReliableUnicast(m)
        filed = 0
        for value in range(12):
            message = MeasurementMessage(sender=0, iteration=0, value=float(value))
            d = arq.send_path([0, 1, 2], message, 0)
            assert d.receivers.tolist() == [2]
            filed += len(m.collect(2))
            m.clear_inboxes()
            del message, d
        assert filed == 12

    def test_retransmit_of_one_message_is_filed_once(self):
        m = line_medium()
        arq = ReliableUnicast(m)
        message = msg()
        first = arq.send_path([0, 1, 2], message, 0)
        again = arq.send_path([0, 1, 2], message, 0)
        assert first.receivers.tolist() == again.receivers.tolist() == [2]
        assert m.collect(2) == [message]

    def test_duplicates_are_suppressed_within_one_round(self):
        m = line_medium()
        arq = ReliableUnicast(m)
        message = msg()
        out = arq.send_many([([0, 1, 2], message), ([0, 1, 2], message)], 0)
        assert [d.receivers.tolist() for d in out] == [[2], [2]]
        assert m.collect(2) == [message]
        # the record is scoped to the round: a later round files it again
        arq.send_many([([0, 1, 2], message)], 0)
        assert m.collect(2) == [message]


class TestFateStreams:
    """A round draws one fate stream per distinct link, however many of its
    known routes share it, and the streams change no outcome."""

    # routes that meet at the sink's end of the line: hops 2 -> 3 and 3 -> 4
    # (and their acks) appear in every route
    ROUTES = [[0, 1, 2, 3, 4], [1, 2, 3, 4], [2, 3, 4], [5, 3, 4]]

    def medium(self):
        pos = np.array(
            [[0.0, 0.0], [20.0, 0.0], [40.0, 0.0], [60.0, 0.0], [80.0, 0.0], [60.0, 20.0]]
        )
        model = GilbertElliottLink(p_good_to_bad=0.3, p_bad_to_good=0.3, loss_bad=0.7, seed=4)
        return Medium(pos, RadioModel(comm_radius=25.0), link_model=model)

    def play(self, arq, known):
        seen = []
        for iteration in (0, 3, 11, 12, 40):
            requests = [(path, msg(path[0], iteration)) for path in self.ROUTES]
            out = arq.send_many(requests, iteration, self.ROUTES if known else ())
            seen.append([(d.receivers.tolist(), d.dropped.tolist(), d.n_messages) for d in out])
        return seen

    def test_shared_hops_draw_one_stream_with_identical_outcomes(self):
        drawn = self.medium()
        model = drawn.link_model
        calls = []
        classify_many = model.classify_many

        def spy(sender, receivers, distances, iteration, nonces):
            calls.append(
                list(zip(np.asarray(sender).tolist(), np.asarray(receivers).tolist(),
                         np.asarray(nonces).tolist()))
            )
            return classify_many(sender, receivers, distances, iteration, nonces)

        model.classify_many = spy
        got = self.play(ReliableUnicast(drawn), known=True)

        hops = [(a, b) for path in self.ROUTES for a, b in zip(path, path[1:])]
        links = hops + [(b, a) for a, b in hops]
        assert len(set(links)) < len(links)
        # every route is known: one draw per round, and in it each distinct
        # link's fates are one run of nonces from its counter (0 here),
        # 1 + max_retries of them per route crossing it
        depth = 1 + ReliabilityConfig().max_retries
        assert len(calls) == 5
        for call in calls:
            streams = {}
            for s, r, nonce in call:
                streams.setdefault((s, r), []).append(nonce)
            assert sorted(streams) == sorted(set(links))
            for link, nonces in streams.items():
                assert nonces == list(range(depth * links.count(link)))

        # the same rounds with each route drawn at its packet's turn
        fresh = self.medium()
        assert got == self.play(ReliableUnicast(fresh), known=False)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retries", 1.5),
            ("max_retries", True),
            ("max_retries", "2"),
            ("max_retries", -1),
            ("max_route_repairs", float("nan")),
            ("max_route_repairs", 1.5),
            ("max_route_repairs", False),
            ("max_route_repairs", "2"),
            ("max_route_repairs", -1),
        ],
    )
    def test_counts_must_be_non_negative_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReliabilityConfig(**{field: value})

    def test_integer_counts_accepted(self):
        config = ReliabilityConfig(max_retries=np.int64(0), max_route_repairs=5)
        arq = ReliableUnicast(line_medium(), config)
        assert arq.send_path([0, 1, 2], msg(), 0).receivers.tolist() == [2]

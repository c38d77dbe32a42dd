"""Fine-grained semantics of the reordered CDPF steps (Fig. 2b / Algorithm 1)."""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker
from repro.core.propagation import PropagationConfig
from repro.experiments.runner import generate_step_context
from repro.network.messages import MeasurementMessage, ParticleMessage


def capture_broadcasts(medium):
    """Intercept every broadcast enqueued on the medium's batches.

    Trackers send through ``medium.transmission_batch(...).broadcast(...)``;
    wrapping the batch factory sees the exact wire messages regardless of how
    the round is flushed.
    """
    captured = []
    original = medium.transmission_batch

    def spy_factory(iteration):
        batch = original(iteration)
        original_broadcast = batch.broadcast

        def spy(sender, message, **kw):
            captured.append(message)
            return original_broadcast(sender, message, **kw)

        batch.broadcast = spy
        return batch

    medium.transmission_batch = spy_factory
    return captured


class TestStepOrder:
    def test_correction_precedes_likelihood(self, small_scenario, small_trajectory):
        """The defining reorder: the estimate returned at k must NOT depend
        on iteration k's measurements (they are processed afterwards)."""
        def run(measurement_offset):
            tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
            rng = np.random.default_rng(3)
            ctx0 = generate_step_context(small_scenario, small_trajectory, 0, rng)
            tr.step(ctx0)
            ctx1 = generate_step_context(small_scenario, small_trajectory, 1, rng)
            if measurement_offset:
                # corrupt iteration 1's measurements AFTER the fact
                ctx1 = type(ctx1)(
                    iteration=1,
                    detectors=ctx1.detectors,
                    measurements={k: v + 1.0 for k, v in ctx1.measurements.items()},
                )
            return tr.step(ctx1)

        clean = run(False)
        corrupted = run(True)
        np.testing.assert_allclose(clean, corrupted)

    def test_estimate_depends_on_previous_measurements(
        self, small_scenario, small_trajectory
    ):
        """Conversely, iteration k's measurements DO shape the estimate
        returned at k+1 (they enter through the assign-weight step)."""
        def run(offset):
            tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
            rng = np.random.default_rng(3)
            tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
            ctx1 = generate_step_context(small_scenario, small_trajectory, 1, rng)
            if offset:
                ctx1 = type(ctx1)(
                    iteration=1,
                    detectors=ctx1.detectors,
                    measurements={k: v + 0.5 for k, v in ctx1.measurements.items()},
                )
            tr.step(ctx1)
            ctx2 = generate_step_context(small_scenario, small_trajectory, 2, rng)
            return tr.step(ctx2)

        a, b = run(False), run(True)
        assert not np.allclose(a, b)


class TestMessageContent:
    """Wire content of the CDPF rounds.  A zero-loss link model forces real
    message transport (a lossless medium hands rounds over directly), and
    the direct handoff must charge the ledger the same per-message sizes."""

    @staticmethod
    def _messages_and_direct_ledger(scenario, trajectory, sensing_seed, category):
        from repro.network.links import IIDLossLink

        runs = []
        for world in (scenario.with_(link_model=IIDLossLink(p_loss=0.0, seed=1)), scenario):
            tr = CDPFTracker(world, rng=np.random.default_rng(1))
            rng = np.random.default_rng(sensing_seed)
            tr.step(generate_step_context(world, trajectory, 0, rng))
            captured = capture_broadcasts(tr.medium)
            tr.step(generate_step_context(world, trajectory, 1, rng))
            runs.append((captured, tr.medium.accounting))
        (captured, _), (direct, ledger) = runs
        assert not direct  # the lossless medium sent no message objects
        row = ledger.by_key[(1, category)]
        return captured, row[0] / row[1]

    def test_propagation_carries_state_and_weight_only(
        self, small_scenario, small_trajectory
    ):
        """The wire content of a CDPF particle broadcast is Dp + Dw — nothing
        else travels (the whole point of Table I's CDPF row)."""
        captured, direct_size = self._messages_and_direct_ledger(
            small_scenario, small_trajectory, 5, "propagation"
        )
        particle_msgs = [m for m in captured if isinstance(m, ParticleMessage)]
        assert particle_msgs
        for m in particle_msgs:
            assert m.n_particles == 1  # combined: one particle per node
            assert not m.carry_prediction
            assert m.size_bytes(small_scenario.sizes) == 20
        assert direct_size == 20

    def test_measurement_messages_are_dm_sized(self, small_scenario, small_trajectory):
        captured, direct_size = self._messages_and_direct_ledger(
            small_scenario, small_trajectory, 7, "measurement"
        )
        meas = [m for m in captured if isinstance(m, MeasurementMessage)]
        assert meas
        assert all(m.size_bytes(small_scenario.sizes) == 4 for m in meas)
        assert direct_size == 4


class TestWeightSemantics:
    def test_ne_weights_use_contributions(self, small_scenario, small_trajectory):
        """After the NE assign step, holder weights are share * c0 with c0
        from Definition 2 — spot-check one holder against a direct
        computation."""
        from repro.core.contributions import estimated_contributions

        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        rng = np.random.default_rng(9)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        assert tr._estimate is not None
        pred_now = tr._estimate + tr._velocity_estimate * small_scenario.dynamics.dt
        positions = small_scenario.deployment.positions
        r_s = small_scenario.sensing_radius
        # recompute c0 for one in-area holder and verify the weight product
        for nid, weight in zip(tr.holders.ids.tolist(), tr.holders.weights.tolist()):
            d_own = float(np.linalg.norm(positions[nid] - pred_now))
            if d_own > r_s or weight == 0.0:
                continue
            neigh = np.append(tr.neighbors.neighbors(nid), nid)
            d_all = np.linalg.norm(positions[neigh] - pred_now, axis=1)
            in_area = d_all <= r_s
            contributions = estimated_contributions(d_all[in_area])
            own_idx = int(np.nonzero(neigh[in_area] == nid)[0][0])
            c0 = float(contributions[own_idx])
            assert 0.0 < c0 <= 1.0
            break
        else:
            pytest.skip("no in-area holder to check on this seed")

    def test_out_of_area_holder_zeroed_in_ne(self, small_scenario, small_trajectory):
        tr = CDPFTracker(
            small_scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        rng = np.random.default_rng(11)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        # plant an artificial far-away holder, then run NE assignment again
        positions = small_scenario.deployment.positions
        pred_now = tr._estimate + tr._velocity_estimate * small_scenario.dynamics.dt
        far = int(np.argmax(np.linalg.norm(positions - pred_now, axis=1)))
        assert far not in tr.holders
        tr.holders = tr.holders.append([far], [0.5], np.zeros((1, 2)))
        tr._assign_weights_ne(2)
        assert tr.holders.weights[-1] == 0.0


class TestNEAreaBoundary:
    def test_holder_missing_from_its_own_area_gets_zero_weight(self):
        """The own-distance test (FMA norm) and the area test (plain
        sqrt-of-squares) disagree in the last bit for this node: 10.0 vs
        10.000000000000002 at R_s = 10.  The holder then sits outside its own
        estimation area and contributes nothing, like any out-of-area
        holder (it used to crash the weight lookup)."""
        from repro.core.propagation import HolderSet
        from repro.kernels.geometry import norm2d_many
        from repro.network.deployment import Deployment
        from repro.network.spatial import GridIndex
        from repro.scenario import make_paper_scenario

        scenario = make_paper_scenario(
            10.0, rng=np.random.default_rng(0), width=100.0, height=100.0
        )
        positions = scenario.deployment.positions.copy()
        node = 0
        positions[node] = (55.351981074861236, 41.552734254545605)
        scenario = scenario.with_(
            deployment=Deployment(
                positions=positions,
                width=100.0,
                height=100.0,
                index=GridIndex(positions, scenario.deployment.index.cell_size),
            )
        )
        predicted = np.array([50.0, 50.0])
        diff = positions[node] - predicted
        assert norm2d_many(diff[:1], diff[1:])[0] == 10.0
        assert np.sqrt(diff[0] * diff[0] + diff[1] * diff[1]) > 10.0

        tr = CDPFTracker(
            scenario, rng=np.random.default_rng(1), neighborhood_estimation=True
        )
        assert scenario.sensing_radius == 10.0
        tr._estimate = predicted
        tr._velocity_estimate = np.zeros(2)
        tr.holders = HolderSet([node], [1.0], np.zeros((1, 2)))
        tr._assign_weights_ne(1)
        assert tr.holders.weights[0] == 0.0


class TestConsistencyCheckTransparency:
    @pytest.mark.parametrize("ne", [False, True], ids=["CDPF", "CDPF-NE"])
    def test_check_consistency_leaves_the_run_unchanged(
        self, small_scenario, small_trajectory, ne
    ):
        """check_consistency reads real inboxes, so it forces message
        transport; the run must be bit-identical to the direct handoff."""
        from repro.config.compile import run_fingerprint
        from repro.experiments.runner import run_tracking

        fingerprints = []
        for check in (False, True):
            tr = CDPFTracker(
                small_scenario,
                rng=np.random.default_rng(1),
                neighborhood_estimation=ne,
                check_consistency=check,
            )
            assert tr._direct_handoff() is not check
            result = run_tracking(
                tr, small_scenario, small_trajectory, rng=np.random.default_rng(2)
            )
            fingerprints.append(run_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]


class TestShareMeasurements:
    """The measurement round CDPF and SDPF share: the direct handoff must
    hear and charge exactly what message transport delivers."""

    @staticmethod
    def _round(sharers, receivers, *, direct):
        from repro.core.cdpf import share_measurements
        from repro.network.medium import Medium
        from repro.network.messages import DataSizes
        from repro.network.radio import RadioModel

        # node 5 sits exactly one comm radius from node 0 (d2 == r*r hears);
        # node 3 is out of range of every other node
        positions = np.array(
            [[0.0, 0.0], [5.0, 0.0], [8.0, 0.0], [50.0, 50.0], [3.0, 4.0], [10.0, 0.0]]
        )
        medium = Medium(
            positions, RadioModel(comm_radius=10.0), DataSizes(measurement=10, header=2)
        )
        assert medium.delivers_all
        measurements = {i: 0.25 * i - 0.5 for i in range(positions.shape[0])}
        with medium.phase("likelihood"):
            heard = share_measurements(
                medium, sharers, receivers, measurements, 3, direct=direct
            )
        assert medium.pending_nodes() == []  # the round drains every inbox
        return heard, medium.accounting.by_phase_key

    @pytest.mark.parametrize(
        "sharers, receivers",
        [([0, 1, 2], [0, 1, 3, 4, 5]), ([], [0, 1, 3]), ([0, 2], []), ([], [])],
        ids=["mixed", "no-sharers", "no-receivers", "empty"],
    )
    def test_direct_handoff_equals_message_path(self, sharers, receivers):
        heard, ledger = self._round(sharers, receivers, direct=True)
        sent, sent_ledger = self._round(sharers, receivers, direct=False)
        assert ledger == sent_ledger
        for a, b, dtype in zip(heard, sent, (np.intp, np.intp, np.float64)):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)
        rows, senders, values = heard
        assert rows.shape == senders.shape == values.shape
        assert np.all(np.diff(rows) >= 0)  # grouped by receiver
        assert np.all((rows >= 0) & (rows < len(receivers)))
        if sharers:
            row = [12 * len(sharers), len(sharers)]  # (header + D_m) per sharer
            assert ledger == {(3, "measurement", "likelihood"): row}
        else:
            assert ledger == {}

    def test_heard_lists(self):
        (rows, senders, values), _ = self._round([0, 1, 2], [0, 1, 3, 4, 5], direct=True)
        v = {s: 0.25 * s - 0.5 for s in (0, 1, 2)}
        heard = [
            list(zip(senders[rows == i].tolist(), values[rows == i].tolist()))
            for i in range(5)
        ]
        assert heard == [
            [(1, v[1]), (2, v[2])],  # a sharer never hears itself
            [(0, v[0]), (2, v[2])],
            [],  # out of range of every sharer
            [(0, v[0]), (1, v[1]), (2, v[2])],
            [(0, v[0]), (1, v[1]), (2, v[2])],  # on the boundary of node 0
        ]

    @pytest.mark.parametrize("direct", [True, False], ids=["direct", "messages"])
    def test_nonfinite_reading_raises_before_any_charge(self, direct):
        from repro.core.cdpf import share_measurements
        from repro.network.medium import Medium
        from repro.network.radio import RadioModel

        medium = Medium(np.array([[0.0, 0.0], [5.0, 0.0]]), RadioModel(comm_radius=10.0))
        with pytest.raises(ValueError, match="finite, got nan"):
            share_measurements(
                medium, [0, 1], [0, 1], {0: 0.5, 1: float("nan")}, 0, direct=direct
            )
        assert medium.accounting.total_messages == 0


class TestBroadcastParticles:
    """The propagation round CDPF and SDPF share: the direct handoff must
    charge exactly what one message per sender costs on the wire."""

    # sender 0 has one row, sender 1 has eight, sender 3 is out of range of
    # every other node
    SENDERS = [0, 1, 3]
    COUNTS = [1, 8, 1]

    @classmethod
    def _round(cls, *, direct):
        from repro.core.cdpf import broadcast_particles
        from repro.network.medium import Medium
        from repro.network.messages import DataSizes
        from repro.network.radio import RadioModel

        positions = np.array([[0.0, 0.0], [5.0, 0.0], [8.0, 0.0], [50.0, 50.0]])
        medium = Medium(positions, RadioModel(comm_radius=10.0), DataSizes(header=8))
        assert medium.delivers_all
        rows = sum(cls.COUNTS)
        states = np.column_stack(
            [np.repeat(positions[cls.SENDERS], cls.COUNTS, axis=0), np.ones((rows, 2))]
        )
        weights = np.linspace(0.1, 1.0, rows)
        with medium.phase("propagation"):
            lost = broadcast_particles(
                medium, cls.SENDERS, cls.COUNTS, states, weights, 4, direct=direct
            )
        return lost, medium, states, weights

    def test_direct_handoff_charges_what_messages_cost(self):
        lost, direct, _, _ = self._round(direct=True)
        assert lost is None
        _, sent, _, _ = self._round(direct=False)
        for medium in (direct, sent):
            acc = medium.accounting
            # one header per sender, (D_p + D_w) per row
            row = [8 * 3 + (16 + 4) * 10, 3]
            assert acc.by_phase_key == {(4, "propagation", "propagation"): row}
            assert [acc.total_bytes, acc.total_messages] == row

    def test_message_path_delivers_each_senders_rows(self):
        lost, medium, states, weights = self._round(direct=False)
        assert [ids.tolist() for ids in lost] == [[], [], []]  # a reliable medium
        inbox = {r: medium.collect(r) for r in range(4)}
        assert [(m.sender, m.n_particles) for m in inbox[2]] == [(0, 1), (1, 8)]
        assert inbox[3] == []
        (from_1,) = [m for m in inbox[0] if m.sender == 1]
        assert np.array_equal(from_1.states, states[1:9])
        assert np.array_equal(from_1.weights, weights[1:9])

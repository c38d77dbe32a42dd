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
        for nid, particle in tr.holders.items():
            d_own = float(np.linalg.norm(positions[nid] - pred_now))
            if d_own > r_s or particle.weight == 0.0:
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
        from repro.core.propagation import HeldParticle

        tr.holders[far] = HeldParticle(velocity=np.zeros(2), weight=0.5)
        tr._assign_weights_ne(2)
        assert tr.holders[far].weight == 0.0


class TestNEAreaBoundary:
    def test_holder_missing_from_its_own_area_gets_zero_weight(self):
        """The own-distance test (FMA norm) and the area test (plain
        sqrt-of-squares) disagree in the last bit for this node: 10.0 vs
        10.000000000000002 at R_s = 10.  The holder then sits outside its own
        estimation area and contributes nothing, like any out-of-area
        holder (it used to crash the weight lookup)."""
        from repro.core.propagation import HeldParticle
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
        tr.holders = {node: HeldParticle(velocity=np.zeros(2), weight=1.0)}
        tr._assign_weights_ne(1)
        assert tr.holders[node].weight == 0.0


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

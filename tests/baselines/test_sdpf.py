"""SDPF baseline: Table I accounting, transceiver handshake, particle caps."""

import numpy as np
import pytest

from repro.baselines.sdpf import SDPFTracker
from repro.experiments.runner import generate_step_context, run_tracking
from repro.runtime import IterationState
from repro.scenario import StepContext


def drive(scenario, trajectory, **kwargs):
    tr = SDPFTracker(scenario, rng=np.random.default_rng(1), **kwargs)
    res = run_tracking(tr, scenario, trajectory, rng=np.random.default_rng(7))
    return tr, res


class TestTracking:
    def test_tracks_straight_crossing(self, small_scenario, small_trajectory):
        _, res = drive(small_scenario, small_trajectory)
        assert res.rmse < 6.0
        assert res.error.coverage >= 0.8

    def test_estimate_same_iteration(self, small_scenario, small_trajectory):
        """Unlike CDPF, SDPF's transceiver estimate has no latency."""
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        est = tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        assert est is not None
        assert tr.estimate_iteration() == 0

    def test_particles_per_node_cap(self, small_scenario, small_trajectory):
        tr, _ = drive(small_scenario, small_trajectory, particles_per_node=8)
        # after any full iteration, no node holds more than the cap
        assert all(p.n <= 8 for p in tr.holders.values())

    def test_particles_per_node_one_works(self, small_scenario, small_trajectory):
        tr, res = drive(small_scenario, small_trajectory, particles_per_node=1)
        assert np.isfinite(res.rmse)

    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            SDPFTracker(small_scenario, rng=np.random.default_rng(1), particles_per_node=0)

    def test_no_detection_returns_none(self, small_scenario):
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        ctx = StepContext(iteration=0, detectors=np.array([], dtype=int), measurements={})
        assert tr.step(ctx) is None


class TestAccounting:
    def test_weight_aggregation_traffic_present(self, small_scenario, small_trajectory):
        """SDPF is only SEMI-distributed: aggregation traffic exists."""
        _, res = drive(small_scenario, small_trajectory)
        assert res.bytes_by_category.get("weight_aggregation", 0) > 0

    def test_transceiver_two_broadcasts_per_iteration(self, small_scenario, small_trajectory):
        """The paper's '+2': query + total broadcast each iteration."""
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(5)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        msgs = tr.accounting.messages_by_category()
        n_holders = len(tr.holders) if tr.holders else 0
        # 2 broadcasts + one weight report per holder node
        assert msgs["weight_aggregation"] >= 2

    def test_propagation_bytes_match_table1_term(self, small_scenario, small_trajectory):
        """Propagation bytes == N_s (Dp + Dw), with N_s the broadcast
        particle count."""
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(6)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        ns = tr.n_particles_total  # particles that will broadcast next round
        before = tr.accounting.bytes_by_category().get("propagation", 0)
        assert before == 0  # initialization iteration: no propagation yet
        tr.step(generate_step_context(small_scenario, small_trajectory, 1, rng))
        sizes = small_scenario.sizes
        after = tr.accounting.bytes_by_category()["propagation"]
        assert after == ns * (sizes.particle + sizes.weight)

    def test_weight_report_bytes_match_table1_term(self, small_scenario, small_trajectory):
        """Weight reports cost N_s * Dw bytes per iteration (plus the two
        transceiver broadcasts)."""
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(8)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        sizes = small_scenario.sizes
        ns = tr.n_particles_total
        agg = tr.accounting.bytes_by_category()["weight_aggregation"]
        assert agg == ns * sizes.weight + 2 * sizes.weight

    def test_weight_reports_charge_one_header_per_holder(
        self, small_scenario, small_trajectory
    ):
        """The N_s reports cost one message and one header per holder, as a
        report message per holder would, and a negative weight is refused
        before anything is charged."""
        from repro.network.messages import DataSizes

        sizes = DataSizes(header=3)
        scenario = small_scenario.with_(sizes=sizes)
        tr = SDPFTracker(scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(8)
        tr.step(generate_step_context(scenario, small_trajectory, 0, rng))
        n_holders, ns = len(tr.holders), tr.n_particles_total
        assert n_holders > 1
        # two transceiver broadcasts of one weight each, plus the reports
        assert tr.accounting.by_phase_key[(0, "weight_aggregation", "aggregation")] == [
            sizes.header * (n_holders + 2) + sizes.weight * (ns + 2),
            n_holders + 2,
        ]
        victim = sorted(tr.holders)[-1]
        tr.holders[victim].weights = -tr.holders[victim].weights
        state = IterationState(generate_step_context(scenario, small_trajectory, 1, rng))
        before = tr.accounting.total_bytes
        with pytest.raises(ValueError, match="non-negative"):
            tr._phase_aggregation(state)
        query = sizes.header + sizes.weight  # the query went out first
        assert tr.accounting.total_bytes == before + query

    def test_costs_exceed_cdpf(self, small_scenario, small_trajectory):
        """The headline: SDPF's aggregation + 8x particles cost far more
        than CDPF on the same world."""
        from repro.core.cdpf import CDPFTracker

        _, sdpf_res = drive(small_scenario, small_trajectory)
        cdpf = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        cdpf_res = run_tracking(
            cdpf, small_scenario, small_trajectory, rng=np.random.default_rng(7)
        )
        assert sdpf_res.total_bytes > 3 * cdpf_res.total_bytes


class TestThinning:
    def test_thinning_preserves_node_total_weight(self, small_scenario, small_trajectory):
        """Local top-k thinning rescales the kept shares so the node's total
        mass is conserved through the cut."""
        tr = SDPFTracker(
            small_scenario, rng=np.random.default_rng(1), particles_per_node=2
        )
        rng = np.random.default_rng(21)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        # capture the broadcast mass, then run the propagation phase alone
        broadcast_mass = sum(p.total for p in tr.holders.values())
        tr._phase_propagation(
            IterationState(generate_step_context(small_scenario, small_trajectory, 1, rng))
        )
        recorded_mass = sum(p.total for p in tr.holders.values())
        # division + combination + weight-preserving thinning conserve mass
        # up to shares lost where a particle found no recorder
        assert recorded_mass <= broadcast_mass + 1e-9
        assert recorded_mass > 0.5 * broadcast_mass

    def test_velocity_diversity_maintained(self, small_scenario, small_trajectory):
        """SDPF's per-node particle lists carry distinct velocities (its
        diversity advantage over CDPF's one-particle-per-node)."""
        tr = SDPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(23)
        for k in range(3):
            tr.step(generate_step_context(small_scenario, small_trajectory, k, rng))
        multi = [p for p in tr.holders.values() if p.n > 1]
        assert multi, "no multi-particle holders formed"
        assert any(np.unique(p.velocities, axis=0).shape[0] > 1 for p in multi)

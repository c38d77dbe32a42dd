"""CPF baseline: convergecast accounting, fusion, tracking."""

import numpy as np
import pytest

from repro.baselines.cpf import CPFTracker, fuse_origin_bearings
from repro.experiments.runner import generate_step_context, run_tracking
from repro.scenario import StepContext


def drive(scenario, trajectory, **kwargs):
    tr = CPFTracker(scenario, rng=np.random.default_rng(1), **kwargs)
    res = run_tracking(tr, scenario, trajectory, rng=np.random.default_rng(7))
    return tr, res


class TestFusion:
    def test_mean_of_identical_bearings(self):
        z, sig = fuse_origin_bearings(np.array([0.5, 0.5, 0.5]), 0.06, 0.0)
        assert z == pytest.approx(0.5)
        assert sig == pytest.approx(0.06 / np.sqrt(3))

    def test_circular_mean_handles_wraparound(self):
        z, _ = fuse_origin_bearings(np.array([np.pi - 0.01, -np.pi + 0.01]), 0.05, 0.0)
        assert abs(abs(z) - np.pi) < 0.02  # near +-pi, NOT near 0

    def test_bias_floor(self):
        _, sig = fuse_origin_bearings(np.full(10_000, 0.1), 0.05, 0.025)
        assert sig == pytest.approx(0.025, rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_origin_bearings(np.array([]), 0.05, 0.0)


class TestTracking:
    def test_tracks_straight_crossing(self, small_scenario, small_trajectory):
        _, res = drive(small_scenario, small_trajectory)
        assert res.error.coverage == 1.0
        assert res.rmse < 2.0

    def test_estimate_refers_to_current_iteration(self, small_scenario, small_trajectory):
        tr = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        assert tr.estimate_iteration() == 0

    def test_no_detection_before_birth_returns_none(self, small_scenario):
        tr = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        ctx = StepContext(iteration=0, detectors=np.array([], dtype=int), measurements={})
        assert tr.step(ctx) is None

    def test_predict_only_through_detection_gap(self, small_scenario, small_trajectory):
        tr = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        rng = np.random.default_rng(5)
        tr.step(generate_step_context(small_scenario, small_trajectory, 0, rng))
        empty = StepContext(iteration=1, detectors=np.array([], dtype=int), measurements={})
        est = tr.step(empty)
        assert est is not None  # coasting on the motion model

    def test_invalid_inflation(self, small_scenario):
        with pytest.raises(ValueError):
            CPFTracker(small_scenario, rng=np.random.default_rng(1), process_noise_inflation=0)


class TestAccounting:
    def test_bytes_equal_dm_times_hops(self, small_scenario, small_trajectory):
        """Table I's CPF row: total bytes == sum over messages of Dm * H_i."""
        tr, res = drive(small_scenario, small_trajectory)
        dm = small_scenario.sizes.measurement
        assert res.total_bytes == dm * sum(tr.hop_counts)
        assert res.total_messages == sum(tr.hop_counts)

    def test_only_measurement_category(self, small_scenario, small_trajectory):
        _, res = drive(small_scenario, small_trajectory)
        assert set(res.bytes_by_category) == {"measurement"}

    def test_sink_own_measurement_free(self, small_scenario, small_trajectory):
        """The sink's own detection costs no radio message."""
        tr = CPFTracker(small_scenario, rng=np.random.default_rng(1))
        sink = tr.sink
        z = 0.3
        ctx = StepContext(iteration=0, detectors=np.array([sink]), measurements={sink: z})
        tr.step(ctx)
        assert tr.accounting.total_messages == 0

    def test_cost_scales_with_detector_count(self, small_scenario, small_trajectory):
        tr, res = drive(small_scenario, small_trajectory)
        # every non-sink detector contributes at least one hop
        n_routed = len(tr.hop_counts)
        assert res.total_messages >= n_routed


def _paper_world(density, seed, *, link=None, drift=False, n_iterations=10):
    """A paper-geometry world, optionally lossy or with random node drift
    from iteration 2 on (the physical positions leave the believed ones)."""
    from repro.experiments.options import RunOptions
    from repro.network.faults import FaultPlan, MobilityDrift
    from repro.scenario import make_paper_scenario, make_trajectory

    rng = np.random.default_rng(seed)
    scenario = make_paper_scenario(density, rng=rng)
    if link is not None:
        scenario = scenario.with_(link_model=link)
    trajectory = make_trajectory(n_iterations, rng=rng)
    options = None
    if drift:
        plan = FaultPlan(
            events=(MobilityDrift(start=2, end=n_iterations, model="random", seed=seed),)
        )
        options = RunOptions(fault_plan=plan)
    return scenario, trajectory, options


class TestConvergecastPaths:
    """A lossless round hands over directly when the medium delivers every
    copy; the per-path message walk must reach the same result."""

    @staticmethod
    def _run(scenario, trajectory, options, monkeypatch, *, direct):
        from repro.network.medium import Medium, UnicastRound

        walked = []
        with monkeypatch.context() as m:
            if not direct:
                m.setattr(Medium, "delivers_all", property(lambda self: False))
            walk = UnicastRound.walk
            m.setattr(
                UnicastRound,
                "walk",
                lambda self, *a, **k: walked.append(1) or walk(self, *a, **k),
            )
            tr = CPFTracker(scenario, rng=np.random.default_rng(1))
            res = run_tracking(
                tr, scenario, trajectory, rng=np.random.default_rng(2), options=options
            )
        assert bool(walked) is not direct
        return tr, res

    @pytest.mark.parametrize("drift", [False, True], ids=["static", "mobile"])
    def test_direct_handoff_equals_message_path(self, drift, monkeypatch):
        world = _paper_world(5.0, 4, drift=drift)
        (t_direct, r_direct), (t_msg, r_msg) = (
            self._run(*world, monkeypatch, direct=direct) for direct in (True, False)
        )
        assert r_direct.estimates.keys() == r_msg.estimates.keys()
        for k in r_direct.estimates:
            np.testing.assert_array_equal(r_direct.estimates[k], r_msg.estimates[k])
        assert t_direct.accounting.by_phase_key == t_msg.accounting.by_phase_key
        assert t_direct.hop_counts == t_msg.hop_counts
        assert t_direct.snapshot()["path_cache"] == t_msg.snapshot()["path_cache"]

    @pytest.mark.parametrize("direct", [True, False], ids=["direct", "message"])
    def test_mobility_loses_out_of_range_routes(self, direct, monkeypatch):
        """Routes come from the believed deployment; once nodes drift, a
        route with a hop out of physical range is a lost packet (not sent,
        charged or fused) instead of a crash."""
        tr, res = self._run(*_paper_world(5.0, 0, drift=True), monkeypatch, direct=direct)
        dm = tr.scenario.sizes.measurement
        assert res.total_bytes == dm * sum(tr.hop_counts)
        assert res.total_messages == sum(tr.hop_counts)
        assert set(res.bytes_by_category) == {"measurement"}


class TestLossyRouting:
    """Under ARQ a round's new routes are built up front, yet route repair
    grows the blacklist mid-round: every route must still be the one the
    per-packet resolution builds when that packet is sent."""

    # recorded from the per-packet router (density 10, 10 iterations)
    PINNED = {
        "gilbert-elliott": "a9d9164a3896f1b185278520d92b618ba490c473a51afde3b4c95defdcebce0f",
        "iid": "002d5c924e0cbe6130fb89e66b841e7efe59ab05b138f4f9fb9074949491083e",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_fingerprint_pinned_while_blacklist_grows(self, kind, monkeypatch):
        from repro.config import run_fingerprint
        from repro.network.links import GilbertElliottLink, IIDLossLink
        from repro.network.reliability import ReliableUnicast

        link = (
            GilbertElliottLink(0.3, 0.4, loss_bad=0.8, seed=12)
            if kind == "gilbert-elliott"
            else IIDLossLink(p_loss=0.3, seed=12)
        )
        scenario, trajectory, _ = _paper_world(10.0, 3, link=link)
        tr = CPFTracker(scenario, rng=np.random.default_rng(1))
        # count the uncached routes resolved after the round's blacklist grew
        late = []
        send_many = ReliableUnicast.send_many

        def spy(self, requests, iteration, known=()):
            start = len(self.blacklist)

            def watch(resolve, msg):
                def call():
                    if msg.sender not in tr._path_cache:
                        late.append(len(self.blacklist) > start)
                    return resolve()

                return call

            return send_many(self, [(watch(p, m), m) for p, m in requests], iteration, known)

        monkeypatch.setattr(ReliableUnicast, "send_many", spy)
        res = run_tracking(tr, scenario, trajectory, rng=np.random.default_rng(2))
        assert sum(late) > 20
        assert run_fingerprint(res) == self.PINNED[kind]

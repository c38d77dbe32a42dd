"""Particle maintenance/propagation mechanics (paper §III)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.propagation import (
    HeldParticle,
    PropagationConfig,
    combine_shares,
    combine_shares_grouped,
    division_shares,
    implied_velocity,
    select_recorders,
)


class TestHeldParticle:
    def test_state_concatenates_position(self):
        p = HeldParticle(velocity=np.array([1.0, 2.0]), weight=0.5)
        np.testing.assert_allclose(p.state(np.array([10.0, 20.0])), [10, 20, 1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            HeldParticle(velocity=np.array([np.nan, 0.0]), weight=1.0)
        with pytest.raises(ValueError):
            HeldParticle(velocity=np.zeros(2), weight=-1.0)
        with pytest.raises(ValueError):
            HeldParticle(velocity=np.zeros(2), weight=np.inf)


class TestPropagationConfig:
    def test_defaults_sane(self):
        cfg = PropagationConfig()
        assert cfg.predicted_area_radius == 10.0
        assert cfg.velocity_mode == "track"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"predicted_area_radius": 0.0},
            {"record_threshold": 1.0},
            {"record_threshold": -0.1},
            {"max_recorders": 0},
            {"velocity_mode": "warp"},
            {"velocity_alpha": 1.5},
            {"drop_threshold": -0.1},
            {"creation_slack": 0.5},
            {"creation_limit": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PropagationConfig(**kwargs)

    def test_recording_radius(self):
        cfg = PropagationConfig(predicted_area_radius=10.0, record_threshold=0.5)
        assert cfg.recording_radius() == pytest.approx(5.0)

    def test_expected_recorders_scales_with_degree(self):
        cfg = PropagationConfig()
        assert cfg.expected_recorders(360, 30.0) > cfg.expected_recorders(36, 30.0)
        assert cfg.expected_recorders(0, 30.0) >= 1.0


class TestSelectRecorders:
    def make_candidates(self):
        # nodes on a line through the prediction at (0, 0)
        ids = np.array([5, 2, 9, 7])
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0], [12.0, 0.0]])
        return ids, pos

    def test_thresholding(self):
        ids, pos = self.make_candidates()
        cfg = PropagationConfig(predicted_area_radius=10.0, record_threshold=0.5)
        rec, p = select_recorders(ids, pos, np.zeros(2), cfg)
        # p = 1, 0.7, 0.4, 0 -> only the first two pass p > 0.5
        assert sorted(rec.tolist()) == [2, 5]

    def test_zero_threshold_keeps_all_in_area(self):
        ids, pos = self.make_candidates()
        cfg = PropagationConfig(predicted_area_radius=10.0, record_threshold=0.0)
        rec, _ = select_recorders(ids, pos, np.zeros(2), cfg)
        assert sorted(rec.tolist()) == [2, 5, 9]  # node 7 is outside the area

    def test_output_sorted_by_id_with_aligned_probs(self):
        ids, pos = self.make_candidates()
        cfg = PropagationConfig(predicted_area_radius=10.0, record_threshold=0.0)
        rec, p = select_recorders(ids, pos, np.zeros(2), cfg)
        assert list(rec) == sorted(rec.tolist())
        # id 5 sits exactly at the prediction -> probability 1
        assert p[list(rec).index(5)] == pytest.approx(1.0)

    def test_max_recorders_takes_top_k(self):
        ids, pos = self.make_candidates()
        cfg = PropagationConfig(
            predicted_area_radius=10.0, record_threshold=0.0, max_recorders=2
        )
        rec, _ = select_recorders(ids, pos, np.zeros(2), cfg)
        assert sorted(rec.tolist()) == [2, 5]

    def test_empty_candidates(self):
        cfg = PropagationConfig()
        rec, p = select_recorders(
            np.array([], dtype=int), np.zeros((0, 2)), np.zeros(2), cfg
        )
        assert rec.size == 0 and p.size == 0

    def test_deterministic_and_order_invariant(self):
        """The consistency property: any permutation of the candidate list
        (different nodes enumerate their neighborhoods differently) yields
        the same recorder set and probabilities."""
        rng = np.random.default_rng(0)
        ids = np.arange(20)
        pos = rng.uniform(-12, 12, (20, 2))
        cfg = PropagationConfig(predicted_area_radius=10.0, record_threshold=0.3)
        rec_a, p_a = select_recorders(ids, pos, np.zeros(2), cfg)
        perm = rng.permutation(20)
        rec_b, p_b = select_recorders(ids[perm], pos[perm], np.zeros(2), cfg)
        np.testing.assert_array_equal(rec_a, rec_b)
        np.testing.assert_allclose(p_a, p_b)

    def test_length_mismatch_rejected(self):
        cfg = PropagationConfig()
        with pytest.raises(ValueError):
            select_recorders(np.array([1]), np.zeros((2, 2)), np.zeros(2), cfg)


class TestDivisionShares:
    def test_conserves_weight(self):
        shares = division_shares(np.array([0.9, 0.5, 0.1]), 2.0)
        assert shares.sum() == pytest.approx(2.0)

    def test_ratio_rule(self):
        """§III-B rule 2: share ratios equal probability ratios."""
        p = np.array([0.8, 0.2])
        s = division_shares(p, 1.0)
        assert s[0] / s[1] == pytest.approx(4.0)

    def test_single_recorder_takes_all(self):
        np.testing.assert_allclose(division_shares(np.array([0.3]), 5.0), [5.0])

    def test_zero_weight_divides_to_zeros(self):
        np.testing.assert_allclose(division_shares(np.array([0.5, 0.5]), 0.0), [0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            division_shares(np.array([]), 1.0)
        with pytest.raises(ValueError):
            division_shares(np.array([0.0, 0.5]), 1.0)
        with pytest.raises(ValueError):
            division_shares(np.array([0.5]), -1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=20),
        st.floats(0.0, 100.0),
    )
    def test_property_conservation_and_ratios(self, probs, weight):
        p = np.array(probs)
        s = division_shares(p, weight)
        assert s.sum() == pytest.approx(weight, rel=1e-9, abs=1e-12)
        # all share/prob quotients equal (ratio rule); skip the relative
        # check for weights in the subnormal range where rounding dominates
        if weight > 1e-9:
            q = s / p
            np.testing.assert_allclose(q, q[0], rtol=1e-9)


class TestCombineShares:
    def test_weight_sums(self):
        p = combine_shares([(1.0, np.zeros(2)), (2.0, np.zeros(2))])
        assert p.weight == pytest.approx(3.0)

    def test_velocity_weight_averaged(self):
        p = combine_shares([(1.0, np.array([0.0, 0.0])), (3.0, np.array([4.0, 0.0]))])
        np.testing.assert_allclose(p.velocity, [3.0, 0.0])

    def test_all_zero_weights_use_plain_mean(self):
        p = combine_shares([(0.0, np.array([2.0, 0.0])), (0.0, np.array([4.0, 0.0]))])
        np.testing.assert_allclose(p.velocity, [3.0, 0.0])
        assert p.weight == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_shares([])

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            combine_shares([(-1.0, np.zeros(2))])


class TestCombineSharesGrouped:
    """The correction's one-pass combine equals per-recorder combine_shares
    bit for bit."""

    @staticmethod
    def assert_matches_per_recorder(rids, weights, velocities):
        grouped = combine_shares_grouped(rids, weights, velocities)
        assert list(grouped) == sorted(set(rids.tolist()))
        for r, got in grouped.items():
            mine = np.flatnonzero(rids == r)
            ref = combine_shares([(float(weights[i]), velocities[i]) for i in mine])
            assert got.weight == ref.weight, r
            assert np.array_equal(got.velocity, ref.velocity), r

    @pytest.mark.parametrize("mode", ["track", "inherit", "displacement", "blend"])
    def test_round_of_broadcasts_matches(self, mode):
        """Shares from many broadcasts, recorders repeated across them, each
        share's velocity from its own sender under ``mode``."""
        from repro.kernels.propagation import batch_implied_velocities

        rng = np.random.default_rng(42)
        rids, weights, vels = [], [], []
        for _ in range(40):  # broadcasts
            rec = np.sort(rng.choice(60, size=int(rng.integers(1, 12)), replace=False))
            sender_pos, sender_vel = rng.uniform(0, 100, 2), rng.normal(0, 3, 2)
            rids.append(rec)
            weights.append(rng.random(rec.size) * rng.choice([1e-3, 1.0, 1e3]))
            vels.append(
                batch_implied_velocities(
                    sender_pos, rng.uniform(0, 100, (rec.size, 2)), sender_vel,
                    5.0, mode, 0.5, track_velocity=np.array([2.5, -1.25]),
                )
            )
        rids = np.concatenate(rids)
        assert np.bincount(rids).max() > 5  # recorders repeat across broadcasts
        self.assert_matches_per_recorder(rids, np.concatenate(weights), np.concatenate(vels))

    def test_zero_weight_groups_use_plain_mean(self):
        rids = np.array([7, 3, 7, 3, 9, 7])
        weights = np.array([0.0, 0.5, 0.0, 0.25, 0.0, 0.0])
        velocities = np.arange(12, dtype=np.float64).reshape(6, 2) / 3.0
        self.assert_matches_per_recorder(rids, weights, velocities)
        grouped = combine_shares_grouped(rids, weights, velocities)
        assert grouped[7].weight == 0.0 and grouped[9].weight == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.floats(0.0, 10.0, allow_nan=False),
                st.floats(-50.0, 50.0, allow_nan=False),
                st.floats(-50.0, 50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_property_matches_per_recorder(self, shares):
        rids = np.array([s[0] for s in shares])
        weights = np.array([s[1] for s in shares])
        velocities = np.array([[s[2], s[3]] for s in shares])
        self.assert_matches_per_recorder(rids, weights, velocities)

    def test_empty_and_negative(self):
        assert combine_shares_grouped(np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 2))) == {}
        with pytest.raises(ValueError):
            combine_shares_grouped(np.array([1]), np.array([-1.0]), np.zeros((1, 2)))


class TestImpliedVelocity:
    S = np.array([0.0, 0.0])
    R = np.array([10.0, 0.0])
    V = np.array([1.0, 1.0])

    def test_inherit(self):
        v = implied_velocity(self.S, self.R, self.V, 5.0, "inherit")
        np.testing.assert_allclose(v, self.V)

    def test_displacement(self):
        v = implied_velocity(self.S, self.R, self.V, 5.0, "displacement")
        np.testing.assert_allclose(v, [2.0, 0.0])

    def test_blend(self):
        v = implied_velocity(self.S, self.R, self.V, 5.0, "blend", alpha=0.5)
        np.testing.assert_allclose(v, [1.5, 0.5])

    def test_blend_alpha_extremes(self):
        v0 = implied_velocity(self.S, self.R, self.V, 5.0, "blend", alpha=0.0)
        v1 = implied_velocity(self.S, self.R, self.V, 5.0, "blend", alpha=1.0)
        np.testing.assert_allclose(v0, self.V)
        np.testing.assert_allclose(v1, [2.0, 0.0])

    def test_track_uses_consensus(self):
        v = implied_velocity(
            self.S, self.R, self.V, 5.0, "track", track_velocity=np.array([9.0, 9.0])
        )
        np.testing.assert_allclose(v, [9.0, 9.0])

    def test_track_falls_back_to_sender(self):
        v = implied_velocity(self.S, self.R, self.V, 5.0, "track", track_velocity=None)
        np.testing.assert_allclose(v, self.V)

    def test_invalid_mode_and_dt(self):
        with pytest.raises(ValueError):
            implied_velocity(self.S, self.R, self.V, 5.0, "teleport")
        with pytest.raises(ValueError):
            implied_velocity(self.S, self.R, self.V, 0.0, "displacement")

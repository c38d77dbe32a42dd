"""batch_propagate / batch_implied_velocities against the scalar
select_recorders + division_shares + implied_velocity composition."""

import numpy as np
import pytest

from repro.core.contributions import linear_probability
from repro.core.propagation import (
    PropagationConfig,
    division_shares,
    implied_velocity,
    select_recorders,
)
from repro.kernels.propagation import batch_implied_velocities, batch_propagate


def _scalar_reference(pred, weight, ids, pos, *, area_radius, record_threshold,
                      max_recorders=None, keep=None):
    """One broadcast, evaluated the way the pre-kernel scalar path did."""
    diff = pos - pred
    d = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    p = linear_probability(d, area_radius)
    mask = p > max(record_threshold, 0.0)
    if keep is not None:
        mask &= keep
    sel = np.flatnonzero(mask)
    if sel.size == 0:
        return sel, np.zeros(0), np.zeros(0)
    sel_ids, probs = ids[sel], p[sel]
    if max_recorders is not None and sel.size > max_recorders:
        order = np.lexsort((sel_ids, -probs))[:max_recorders]
        sel, sel_ids, probs = sel[order], sel_ids[order], probs[order]
    order = np.argsort(sel_ids)
    sel, probs = sel[order], np.ascontiguousarray(probs[order])
    return sel, probs, division_shares(probs, weight)


def _world(rng, n_candidates=60):
    ids = rng.permutation(1000)[:n_candidates]
    pos = rng.uniform(0.0, 100.0, size=(n_candidates, 2))
    return np.asarray(ids, dtype=np.intp), pos


class TestBatchPropagate:
    @pytest.mark.parametrize("record_threshold", [0.0, 0.5])
    @pytest.mark.parametrize("max_recorders", [None, 4])
    def test_matches_scalar_composition(self, record_threshold, max_recorders):
        rng = np.random.default_rng(8)
        ids, pos = _world(rng)
        predicted = rng.uniform(20.0, 80.0, size=(12, 2))
        weights = rng.uniform(0.1, 2.0, size=12)
        out = batch_propagate(
            predicted, weights, ids, pos,
            area_radius=15.0, record_threshold=record_threshold,
            max_recorders=max_recorders,
        )
        assert len(out) == 12
        for b, (sel, probs, shares) in enumerate(out):
            e_sel, e_probs, e_shares = _scalar_reference(
                predicted[b], weights[b], ids, pos,
                area_radius=15.0, record_threshold=record_threshold,
                max_recorders=max_recorders,
            )
            assert np.array_equal(sel, e_sel), b
            assert np.array_equal(probs, e_probs), b
            assert np.array_equal(shares, e_shares), b

    def test_matches_select_recorders(self):
        """The public scalar wrappers and the kernel agree id-for-id: one
        ``select_recorders`` + ``division_shares`` per broadcast, the
        per-particle loop of the propagation phase before the kernel."""
        rng = np.random.default_rng(9)
        ids, pos = _world(rng, 40)
        predicted = np.vstack([[50.0, 50.0], rng.uniform(30.0, 70.0, size=(15, 2))])
        weights = rng.uniform(0.1, 2.0, size=predicted.shape[0])
        for radius, threshold, cap in ((18.0, 0.3, 6), (15.0, 0.3, 12)):
            config = PropagationConfig(
                predicted_area_radius=radius, record_threshold=threshold,
                max_recorders=cap,
            )
            out = batch_propagate(
                predicted, weights, ids, pos,
                area_radius=radius, record_threshold=threshold, max_recorders=cap,
            )
            for b, (sel, k_probs, k_shares) in enumerate(out):
                rec_ids, probs = select_recorders(ids, pos, predicted[b], config)
                assert np.array_equal(ids[sel], rec_ids), (radius, b)
                assert np.array_equal(k_probs, probs), (radius, b)
                if rec_ids.size:
                    assert np.array_equal(
                        k_shares, division_shares(probs, weights[b])
                    ), (radius, b)

    def test_candidate_order_invariance(self):
        """Shuffling the candidate array changes indices, not the id->share map."""
        rng = np.random.default_rng(10)
        ids, pos = _world(rng, 50)
        pred = np.array([[45.0, 55.0]])
        w = np.array([1.3])
        kwargs = dict(area_radius=20.0, record_threshold=0.2, max_recorders=5)
        ((sel_a, _, shares_a),) = batch_propagate(pred, w, ids, pos, **kwargs)
        perm = rng.permutation(ids.size)
        ((sel_b, _, shares_b),) = batch_propagate(
            pred, w, ids[perm], pos[perm], **kwargs
        )
        assert dict(zip(ids[sel_a].tolist(), shares_a.tolist())) == dict(
            zip(ids[perm][sel_b].tolist(), shares_b.tolist())
        )

    def test_keep_masks_compose(self):
        rng = np.random.default_rng(12)
        ids, pos = _world(rng, 30)
        predicted = rng.uniform(30.0, 70.0, size=(5, 2))
        weights = np.ones(5)
        keep = rng.random((5, 30)) < 0.6
        out = batch_propagate(
            predicted, weights, ids, pos,
            area_radius=25.0, record_threshold=0.1, keep_masks=keep,
        )
        for b, (sel, probs, shares) in enumerate(out):
            e_sel, e_probs, e_shares = _scalar_reference(
                predicted[b], weights[b], ids, pos,
                area_radius=25.0, record_threshold=0.1, keep=keep[b],
            )
            assert np.array_equal(sel, e_sel)
            assert np.array_equal(probs, e_probs)
            assert np.array_equal(shares, e_shares)
            assert keep[b][sel].all()

    def test_empty_candidates(self):
        out = batch_propagate(
            np.zeros((3, 2)), np.ones(3), np.zeros(0, dtype=np.intp),
            np.zeros((0, 2)), area_radius=10.0, record_threshold=0.5,
        )
        assert len(out) == 3
        for sel, probs, shares in out:
            assert sel.size == probs.size == shares.size == 0

    def test_no_recorders_in_range(self):
        """Candidates exist but all fall outside the predicted area."""
        ids = np.arange(4, dtype=np.intp)
        pos = np.full((4, 2), 500.0)
        ((sel, probs, shares),) = batch_propagate(
            np.zeros((1, 2)), np.ones(1), ids, pos,
            area_radius=10.0, record_threshold=0.5,
        )
        assert sel.size == 0 and probs.size == 0 and shares.size == 0

    def test_shares_conserve_weight_and_sort_by_id(self):
        rng = np.random.default_rng(13)
        ids, pos = _world(rng, 45)
        predicted = rng.uniform(25.0, 75.0, size=(8, 2))
        weights = rng.uniform(0.5, 3.0, size=8)
        out = batch_propagate(
            predicted, weights, ids, pos, area_radius=22.0, record_threshold=0.1
        )
        for b, (sel, probs, shares) in enumerate(out):
            if sel.size == 0:
                continue
            assert np.isclose(shares.sum(), weights[b], rtol=1e-12)
            assert (np.diff(ids[sel]) > 0).all()  # ascending ids
            assert (probs > 0.1).all()


class TestBatchImpliedVelocities:
    @pytest.mark.parametrize("mode", ["track", "inherit", "displacement", "blend"])
    @pytest.mark.parametrize("with_track", [False, True])
    def test_matches_scalar_rows(self, mode, with_track):
        rng = np.random.default_rng(14)
        sender_pos = rng.uniform(0, 100, size=2)
        sender_vel = rng.normal(size=2)
        track_vel = rng.normal(size=2) if with_track else None
        rec = rng.uniform(0, 100, size=(9, 2))
        got = batch_implied_velocities(
            sender_pos, rec, sender_vel, dt=1.0, mode=mode, alpha=0.3,
            track_velocity=track_vel,
        )
        expected = np.vstack(
            [
                implied_velocity(
                    sender_pos, rec[i], sender_vel, dt=1.0, mode=mode,
                    alpha=0.3, track_velocity=track_vel,
                )
                for i in range(rec.shape[0])
            ]
        )
        assert got.shape == (9, 2)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["track", "inherit", "displacement", "blend"])
    @pytest.mark.parametrize("with_track", [False, True])
    def test_per_recorder_senders_match_per_sender_calls(self, mode, with_track):
        """(n, 2) per-recorder sender rows == one call per sender."""
        rng = np.random.default_rng(15)
        track_vel = rng.normal(size=2) if with_track else None
        sizes = [3, 1, 5]
        sender_pos = rng.uniform(0, 100, size=(len(sizes), 2))
        sender_vel = rng.normal(size=(len(sizes), 2))
        rec = rng.uniform(0, 100, size=(sum(sizes), 2))
        sender_of = np.repeat(np.arange(len(sizes)), sizes)
        got = batch_implied_velocities(
            sender_pos[sender_of], rec, sender_vel[sender_of], dt=2.0, mode=mode,
            alpha=0.3, track_velocity=track_vel,
        )
        bounds = np.cumsum([0] + sizes)
        expected = np.vstack(
            [
                batch_implied_velocities(
                    sender_pos[b], rec[bounds[b]:bounds[b + 1]], sender_vel[b],
                    dt=2.0, mode=mode, alpha=0.3, track_velocity=track_vel,
                )
                for b in range(len(sizes))
            ]
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["displacement", "blend"])
    def test_nonpositive_dt_raises(self, mode):
        with pytest.raises(ValueError, match="dt must be positive"):
            batch_implied_velocities(
                np.zeros(2), np.ones((2, 2)), np.zeros(2), dt=0.0, mode=mode
            )

    def test_track_mode_ignores_dt(self):
        """track/inherit never touch dt — matching the scalar function."""
        out = batch_implied_velocities(
            np.zeros(2), np.ones((3, 2)), np.array([1.0, 2.0]), dt=0.0,
            mode="track",
        )
        assert np.array_equal(out, np.tile([1.0, 2.0], (3, 1)))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown velocity mode"):
            batch_implied_velocities(
                np.zeros(2), np.ones((1, 2)), np.zeros(2), dt=1.0, mode="warp"
            )

    def test_single_recorder_1d_input(self):
        """A bare (2,) recorder position is promoted to one row."""
        out = batch_implied_velocities(
            np.zeros(2), np.array([3.0, 4.0]), np.zeros(2), dt=2.0,
            mode="displacement",
        )
        assert np.array_equal(out, np.array([[1.5, 2.0]]))

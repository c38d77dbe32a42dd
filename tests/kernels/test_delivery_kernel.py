"""The vectorized delivery draw and classify paths, pinned against the
SeedSequence reference and the scalar ``classify`` bit for bit.

This is the file ``kernels/delivery.py``'s docstring promises: the keyed
uniform replay must match numpy's own SeedSequence -> PCG64 -> random()
chain for every key, or the medium's vectorized broadcast would silently
change delivery outcomes somewhere.
"""

import numpy as np
import pytest

from repro.kernels.delivery import (
    OUTCOME_DELAY,
    OUTCOME_DELIVER,
    OUTCOME_DROP,
    batch_deliver,
    link_uniform_many,
)
from repro.network.links import (
    DelayingLink,
    DistanceFadingLink,
    GilbertElliottLink,
    IIDLossLink,
    LinkModel,
    LinkOutcome,
)

_CODE = {
    LinkOutcome.DELIVER: OUTCOME_DELIVER,
    LinkOutcome.DROP: OUTCOME_DROP,
    LinkOutcome.DELAY: OUTCOME_DELAY,
}


def _link_uniform(seed: int, *key: int) -> float:
    """The reference draw: numpy's own SeedSequence -> PCG64 -> random()."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return float(np.random.default_rng(ss).random())


def _scalar_classify(model, sender, receivers, distances, iteration, nonces):
    """The loop the batched classify replaces, via the scalar method."""
    return np.array(
        [
            _CODE[model.classify(sender, int(r), float(d), iteration, int(nc))]
            for r, d, nc in zip(receivers, distances, nonces)
        ],
        dtype=np.int8,
    )


class TestLinkUniformMany:
    def test_bit_exact_against_scalar_draw(self):
        """Random keys across the full realistic range, all tags."""
        rng = np.random.default_rng(0)
        for tag in (1, 2, 3, 4, 5):
            seed = int(rng.integers(0, 2**31))
            sender = int(rng.integers(0, 2000))
            iteration = int(rng.integers(0, 200))
            receivers = rng.integers(0, 2000, size=64)
            nonces = rng.integers(0, 40, size=64)
            got = link_uniform_many(seed, tag, sender, receivers, iteration, nonces)
            expected = np.array(
                [
                    _link_uniform(seed, tag, sender, int(r), iteration, int(nc))
                    for r, nc in zip(receivers, nonces)
                ]
            )
            assert np.array_equal(got, expected), f"tag {tag}"

    def test_scalar_nonce_broadcasts(self):
        receivers = np.arange(10)
        got = link_uniform_many(7, 3, 5, receivers, 4, 0)
        expected = np.array(
            [_link_uniform(7, 3, 5, int(r), 4, 0) for r in receivers]
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_small_batches_bit_exact(self, n):
        """Batches up to ``_SMALL_BATCH`` keys replay each key in Python
        ints; on either side of that size the draws are SeedSequence's."""
        rng = np.random.default_rng(100 + n)
        senders = rng.integers(0, 2**32, size=n)
        receivers = rng.integers(0, 2**32, size=n)
        iterations = rng.integers(0, 50, size=n)
        for sender, iteration, nonces in [(senders, iterations, 0), (9, 3, np.arange(n))]:
            got = link_uniform_many(2**70 + 5, 4, sender, receivers, iteration, nonces)
            expected = [
                _link_uniform(
                    2**70 + 5, 4,
                    int(np.broadcast_to(sender, (n,))[i]), int(r),
                    int(np.broadcast_to(iteration, (n,))[i]),
                    int(np.broadcast_to(nonces, (n,))[i]),
                )
                for i, r in enumerate(receivers)
            ]
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tolist() == expected

    def test_edge_keys(self):
        """Zeros everywhere, and seeds at every word-count boundary.

        SeedSequence splits the seed into as many 32-bit words as it needs
        and pads to the pool size of 4 only below that: 2^32 takes two
        words, 2^64 - 1 two, and 2^128 + 3 five (past the pool size, so the
        fifth word is mixed in after the pool is filled).
        """
        for seed in (0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, 2**128 + 3):
            got = link_uniform_many(seed, 1, 0, np.array([0]), 0, np.array([0]))
            assert got[0] == _link_uniform(seed, 1, 0, 0, 0, 0), seed
            got = link_uniform_many(seed, 1, 3, np.array([4]), 0, np.array([0]))
            assert got[0] == _link_uniform(seed, 1, 3, 4, 0, 0), seed

    def test_draws_are_valid_uniforms(self):
        u = link_uniform_many(3, 2, 9, np.arange(1000), 1, np.zeros(1000, dtype=int))
        assert ((u >= 0.0) & (u < 1.0)).all()
        assert 0.4 < u.mean() < 0.6


class TestClassifyMany:
    def _compare(self, make_model, distances=None, n=50, iterations=(0, 1, 2)):
        """Fresh scalar-path and batched-path models must agree everywhere."""
        rng = np.random.default_rng(5)
        scalar_model = make_model()
        batch_model = make_model()
        for iteration in iterations:
            receivers = rng.integers(0, 300, size=n)
            d = (
                rng.uniform(0.0, 35.0, size=n)
                if distances is None
                else np.asarray(distances, dtype=np.float64)
            )
            nonces = rng.integers(0, 5, size=n)
            expected = _scalar_classify(
                scalar_model, 17, receivers, d, iteration, nonces
            )
            got = batch_model.classify_many(17, receivers, d, iteration, nonces)
            assert got.dtype == np.int8
            assert np.array_equal(got, expected), f"iteration {iteration}"
        return scalar_model, batch_model

    def test_base_model_always_delivers(self):
        out = LinkModel().classify_many(
            0, np.arange(5), np.zeros(5), 0, np.zeros(5, dtype=int)
        )
        assert np.array_equal(out, np.zeros(5, dtype=np.int8))

    def test_iid_loss(self):
        self._compare(lambda: IIDLossLink(p_loss=0.3, seed=11))

    def test_iid_loss_degenerate_probabilities(self):
        n = 8
        args = (4, np.arange(n), np.ones(n), 0, np.zeros(n, dtype=int))
        assert (IIDLossLink(p_loss=0.0).classify_many(*args) == OUTCOME_DELIVER).all()
        assert (IIDLossLink(p_loss=1.0).classify_many(*args) == OUTCOME_DROP).all()

    def test_distance_fading_all_regions(self):
        """Inner disk (p=1, no draw), ramp, and beyond the comm radius."""
        distances = np.concatenate(
            [
                np.linspace(0.0, 15.0, 10),       # inner: delivered without a draw
                np.linspace(15.01, 29.99, 30),    # power-law ramp
                np.array([30.0, 31.0, 50.0]),     # at/past the edge
            ]
        )
        self._compare(
            lambda: DistanceFadingLink(
                comm_radius=30.0, inner_radius=15.0, edge_probability=0.4,
                gamma=2.7, seed=23,
            ),
            distances=distances,
            n=distances.size,
        )

    def test_distance_fading_zero_span(self):
        """inner_radius == comm_radius: the ramp degenerates to a step."""
        distances = np.array([0.0, 29.9, 30.0, 30.1])
        self._compare(
            lambda: DistanceFadingLink(
                comm_radius=30.0, inner_radius=30.0, edge_probability=0.6, seed=2
            ),
            distances=distances,
            n=distances.size,
        )

    def test_gilbert_elliott_chain_and_state(self):
        """Burst chains give the same outcomes on both paths over rounds
        whose iterations leap, repeat and go back, and the batched catch-up
        finds the state each link's own walk finds."""
        iterations = (0, 1, 3, 7, 7, 3, 0)  # gaps force multi-step walks
        scalar_model, batch_model = self._compare(
            lambda: GilbertElliottLink(
                p_good_to_bad=0.3, p_bad_to_good=0.3, loss_good=0.05,
                loss_bad=0.9, seed=31,
            ),
            iterations=iterations,
        )
        receivers = np.arange(300)
        for iteration in iterations:
            batched = batch_model.advance(17, receivers, iteration)
            one_link = [
                bool(scalar_model.advance(17, [r], iteration)[0]) for r in receivers.tolist()
            ]
            assert batched.tolist() == one_link, f"iteration {iteration}"

    def test_gilbert_elliott_replay_from_origin(self):
        """Asking about an earlier iteration replays the keyed chain."""
        model = GilbertElliottLink(
            p_good_to_bad=0.4, p_bad_to_good=0.2, loss_bad=1.0, seed=9
        )
        receivers = np.arange(20)
        nonces = np.zeros(20, dtype=int)
        late = model.classify_many(1, receivers, np.ones(20), 6, nonces)
        early = model.classify_many(1, receivers, np.ones(20), 2, nonces)
        fresh = GilbertElliottLink(
            p_good_to_bad=0.4, p_bad_to_good=0.2, loss_bad=1.0, seed=9
        )
        assert np.array_equal(
            early, fresh.classify_many(1, receivers, np.ones(20), 2, nonces)
        )
        assert np.array_equal(
            late,
            GilbertElliottLink(
                p_good_to_bad=0.4, p_bad_to_good=0.2, loss_bad=1.0, seed=9
            ).classify_many(1, receivers, np.ones(20), 6, nonces),
        )

    def test_delaying_wrapper(self):
        self._compare(
            lambda: DelayingLink(
                inner=IIDLossLink(p_loss=0.25, seed=3), p_delay=0.4, seed=41
            )
        )

    def test_delaying_preserves_inner_drops(self):
        """Only base-delivered copies can be delayed."""
        model = DelayingLink(inner=IIDLossLink(p_loss=1.0), p_delay=1.0)
        out = model.classify_many(
            0, np.arange(6), np.ones(6), 0, np.zeros(6, dtype=int)
        )
        assert (out == OUTCOME_DROP).all()


class TestBatchDeliver:
    def _scalar_compose(self, base, override, sender, receivers, distances,
                        iteration, nonces):
        """The medium's per-copy composition, spelled out scalar-by-scalar."""
        out = np.empty(len(receivers), dtype=np.int8)
        for i, (r, d, nc) in enumerate(zip(receivers, distances, nonces)):
            if base is not None:
                code = _CODE[base.classify(sender, int(r), float(d), iteration, int(nc))]
            else:
                code = OUTCOME_DELIVER
            if override is not None and code == OUTCOME_DELIVER:
                code = _CODE[
                    override.classify(sender, int(r), float(d), iteration, int(nc))
                ]
            out[i] = code
        return out

    @pytest.mark.parametrize(
        "base, override",
        [
            (None, None),
            (IIDLossLink(p_loss=0.3, seed=1), None),
            (None, IIDLossLink(p_loss=0.5, seed=2)),
            (
                DistanceFadingLink(comm_radius=30.0, inner_radius=10.0, seed=3),
                DelayingLink(inner=IIDLossLink(p_loss=0.2, seed=4), p_delay=0.5, seed=5),
            ),
        ],
        ids=["none", "base-only", "override-only", "base+override"],
    )
    def test_matches_scalar_composition(self, base, override):
        rng = np.random.default_rng(77)
        receivers = rng.integers(0, 200, size=40)
        distances = rng.uniform(0.0, 32.0, size=40)
        nonces = rng.integers(0, 3, size=40)
        # separate instances for the scalar pass so stateful models (none
        # here are stateful, but the contract is general) are not perturbed
        got = batch_deliver(base, override, 9, receivers, distances, 4, nonces)
        expected = self._scalar_compose(
            base, override, 9, receivers, distances, 4, nonces
        )
        assert np.array_equal(got, expected)

    def test_override_shares_the_nonce(self):
        """Base and override draw with the same nonce — distinct tags keep
        the draws independent, but the key material must match the scalar
        medium's single-nonce-per-copy bookkeeping."""
        base = IIDLossLink(p_loss=0.4, seed=6)
        override = IIDLossLink(p_loss=0.4, seed=60)
        receivers = np.arange(30)
        distances = np.ones(30)
        nonces = np.full(30, 2)
        got = batch_deliver(base, override, 1, receivers, distances, 0, nonces)
        expected = self._scalar_compose(
            base, override, 1, receivers, distances, 0, nonces
        )
        assert np.array_equal(got, expected)

    def test_no_models_delivers_everything(self):
        out = batch_deliver(
            None, None, 0, np.arange(4), np.ones(4), 0, np.zeros(4, dtype=int)
        )
        assert (out == OUTCOME_DELIVER).all()

"""The cross-cell batch axis: stacked kernel calls vs their per-cell slices.

The lock-step sweep backend stacks many cells' same-phase kernel calls into
one array op; these tests pin the contract that batching never changes a
single slice's bits.
"""

import numpy as np

from repro.kernels.delivery import link_uniform_many
from repro.kernels.likelihood import batch_likelihood


class TestBatchLikelihood3D:
    def test_each_slice_matches_its_own_2d_call(self):
        rng = np.random.default_rng(11)
        B, n, m = 4, 7, 5
        hp = rng.uniform(0, 100, size=(B, n, 2))
        lam = rng.uniform(0.05, 2.0, size=(B, n))
        sp = rng.uniform(0, 100, size=(B, m, 2))
        zs = rng.uniform(-np.pi, np.pi, size=(B, m))
        stacked = batch_likelihood(hp, lam, sp, zs, 0.3)
        assert stacked.shape == (B, n, m)
        for b in range(B):
            single = batch_likelihood(hp[b], lam[b], sp[b], zs[b], 0.3)
            assert np.array_equal(stacked[b], single)

    def test_padding_rows_do_not_disturb_real_rows(self):
        """The lock-step pipeline pads ragged cells with lam=1 holders at a
        shared dummy position; real entries must be bit-identical to the
        unpadded call."""
        rng = np.random.default_rng(12)
        n, m = 5, 4
        hp = rng.uniform(0, 50, size=(n, 2))
        lam = rng.uniform(0.1, 1.0, size=n)
        sp = rng.uniform(0, 50, size=(m, 2))
        zs = rng.uniform(-np.pi, np.pi, size=m)
        hp_pad = np.vstack([hp, np.zeros((3, 2))])
        lam_pad = np.concatenate([lam, np.ones(3)])
        sp_pad = np.vstack([sp, np.zeros((2, 2))])
        zs_pad = np.concatenate([zs, np.zeros(2)])
        padded = batch_likelihood(hp_pad, lam_pad, sp_pad, zs_pad, 0.3)
        plain = batch_likelihood(hp, lam, sp, zs, 0.3)
        assert np.array_equal(padded[:n, :m], plain)


class TestLinkUniformManyPerCopyKeys:
    def test_per_copy_seed_and_iteration_match_scalar_calls(self):
        """One stacked call over many cells' broadcasts == each cell's own
        call: the draw is a pure function of the per-copy key."""
        receivers = np.array([3, 9, 14, 3, 7, 21], dtype=np.intp)
        seeds = np.array([101, 101, 202, 202, 202, 303], dtype=np.uint64)
        senders = np.array([1, 1, 2, 2, 2, 5], dtype=np.uint64)
        iterations = np.array([4, 4, 4, 9, 9, 1], dtype=np.uint64)
        stacked = link_uniform_many(seeds, 7, senders, receivers, iterations, 0)
        for i, r in enumerate(receivers):
            one = link_uniform_many(
                int(seeds[i]), 7, int(senders[i]),
                np.array([r], dtype=np.intp), int(iterations[i]), 0,
            )
            assert stacked[i] == one[0], i

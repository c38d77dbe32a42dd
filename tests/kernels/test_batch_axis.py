"""Per-copy key arrays: one stacked kernel call vs its per-broadcast calls.

The medium's lossy round resolves every copy of many broadcasts in one
``link_uniform_many`` call; this test pins the contract that stacking never
changes a single copy's draw.
"""

import numpy as np

from repro.kernels.delivery import link_uniform_many


class TestLinkUniformManyPerCopyKeys:
    def test_per_copy_seed_and_iteration_match_scalar_calls(self):
        """One stacked call over many broadcasts == each broadcast's own
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

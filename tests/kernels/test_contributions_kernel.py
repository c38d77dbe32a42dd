"""batch_contributions / group_sums: grouped CSR evaluation must be
bit-identical to evaluating each estimation area on its own."""

import numpy as np

from repro.core.contributions import estimated_contributions
from repro.kernels.contributions import batch_contributions, group_sums


def _random_groups(rng, n_groups, max_size=40):
    """Random estimation areas of wildly varying sizes (incl. size 1 and 9+,
    where np.add.reduceat would diverge from pairwise summation)."""
    sizes = rng.integers(1, max_size, size=n_groups)
    groups = [rng.uniform(0.0, 30.0, size=s) for s in sizes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return groups, np.concatenate(groups), offsets


class TestGroupSums:
    def test_matches_standalone_sums(self):
        rng = np.random.default_rng(1)
        groups, flat, offsets = _random_groups(rng, 25)
        got = group_sums(flat, offsets)
        expected = np.array([g.sum() for g in groups])
        assert np.array_equal(got, expected)

    def test_large_group_pairwise_reduction(self):
        """A 10k-element group: pairwise summation differs measurably from
        sequential accumulation, and the kernel must pick pairwise."""
        rng = np.random.default_rng(2)
        g = rng.uniform(0.0, 1.0, size=10_000)
        offsets = np.array([0, g.size])
        assert group_sums(g, offsets)[0] == g.sum()

    def test_empty_offsets(self):
        assert group_sums(np.zeros(0), np.array([0])).size == 0


class TestBatchContributions:
    def test_flat_call_matches_core_reference(self):
        """offsets=None is exactly the single-area scalar-path call."""
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 30.0, size=50)
        assert np.array_equal(
            batch_contributions(d), estimated_contributions(d)
        )

    def test_grouped_equals_per_group_standalone(self):
        """The CSR form against one standalone call per area, bit for bit —
        both the kernel's own single-area call and the validated core
        function CDPF-NE called once per holder before the kernel existed."""
        rng = np.random.default_rng(4)
        groups, flat, offsets = _random_groups(rng, 30)
        got = batch_contributions(flat, offsets)
        for per_area in (batch_contributions, estimated_contributions):
            expected = np.concatenate([per_area(g) for g in groups])
            assert np.array_equal(got, expected), per_area.__name__

    def test_each_group_normalizes(self):
        rng = np.random.default_rng(5)
        _, flat, offsets = _random_groups(rng, 12)
        c = batch_contributions(flat, offsets)
        for g in range(offsets.size - 1):
            s = c[offsets[g] : offsets[g + 1]].sum()
            assert np.isclose(s, 1.0, rtol=0, atol=1e-9)
        assert (c >= 0).all()

    def test_d_min_clamp(self):
        """A sensor at the predicted position is clamped, not infinite."""
        c = batch_contributions(np.array([0.0, 1.0]), d_min=1e-3)
        assert np.isfinite(c).all()
        assert c[0] / c[1] == 1.0 / 1e-3

    def test_inverse_distance_ratio(self):
        """Definition 2: c_i * d_i constant within an area (above the clamp)."""
        d = np.array([2.0, 5.0, 9.0, 13.0])
        c = batch_contributions(d)
        prod = c * d
        assert np.allclose(prod, prod[0], rtol=1e-12)

    def test_single_element_groups(self):
        flat = np.array([3.0, 7.0, 11.0])
        offsets = np.array([0, 1, 2, 3])
        assert np.array_equal(batch_contributions(flat, offsets), np.ones(3))

"""batch_contributions and the segment reductions: grouped CSR evaluation
must be bit-identical to evaluating each estimation area (segment) on its
own."""

import numpy as np
import pytest

from repro.core.contributions import estimated_contributions
from repro.kernels.contributions import (
    batch_contributions,
    group_means,
    group_sums,
    group_weighted_means,
    segment_buckets,
)

#: segment lengths around numpy's pairwise-summation block edges (a
#: pairwise sum adds 8 accumulators and splits at 128 elements)
_EDGES = [*range(1, 10), 127, 128, 129, 130, 255, 256, 257]


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


def _segments(rng, lengths):
    """Flat values of wildly varying magnitude cut into ``lengths``, plus
    their CSR offsets and the per-segment slices."""
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
    values = rng.random(offsets[-1]) * 10.0 ** rng.integers(-6, 7, offsets[-1])
    values[rng.random(values.size) < 0.2] *= -1.0
    return values, offsets, [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _layouts():
    """(name, lengths): one bucket, a few buckets, every edge length, each
    segment length repeated 1, 3 or 17 times and shuffled."""
    rng = np.random.default_rng(11)
    out = []
    for repeat in (1, 3, 17):
        for name, lengths in (("one", [129]), ("few", [1, 8, 9, 256]), ("all", _EDGES)):
            ls = np.repeat(lengths, repeat)
            out.append((f"{name}-x{repeat}", rng.permutation(ls)))
    return out


_LAYOUTS = _layouts()


class TestSegmentReductions:
    """group_sums / group_means / group_weighted_means against each
    segment's own ``.sum()``, ``.mean()`` and weighted ``@``."""

    @pytest.mark.parametrize("lengths", [ls for _, ls in _LAYOUTS], ids=[n for n, _ in _LAYOUTS])
    def test_sums_and_means_equal_per_slice(self, lengths):
        values, offsets, slices = _segments(np.random.default_rng(len(lengths)), lengths)
        assert _bits(group_sums(values, offsets)) == _bits([values[s].sum() for s in slices])
        assert _bits(group_means(values, offsets)) == _bits([values[s].mean() for s in slices])

    @pytest.mark.parametrize("lengths", [ls for _, ls in _LAYOUTS], ids=[n for n, _ in _LAYOUTS])
    def test_weighted_means_equal_per_slice(self, lengths):
        rng = np.random.default_rng(100 + len(lengths))
        weights, offsets, slices = _segments(rng, lengths)
        weights = np.abs(weights)
        # every third segment carries zero weight: the plain mean
        for s in slices[::3]:
            weights[s] = 0.0
        rows = rng.normal(0.0, 50.0, size=(weights.size, 2))
        totals, means = group_weighted_means(weights, rows, offsets)
        want_totals, want_means = [], []
        for s in slices:
            total = float(weights[s].sum())
            want_totals.append(total)
            if total > 0.0:
                want_means.append((weights[s] / total) @ rows[s])
            else:
                want_means.append(rows[s].mean(axis=0))
        assert _bits(totals) == _bits(want_totals)
        assert _bits(means) == _bits(want_means)

    def test_reduceat_would_not_do(self):
        """The reason for the buckets: ``np.add.reduceat`` accumulates
        sequentially, and on these segments it differs from ``.sum()``."""
        values, offsets, slices = _segments(np.random.default_rng(5), _EDGES)
        want = _bits([values[s].sum() for s in slices])
        assert _bits(group_sums(values, offsets)) == want
        assert _bits(np.add.reduceat(values, offsets[:-1])) != want

    def test_buckets_cover_every_segment_once(self):
        lengths = np.array([3, 0, 3, 1, 0, 7])
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        buckets = segment_buckets(offsets)
        assert sorted(np.concatenate([seg for seg, _ in buckets]).tolist()) == list(range(6))
        for seg, index in buckets:
            assert index.shape == (seg.size, lengths[seg[0]])
            for g, row in zip(seg.tolist(), index):
                assert row.tolist() == list(range(offsets[g], offsets[g + 1]))
        assert group_sums(np.arange(14.0), offsets)[[1, 4]].tolist() == [0.0, 0.0]
        assert segment_buckets(np.array([0])) == []

"""GridIndex: correctness against brute force, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.spatial import GridIndex, segment_distances


def brute_disk(positions, center, radius):
    d2 = np.sum((positions - np.asarray(center)) ** 2, axis=1)
    return np.sort(np.nonzero(d2 <= radius * radius)[0])


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            GridIndex(np.zeros((3, 3)), 1.0)

    def test_rejects_nonfinite(self):
        pts = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            GridIndex(pts, 1.0)

    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(np.zeros((1, 2)), 0.0)

    def test_empty_index_queries_cleanly(self):
        idx = GridIndex(np.zeros((0, 2)), 1.0)
        assert len(idx) == 0
        assert idx.query_disk([0, 0], 5.0).size == 0
        assert idx.query_segment([0, 0], [1, 1], 5.0).size == 0

    def test_len(self):
        idx = GridIndex(np.random.default_rng(0).uniform(0, 10, (17, 2)), 2.0)
        assert len(idx) == 17


class TestNonFiniteCenters:
    """A NaN or infinite center is refused with a ValueError that says so,
    not an accidental failure of the cell arithmetic behind it."""

    @pytest.mark.parametrize("bad", [[np.nan, 5.0], [np.inf, 5.0], [-np.inf, 5.0]],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "query",
        [
            lambda idx, c: idx.query_disk(c, 3.0),
            lambda idx, c: idx.query_disk_pairs(np.array([[1.0, 1.0], c]), 3.0),
            lambda idx, c: idx.count_in_disks(np.array([[1.0, 1.0], c]), 3.0),
            lambda idx, c: idx.count_bounds(np.array([[1.0, 1.0], c]), 3.0, _never_open),
            lambda idx, c: idx.query_disk_many(np.array([c, [1.0, 1.0]]), 3.0),
            lambda idx, c: idx.query_segment([1.0, 1.0], c, 3.0),
        ],
        ids=["query_disk", "query_disk_pairs", "count_in_disks", "count_bounds",
             "query_disk_many", "query_segment"],
    )
    def test_rejected(self, query, bad):
        idx = GridIndex(np.random.default_rng(0).uniform(0.0, 10.0, (20, 2)), 2.0)
        with pytest.raises(ValueError, match="not finite"):
            query(idx, np.array(bad))

    def test_count_bounds_on_an_empty_index(self):
        idx = GridIndex(np.zeros((0, 2)), 2.0)
        lower, upper = idx.count_bounds(np.array([[1.0, 1.0], [1e12, -3.0]]), 3.0, _never_open)
        for bound in (lower, upper):
            assert bound.dtype == np.intp
            np.testing.assert_array_equal(bound, [0, 0])

    @pytest.mark.parametrize("centers", [np.zeros((0, 2)), np.zeros(0)], ids=["2-d", "1-d"])
    def test_count_bounds_without_centers(self, centers):
        idx = GridIndex(np.random.default_rng(0).uniform(0.0, 10.0, (20, 2)), 2.0)
        lower, upper = idx.count_bounds(centers, 3.0, _never_open)
        assert lower.shape == upper.shape == (0,)
        assert lower.dtype == upper.dtype == np.intp

    def test_count_bounds_negative_radius_rejected(self):
        idx = GridIndex(np.random.default_rng(0).uniform(0.0, 10.0, (20, 2)), 2.0)
        with pytest.raises(ValueError, match="radius"):
            idx.count_bounds(np.array([[1.0, 1.0]]), -1.0, _never_open)


def _never_open(lower, upper):
    """A caller whose decision every pair of bounds settles."""
    return np.zeros(lower.shape, dtype=bool)


class TestQueryDisk:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, (500, 2))
        idx = GridIndex(pts, 7.0)
        for _ in range(20):
            c = rng.uniform(-10, 110, 2)
            r = rng.uniform(0, 25)
            np.testing.assert_array_equal(
                np.sort(idx.query_disk(c, r)), brute_disk(pts, c, r)
            )

    def test_zero_radius_hits_exact_point(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        idx = GridIndex(pts, 1.0)
        assert list(idx.query_disk([1.0, 1.0], 0.0)) == [0]

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        idx = GridIndex(pts, 1.0)
        assert 1 in idx.query_disk([0.0, 0.0], 3.0)

    def test_negative_radius_rejected(self):
        idx = GridIndex(np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError, match="radius"):
            idx.query_disk([0, 0], -1.0)

    def test_query_far_outside_field(self):
        pts = np.random.default_rng(2).uniform(0, 10, (50, 2))
        idx = GridIndex(pts, 3.0)
        assert idx.query_disk([1000.0, 1000.0], 5.0).size == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        radius=st.floats(0.0, 30.0),
        cell=st.floats(0.5, 20.0),
    )
    def test_property_matches_brute_force(self, seed, radius, cell):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, (rng.integers(1, 120), 2))
        idx = GridIndex(pts, cell)
        c = rng.uniform(-5, 55, 2)
        np.testing.assert_array_equal(
            np.sort(idx.query_disk(c, radius)), brute_disk(pts, c, radius)
        )


class TestQueryDiskMany:
    def test_union_deduplicated_sorted(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
        idx = GridIndex(pts, 2.0)
        got = idx.query_disk_many(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.5)
        np.testing.assert_array_equal(got, [0, 1])

    def test_empty_centers(self):
        idx = GridIndex(np.zeros((3, 2)), 1.0)
        assert idx.query_disk_many(np.zeros((0, 2)), 1.0).size == 0

    def test_empty_1d_centers(self):
        """A 1-D empty array used to become shape (1, 0) under atleast_2d
        and crash the per-center query."""
        idx = GridIndex(np.zeros((3, 2)), 1.0)
        got = idx.query_disk_many(np.zeros(0), 1.0)
        assert got.size == 0
        assert got.dtype == np.intp

    def test_single_center_1d(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        idx = GridIndex(pts, 2.0)
        np.testing.assert_array_equal(idx.query_disk_many(np.array([0.0, 0.0]), 1.0), [0])


class TestCountInDisks:
    """Exact disk counts: the same membership as query_disk, cell counts
    for the cells wholly inside a disk."""

    @pytest.mark.parametrize("cell_fraction", [1 / 12, 1 / 3, 1.0, 3.0])
    def test_matches_query_disk_sizes(self, cell_fraction):
        rng = np.random.default_rng(43)
        pts = rng.uniform(0, 100, size=(2000, 2))
        r = 7.5
        idx = GridIndex(pts, r * cell_fraction)
        # deployment nodes, random points, and centers off the field
        centers = np.vstack(
            [pts[:60], rng.uniform(0, 100, (30, 2)), rng.uniform(-40, 140, (30, 2))]
        )
        expected = [idx.query_disk(c, r).size for c in centers]
        np.testing.assert_array_equal(idx.count_in_disks(centers, r), expected)

    def test_points_exactly_on_the_circle(self):
        """Integer lattice, integer centers and radius: many points sit at
        distance exactly r, where only the exact test can decide."""
        g = np.arange(0.0, 41.0)
        pts = np.array(np.meshgrid(g, g)).reshape(2, -1).T.copy()
        idx = GridIndex(pts, 5.0 / 12)
        centers = np.array([[20.0, 20.0], [0.0, 0.0], [13.0, 27.0], [40.0, 3.0]])
        expected = [idx.query_disk(c, 5.0).size for c in centers]
        np.testing.assert_array_equal(idx.count_in_disks(centers, 5.0), expected)

    def test_empty_inputs(self):
        idx = GridIndex(np.zeros((3, 2)), 1.0)
        assert idx.count_in_disks(np.zeros((0, 2)), 1.0).shape == (0,)
        empty = GridIndex(np.zeros((0, 2)), 1.0)
        np.testing.assert_array_equal(empty.count_in_disks(np.ones((2, 2)), 1.0), [0, 0])
        with pytest.raises(ValueError):
            idx.count_in_disks(np.zeros((1, 2)), -1.0)


class TestQuerySegment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 60, (400, 2))
        idx = GridIndex(pts, 5.0)
        for _ in range(20):
            p0 = rng.uniform(0, 60, 2)
            p1 = rng.uniform(0, 60, 2)
            r = rng.uniform(0, 12)
            expected = np.sort(
                np.nonzero(segment_distances(pts, p0, p1) <= r)[0]
            )
            np.testing.assert_array_equal(np.sort(idx.query_segment(p0, p1, r)), expected)

    def test_degenerate_segment_equals_disk(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 20, (100, 2))
        idx = GridIndex(pts, 4.0)
        p = np.array([10.0, 10.0])
        np.testing.assert_array_equal(
            np.sort(idx.query_segment(p, p, 6.0)), np.sort(idx.query_disk(p, 6.0))
        )

    def test_negative_radius_rejected(self):
        idx = GridIndex(np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError, match="radius"):
            idx.query_segment([0, 0], [1, 1], -0.1)


class TestSegmentDistances:
    def test_point_on_segment_is_zero(self):
        d = segment_distances(np.array([[0.5, 0.0]]), np.zeros(2), np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(0.0)

    def test_perpendicular_distance(self):
        d = segment_distances(np.array([[0.5, 2.0]]), np.zeros(2), np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(2.0)

    def test_beyond_endpoint_uses_endpoint(self):
        d = segment_distances(np.array([[4.0, 3.0]]), np.zeros(2), np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(np.hypot(3.0, 3.0))

    def test_zero_length_segment(self):
        d = segment_distances(np.array([[3.0, 4.0]]), np.zeros(2), np.zeros(2))
        assert d[0] == pytest.approx(5.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_distance_bounds(self, seed):
        """Segment distance is between the perpendicular-line distance and
        the smaller endpoint distance."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, (20, 2))
        p0, p1 = rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)
        d = segment_distances(pts, p0, p1)
        d0 = np.sqrt(np.sum((pts - p0) ** 2, axis=1))
        d1 = np.sqrt(np.sum((pts - p1) ** 2, axis=1))
        assert (d <= np.minimum(d0, d1) + 1e-9).all()
        assert (d >= 0).all()


class TestRadixCellSort:
    """Grids of at most 2**16 cells sort their cell ids as uint16 (a radix
    sort); a stable sort's permutation is unique, so ``_order`` must equal
    the stable sort of the ids as intp."""

    @staticmethod
    def _intp_order(positions, cell):
        origin = positions.min(axis=0)
        ny = int((positions[:, 1].max() - origin[1]) // cell) + 1
        cx = ((positions[:, 0] - origin[0]) // cell).astype(np.intp)
        cy = ((positions[:, 1] - origin[1]) // cell).astype(np.intp)
        return np.argsort(cx * ny + cy, kind="stable")

    @pytest.mark.parametrize(
        "shape", [(256, 256), (65537, 1), (1, 65536), (3, 5)], ids=["65536", "65537", "column", "small"]
    )
    def test_order_equals_the_intp_stable_sort(self, shape):
        rng = np.random.default_rng(sum(shape))
        nx, ny = shape
        # corners pin the grid at exactly nx x ny unit cells; many points
        # share a cell, so the stable tie order matters
        corners = np.array([[0.0, 0.0], [nx - 0.5, ny - 0.5]])
        pts = rng.uniform(0.0, 1.0, size=(3000, 2)) * [nx - 0.5, ny - 0.5]
        positions = np.vstack([corners, pts, np.floor(pts[:500])])
        idx = GridIndex(positions, 1.0)
        assert idx._shape == shape
        np.testing.assert_array_equal(idx._order, self._intp_order(positions, 1.0))

    def test_empty_and_one_point(self):
        assert GridIndex(np.zeros((0, 2)), 1.0)._order.size == 0
        idx = GridIndex(np.array([[3.0, 4.0]]), 1.0)
        assert idx._order.tolist() == [0] and idx._order.dtype == np.intp

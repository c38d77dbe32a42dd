"""Neighbor tables, mutual visibility (the R_s <= R_c/2 guarantee), knowledge cost."""

import numpy as np
import pytest

from repro.network.deployment import uniform_deployment
from repro.network.messages import DataSizes
from repro.network.radio import RadioModel
from repro.network.topology import NeighborTables, knowledge_exchange_cost

RADIO = RadioModel(comm_radius=30.0)


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(21)
    dep = uniform_deployment(600, 100, 100, rng=rng)
    return dep, NeighborTables(dep.positions, RADIO)


class TestNeighborTables:
    def test_neighbors_within_radius(self, tables):
        dep, nt = tables
        for nid in (0, 100, 599):
            neigh = nt.neighbors(nid)
            d = np.linalg.norm(dep.positions[neigh] - dep.positions[nid], axis=1)
            assert (d <= RADIO.comm_radius + 1e-9).all()

    def test_excludes_self(self, tables):
        _, nt = tables
        assert 10 not in nt.neighbors(10)

    def test_symmetry(self, tables):
        _, nt = tables
        for a in (3, 50, 200):
            for b in nt.neighbors(a)[:5]:
                assert a in nt.neighbors(int(b))
                assert nt.are_neighbors(a, int(b))
                assert nt.are_neighbors(int(b), a)

    def test_not_own_neighbor(self, tables):
        _, nt = tables
        assert not nt.are_neighbors(5, 5)

    def test_degree(self, tables):
        _, nt = tables
        assert nt.degree(0) == nt.neighbors(0).shape[0]

    def test_cached_result_stable(self, tables):
        _, nt = tables
        a = nt.neighbors(42)
        b = nt.neighbors(42)
        assert a is b  # cached
        with pytest.raises(ValueError):
            a[0] = 0  # and read-only

    def test_neighbor_positions_shape(self, tables):
        dep, nt = tables
        pos = nt.neighbor_positions(7)
        assert pos.shape == (nt.degree(7), 2)

    def test_out_of_range_id(self, tables):
        _, nt = tables
        with pytest.raises(ValueError):
            nt.neighbors(100000)


class TestWarm:
    def test_warm_degrees_matches_list_lengths(self, tables):
        dep, nt = tables
        cold = NeighborTables(dep.positions, RADIO)
        ids = list(range(0, 600, 7))
        cold.warm_degrees(ids)
        assert not cold._neighborhood._neighbors  # no lists materialized
        for nid in ids:
            assert cold.degree(nid) == nt.neighbors(nid).shape[0], nid

    def test_warm_degrees_without_scipy(self, tables, monkeypatch):
        """Degree counting is numpy-only: it works with scipy unimportable."""
        import sys

        monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        dep, nt = tables
        cold = NeighborTables(dep.positions, RADIO)
        ids = [4, 99, 321]
        cold.warm_degrees(ids)
        for nid in ids:
            assert cold.degree(nid) == nt.neighbors(nid).shape[0], nid

    def test_warm_rejects_out_of_range(self, tables):
        dep, nt = tables
        with pytest.raises(ValueError):
            NeighborTables(dep.positions, RADIO).warm_degrees([0, 600])
        with pytest.raises(ValueError):
            NeighborTables(dep.positions, RADIO).warm_degrees([-1])

    def test_empty_warm_is_noop(self, tables):
        dep, nt = tables
        cold = NeighborTables(dep.positions, RADIO)
        cold.warm_degrees([])
        cold.warm_degrees(np.zeros(0, dtype=np.intp))
        assert not cold._neighborhood._neighbors
        assert (cold._neighborhood._degree < 0).all()


class TestMutualVisibility:
    def test_estimation_area_members_see_each_other(self, tables):
        """Key geometric fact behind the overhearing-based aggregation:
        with R_s <= R_c / 2, every pair of nodes inside one estimation area
        (a disk of radius R_s) is within one hop of each other."""
        dep, nt = tables
        rng = np.random.default_rng(0)
        for _ in range(15):
            center = rng.uniform(20, 80, 2)
            ids = dep.index.query_disk(center, 10.0)  # R_s = 10 <= 30 / 2
            assert nt.mutual_visibility(ids)

    def test_detects_invisible_pair(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        nt = NeighborTables(pts, RADIO)
        assert not nt.mutual_visibility(np.array([0, 1]))

    def test_singleton_and_empty_trivially_visible(self, tables):
        _, nt = tables
        assert nt.mutual_visibility(np.array([3]))
        assert nt.mutual_visibility(np.array([], dtype=int))


class TestKnowledgeExchange:
    def test_cost_formula(self):
        sizes = DataSizes()
        b, m = knowledge_exchange_cost(100, sizes)
        assert m == 100
        assert b == 100 * 3 * sizes.weight

    def test_header_included(self):
        sizes = DataSizes(header=8)
        b, _ = knowledge_exchange_cost(10, sizes)
        assert b == 10 * (8 + 12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            knowledge_exchange_cost(-1, DataSizes())

    def test_amortized_cost_is_small(self):
        """§V-D: shared once per day, the per-iteration amortized overhead is
        negligible next to tracking traffic (5 s iterations -> 17280/day)."""
        sizes = DataSizes()
        total_bytes, _ = knowledge_exchange_cost(8000, sizes)
        per_iteration = total_bytes / (24 * 3600 / 5)
        assert per_iteration < 10  # bytes per iteration, network-wide

    def test_degree_bounds_counts_only_open_ids(self, tables):
        dep, nt = tables
        cold = NeighborTables(dep.positions, RADIO)
        ids = np.arange(0, 600, 7)
        want = np.array([nt.neighbors(i).shape[0] for i in ids.tolist()])
        left_open = ids % 2 == 0
        lower, upper = cold.degree_bounds(ids, lambda lo, hi: left_open)
        assert (lower <= want).all() and (want <= upper).all()
        np.testing.assert_array_equal(lower[left_open], want[left_open])
        np.testing.assert_array_equal(upper[left_open], want[left_open])
        degree = cold._neighborhood._degree
        assert (degree[ids[left_open]] == want[left_open]).all()
        assert (degree[ids[~left_open]] == -1).all()
        assert not cold._neighborhood._neighbors  # no lists materialized

    def test_degree_bounds_rejects_out_of_range_and_passes_empty(self, tables):
        dep, nt = tables
        cold = NeighborTables(dep.positions, RADIO)
        with pytest.raises(ValueError):
            cold.degree_bounds([0, 600], lambda lo, hi: lo < hi)
        lower, upper = cold.degree_bounds([], lambda lo, hi: lo < hi)
        assert lower.shape == upper.shape == (0,)
        assert (cold._neighborhood._degree < 0).all()

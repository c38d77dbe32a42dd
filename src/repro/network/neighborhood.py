"""Shared per-deployment neighborhood cache: one grid index, one neighbor table.

Before this module the comm-radius :class:`~repro.network.spatial.GridIndex`
was built twice per scenario — once by :class:`~repro.network.medium.Medium`
for broadcast fan-out and once by
:class:`~repro.network.topology.NeighborTables` for the CDPF-NE knowledge
prerequisite — and every broadcast re-ran a disk query whose answer never
changes on a static deployment.  :class:`NeighborhoodCache` owns both
artifacts exactly once:

* the comm-radius grid index, built lazily on first query;
* per-node sorted one-hop neighbor lists (excluding the node itself),
  computed on first access and cached read-only;
* per-node degrees, counted in batches on a fine grid without building
  the lists (:meth:`NeighborhoodCache.warm_degrees`), or bounded from the
  same grid's prefix sums and counted only where the bounds leave a
  caller's decision open (:meth:`NeighborhoodCache.degree_bounds`: CDPF's
  creation rate limit, which needs only the side of its draw a threshold
  falls on).  Only exact degrees enter the cache.

The cache is *geometric only*: availability (sleep/crash), partitions and
link-loss state live in the medium and are applied on top of the cached
neighbor lists at delivery time.  The cache therefore only invalidates on
**mobility** (positions replaced), while the medium's availability-filtered
overlay additionally invalidates on fault mutations via
``Medium._rebuild_available``.

``epoch`` increments on every invalidation so consumers holding derived
overlays (the medium's offered-receiver cache) can cheaply detect staleness.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .spatial import GridIndex

__all__ = ["NeighborhoodCache"]


class NeighborhoodCache:
    """Lazily built, shared neighborhood structures over one set of positions.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.  Not copied; treat as immutable — call
        :meth:`rebind` to move nodes.
    radius:
        The communication radius; both the grid cell size and the neighbor
        cut-off.
    """

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.positions = np.asarray(positions, dtype=np.float64)
        self.radius = float(radius)
        self.epoch = 0
        self._index: GridIndex | None = None
        self._neighbors: dict[int, np.ndarray] = {}
        self._degree = np.full(self.positions.shape[0], -1, dtype=np.intp)
        self._count_index: GridIndex | None = None

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def index(self) -> GridIndex:
        """The comm-radius grid index, built once per (positions, radius)."""
        if self._index is None:
            self._index = GridIndex(self.positions, self.radius)
        return self._index

    def neighbors(self, node_id: int) -> np.ndarray:
        """Sorted ids within ``radius`` of the node, excluding the node itself.

        The membership test is :meth:`GridIndex.query_disk`'s, so the set is
        bit-identical to what a per-message disk query would return; only the
        order is canonical (sorted) instead of grid-cell order.
        """
        cached = self._neighbors.get(node_id)
        if cached is not None:
            return cached
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node id {node_id} out of range [0, {self.n_nodes})")
        hits = self.index.query_disk(self.positions[node_id], self.radius)
        result = np.sort(hits[hits != node_id])
        result.setflags(write=False)
        self._neighbors[node_id] = result
        self._degree[node_id] = result.size
        return result

    def degree(self, node_id: int) -> int:
        """Number of one-hop neighbors (list length, without building the list).

        Served from the degree cache when :meth:`warm_degrees` (or a prior
        list materialization) has filled it; falls back to
        ``len(self.neighbors(node_id))`` otherwise.
        """
        d = self._degree[node_id]
        if d >= 0:
            return int(d)
        return int(self.neighbors(node_id).shape[0])

    def warm_degrees(self, node_ids) -> np.ndarray:
        """The degrees of ``node_ids``, as an intp array in the given order,
        counted in one batch without materializing neighbor lists.

        Degrees drive the paper's node-density terms (likelihood ``lambda``,
        the creation limit) far more often than the lists themselves are
        read, and a count costs much less than a list.  The ids not yet in
        the degree cache are counted by :meth:`GridIndex.count_in_disks`
        over a fine counting grid (cell size ``radius / 12``), which counts
        the cells wholly inside a disk without visiting their points; its
        membership is :meth:`GridIndex.query_disk`'s own ``d2 <= r*r``, so
        each degree equals the length of the list :meth:`neighbors` would
        build.  Every returned degree stays cached for :meth:`degree`.
        """
        return self.degree_bounds(node_ids)[0]

    def degree_bounds(
        self,
        node_ids,
        undecided: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` bounds on the degrees of ``node_ids``, as intp
        arrays in the given order, exact wherever the caller needs them.

        Cached degrees are exact.  The others come from one
        :meth:`GridIndex.count_bounds` pass: ``undecided(lower, upper)``
        sees both bound arrays over ``node_ids`` (cached entries equal) and
        returns the mask of ids whose bounds leave its decision open; only
        those are counted exactly, and only those enter the degree cache.  A
        degree the bounds settled stays uncached, so a later exact call
        counts it as if this one had not happened.  Without ``undecided``
        every id is counted, as :meth:`warm_degrees` does.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        if ids.min() < 0 or ids.max() >= self.n_nodes:
            raise ValueError(f"node ids out of range [0, {self.n_nodes})")
        lower = self._degree[ids]
        cold = np.flatnonzero(lower < 0)
        if not cold.size:
            return lower, lower
        missing = np.unique(ids[cold])
        if self._count_index is None:
            self._count_index = GridIndex(self.positions, self.radius / 12.0)
        centers = self.positions[missing]
        # the disk always contains the node itself; degree excludes it
        if undecided is None:
            self._degree[missing] = self._count_index.count_in_disks(centers, self.radius) - 1
            lower = self._degree[ids]
            return lower, lower
        slot = np.searchsorted(missing, ids[cold])
        upper = lower.copy()
        counted = np.zeros(missing.size, dtype=bool)

        def open_disks(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            lower[cold] = lo[slot] - 1
            upper[cold] = hi[slot] - 1
            counted[slot[np.asarray(undecided(lower, upper), dtype=bool)[cold]]] = True
            return counted

        lo, hi = self._count_index.count_bounds(centers, self.radius, open_disks)
        lower[cold] = lo[slot] - 1
        upper[cold] = hi[slot] - 1
        self._degree[missing[counted]] = lo[counted] - 1
        return lower, upper

    def rebind(self, positions: np.ndarray) -> None:
        """Replace the positions (mobility): drops the index and every list."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"position shape {positions.shape} != {self.positions.shape}"
            )
        self.positions = positions
        self.invalidate()

    def invalidate(self) -> None:
        self._index = None
        self._count_index = None
        self._neighbors.clear()
        self._degree[:] = -1
        self.epoch += 1

"""Uniform-grid spatial index for fast range queries over static node positions.

The WSN simulator needs three query primitives, all in tight loops:

* ``query_disk(center, radius)`` — all nodes within ``radius`` of a point
  (used for sensing, one-hop broadcast delivery, and neighborhood discovery).
* ``query_segment(p0, p1, radius)`` — all nodes within ``radius`` of a line
  segment (used by the *instant detection* model, where a node detects the
  target whenever the trajectory intersects its sensing disk).
* ``count_in_disks(centers, radius)`` — how many nodes each of many disks
  holds, without listing them (one-hop degrees).

Deployments are static (paper §II-C1: node positions are known a priori), so
the index is built once per deployment and queried many times.  A uniform
grid with cell size equal to the query radius gives O(k) queries where k is
the number of candidates in the 3x3 cell neighborhood; at the paper's maximum
density (40 nodes / 100 m^2, 16 000 nodes on a 200 m field) a 10 m query
touches ~360 candidates, all filtered with one vectorized distance check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridIndex"]

#: grids with at most this many cells sort their cell ids as uint16
_RADIX_CELLS = 1 << 16


class GridIndex:
    """Immutable uniform-grid index over a set of 2-D points.

    Parameters
    ----------
    positions:
        ``(n, 2)`` float array of point coordinates.  The array is *not*
        copied; callers must not mutate it after index construction.
    cell_size:
        Grid cell edge length.  Choose close to the dominant query radius:
        cells much smaller than the radius inflate the number of cells
        scanned, cells much larger inflate the candidate set.

    Notes
    -----
    The index stores points in CSR-like form (``_order`` holds point indices
    grouped by cell, ``_start`` holds per-cell offsets), so a query gathers
    candidates with pure slicing — no per-point Python work.
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")

        self.positions = positions
        self.cell_size = float(cell_size)
        self._prefix: np.ndarray | None = None  # built by _column_prefix
        self._pair_cache: tuple[np.ndarray, ...] | None = None  # built by _pair_tables
        n = positions.shape[0]

        if n == 0:
            self._origin = np.zeros(2)
            self._shape = (1, 1)
            self._start = np.zeros(2, dtype=np.intp)
            self._order = np.zeros(0, dtype=np.intp)
            return

        self._origin = positions.min(axis=0)
        extent = positions.max(axis=0) - self._origin
        nx = int(extent[0] // cell_size) + 1
        ny = int(extent[1] // cell_size) + 1
        self._shape = (nx, ny)

        cx = ((positions[:, 0] - self._origin[0]) // cell_size).astype(np.intp)
        cy = ((positions[:, 1] - self._origin[1]) // cell_size).astype(np.intp)
        flat = cx * ny + cy

        # A stable sort's permutation is unique, so sorting the cell ids as
        # uint16 (numpy's stable sort is then a radix sort) gives the same
        # order as sorting them as intp, several times faster.
        keys = flat.astype(np.uint16) if nx * ny <= _RADIX_CELLS else flat
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(flat, minlength=nx * ny)
        start = np.zeros(nx * ny + 1, dtype=np.intp)
        np.cumsum(counts, out=start[1:])
        self._start = start
        self._order = order

    def __len__(self) -> int:
        return self.positions.shape[0]

    # ------------------------------------------------------------------
    # candidate gathering
    # ------------------------------------------------------------------

    def _cells_in_box(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Flat indices of grid cells overlapping the axis-aligned box [lo, hi]."""
        nx, ny = self._shape
        cx0 = max(int((lo[0] - self._origin[0]) // self.cell_size), 0)
        cy0 = max(int((lo[1] - self._origin[1]) // self.cell_size), 0)
        cx1 = min(int((hi[0] - self._origin[0]) // self.cell_size), nx - 1)
        cy1 = min(int((hi[1] - self._origin[1]) // self.cell_size), ny - 1)
        if cx1 < cx0 or cy1 < cy0:
            return np.zeros(0, dtype=np.intp)
        xs = np.arange(cx0, cx1 + 1, dtype=np.intp)
        ys = np.arange(cy0, cy1 + 1, dtype=np.intp)
        return (xs[:, None] * ny + ys[None, :]).ravel()

    def _candidates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        cells = self._cells_in_box(lo, hi)
        if cells.size == 0:
            return np.zeros(0, dtype=np.intp)
        chunks = [self._order[self._start[c] : self._start[c + 1]] for c in cells]
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query_disk(self, center, radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of ``center`` (inclusive)."""
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        center = np.asarray(center, dtype=np.float64)
        _require_finite(center)
        r = np.array([radius, radius])
        cand = self._candidates(center - r, center + r)
        if cand.size == 0:
            return cand
        d2 = np.sum((self.positions[cand] - center) ** 2, axis=1)
        return cand[d2 <= radius * radius]

    def query_disk_pairs(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(center, point)`` pair of ``query_disk`` over several centers.

        Returns ``(center_index, point_id)`` arrays, grouped by ascending
        center; within a center the points come in grid-cell order, the
        order :meth:`query_disk` returns them in (the cells of
        :meth:`_cells_in_box` x-major, then ``_order`` within a cell).  One
        vectorized pass gathers every center's candidates: the cell boxes
        are clipped in float before the integer cast, the (center, cell)
        pairs and their CSR point ranges are each expanded with one
        ``repeat``/``arange``, and the distance filter runs as ONE flat pass
        over all pairs.  The squared-distance expression matches
        :meth:`query_disk` exactly, so each center's members are bit-for-bit
        the same.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        centers = np.asarray(centers, dtype=np.float64)
        if centers.size == 0:
            # before atleast_2d: a 1-D empty array would become shape (1, 0)
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        centers = np.atleast_2d(centers)
        _require_finite(centers)
        owner, cells = self._box_cells(centers, radius)
        lens, at = self._cell_points(cells)
        _origin, _low, _high, xs, ys = self._pair_tables()
        ctr = np.repeat(owner, lens)
        dx = xs[at] - centers[:, 0][ctr]
        dy = ys[at] - centers[:, 1][ctr]
        inside = dx * dx + dy * dy <= radius * radius
        return ctr[inside], self._order[at[inside]]

    def box_candidates(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Sorted ids of every point in a grid cell that some center's query
        box ``[c - radius, c + radius]`` overlaps.

        A superset of :meth:`query_disk_many`'s union with no distance test:
        the same cell boxes, each distinct cell gathered once.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
        _require_finite(centers)
        _owner, cells = self._box_cells(centers, radius)
        ids = self._order[self._cell_points(np.unique(cells))[1]]
        ids.sort()
        return ids

    def _box_cells(self, centers: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(center, cell)`` pair of the centers' query boxes, as
        :meth:`_cells_in_box` computes each box: grouped by ascending center,
        x-major within a center.  Each box is clipped in float before the
        integer cast, which keeps it exact for far off-field centers, and the
        pairs are expanded with one ``repeat``/``arange``."""
        origin, low, high, _xs, _ys = self._pair_tables()
        box = (np.concatenate((centers - radius, centers + radius), axis=1) - origin)
        box = np.minimum(np.maximum(box // self.cell_size, low), high).astype(np.intp)
        size = np.maximum(box[:, 2:] - box[:, :2] + 1, 0)  # cells per axis
        n_cells = size[:, 0] * size[:, 1]
        owner = np.repeat(np.arange(centers.shape[0]), n_cells)
        k = np.arange(owner.size) - np.repeat(np.cumsum(n_cells) - n_cells, n_cells)
        ny = self._shape[1]
        x, y = np.divmod(k, size[owner, 1])
        return owner, (box[:, 0] * ny + box[:, 1])[owner] + x * ny + y

    def _cell_points(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's point count, and the positions in ``_order`` of all
        their points, cell after cell: the CSR ranges expanded in one gather."""
        starts = self._start[cells]
        lens = self._start[cells + 1] - starts
        at = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return lens, at

    def query_disk_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Union of ``query_disk`` over several centers, deduplicated and sorted:
        the distinct points of :meth:`query_disk_pairs`."""
        return np.unique(self.query_disk_pairs(centers, radius)[1])

    def count_in_disks(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per center, the number of points :meth:`query_disk` would return.

        Exact — the same ``d2 <= r*r`` membership — without testing every
        candidate: in each grid column crossing a disk, the cells lying
        wholly inside it are counted from per-column prefix sums, the cells
        it only clips are tested point by point, and the rest are skipped.
        The whole-cell tests run against the disk shrunk (inside) or grown
        (outside) by ``1e-9 * radius`` and the cells grown by the same
        margin, which dwarfs every rounding error in the cell assignment
        and the distance expression, so only points the margins cannot
        settle reach the exact test.  Cost per center is the disk's
        boundary cells, so a cell size of a small fraction of ``radius``
        makes this fast.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
        _require_finite(centers)
        n = centers.shape[0]
        if n == 0 or self.positions.shape[0] == 0:
            return np.zeros(n, dtype=np.intp)
        h = self.cell_size
        nx, ny = self._shape
        ox, oy = self._origin
        eps = 1e-9 * radius
        r_in2, r_out2 = (radius - eps) ** 2, (radius + eps) ** 2
        # every (center, grid column) pair the disk crosses
        span = (centers[:, :1] - np.array([ox + radius + eps, ox - radius - eps])) // h
        span = np.minimum(np.maximum(span, 0), nx - 1).astype(np.intp)
        n_cols = span[:, 1] - span[:, 0] + 1
        first = np.cumsum(n_cols) - n_cols
        owner = np.repeat(np.arange(n), n_cols)
        col = np.arange(owner.size) + (span[:, 0] - first)[owner]
        c = centers[owner]
        # signed offsets of the column's left and right edges (cells grown)
        xa = col * h + (ox - eps) - c[:, 0]
        xb = xa + (h + 2.0 * eps)
        da, db = np.abs(xa), np.abs(xb)
        far2 = np.maximum(da, db) ** 2
        near = np.where((xa <= 0.0) & (xb >= 0.0), 0.0, np.minimum(da, db))
        # rows wholly inside the disk (ja..jb) and rows it reaches (ka..kb);
        # a column the disk only clips gets an empty ja..jb
        half_in = np.sqrt(np.maximum(r_in2 - far2, 0.0))
        half_out = np.sqrt(np.maximum(r_out2 - near * near, 0.0))
        y = c[:, 1] - oy
        ja = np.minimum(np.maximum(np.ceil((y - half_in + eps) / h), 0), ny).astype(np.intp)
        # clipped in float before the cast, like every bound here: a far
        # off-field center's row would overflow the integer cast
        jb = np.minimum(np.maximum((y + half_in - eps) // h - 1, ja - 1), ny - 1).astype(np.intp)
        ka = np.minimum(np.maximum((y - half_out - eps) // h, 0), ny - 1).astype(np.intp)
        kb = np.minimum(np.maximum((y + half_out + eps) // h, 0), ny - 1).astype(np.intp)
        # interior counts from per-column prefix sums over the rows
        prefix = self._column_prefix()
        base = col * (ny + 1)
        counts = np.add.reduceat(prefix[base + jb + 1] - prefix[base + ja], first)
        # the clipped cells: rows ka..ja-1 and jb+1..kb, each a contiguous
        # run of cells, hence one contiguous range of the cell-ordered
        # coordinates
        cell = col * ny
        cells = np.concatenate((cell, cell))
        lo = np.concatenate((ka, np.maximum(jb + 1, ka))) + cells
        hi = np.concatenate((np.minimum(ja - 1, kb), kb)) + cells
        starts = self._start[lo]
        lens = self._start[np.maximum(hi + 1, lo)] - starts
        pair = np.repeat(np.arange(lens.size), lens)
        at = np.arange(pair.size) + (starts - np.cumsum(lens) + lens)[pair]
        ctr = np.concatenate((owner, owner))[pair]
        _origin, _low, _high, xs, ys = self._pair_tables()
        dx = xs[at] - centers[:, 0][ctr]
        dy = ys[at] - centers[:, 1][ctr]
        inside = dx * dx + dy * dy <= radius * radius
        return counts + np.bincount(ctr[inside], minlength=n)

    def _pair_tables(self) -> tuple[np.ndarray, ...]:
        """What :meth:`query_disk_pairs` and :meth:`count_in_disks` read
        besides the CSR arrays, built on first use: the origin and the clip
        bounds of a cell box held as ``(x0, y0, x1, y1)``, and the points' x
        and y coordinates in grid-cell order, as contiguous arrays a CSR
        range of ``_order`` indexes."""
        if self._pair_cache is None:
            nx, ny = self._shape
            ordered = self.positions[self._order]
            self._pair_cache = (
                np.tile(self._origin, 2),
                np.array([0, 0, -1, -1]),
                np.array([nx, ny, nx - 1, ny - 1]),
                np.ascontiguousarray(ordered[:, 0]),
                np.ascontiguousarray(ordered[:, 1]),
            )
        return self._pair_cache

    def _column_prefix(self) -> np.ndarray:
        """Per grid column, prefix sums of the cell counts over the rows:
        entry ``x * (ny + 1) + y`` counts the points in rows ``0..y-1``."""
        if self._prefix is None:
            nx, ny = self._shape
            prefix = np.zeros((nx, ny + 1), dtype=np.intp)
            np.cumsum(np.diff(self._start).reshape(nx, ny), axis=1, out=prefix[:, 1:])
            self._prefix = prefix.ravel()
        return self._prefix

    def query_segment(self, p0, p1, radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of the segment ``p0 -> p1``.

        This is the geometric core of the instant detection model: a sensing
        disk of radius ``r`` around a node intersects the trajectory segment
        iff the node lies within ``r`` of the segment.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        p0 = np.asarray(p0, dtype=np.float64)
        p1 = np.asarray(p1, dtype=np.float64)
        _require_finite(p0, "segment endpoint")
        _require_finite(p1, "segment endpoint")
        lo = np.minimum(p0, p1) - radius
        hi = np.maximum(p0, p1) + radius
        cand = self._candidates(lo, hi)
        if cand.size == 0:
            return cand
        d = segment_distances(self.positions[cand], p0, p1)
        return cand[d <= radius]


def _require_finite(points: np.ndarray, what: str = "center") -> None:
    """Reject a NaN or infinite query point, which the cell arithmetic would
    cast to a meaningless integer (the constructor rejects such positions)."""
    if not np.isfinite(points).all():
        rows = np.atleast_2d(points)
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise ValueError(f"query {what} {bad.tolist()} is not finite")


def segment_distances(points: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Vectorized Euclidean distance from each point to the segment p0->p1."""
    seg = p1 - p0
    seg_len2 = float(seg @ seg)
    rel = points - p0
    if seg_len2 == 0.0:
        return np.sqrt(np.sum(rel * rel, axis=1))
    t = np.clip((rel @ seg) / seg_len2, 0.0, 1.0)
    closest = p0 + t[:, None] * seg
    diff = points - closest
    return np.sqrt(np.sum(diff * diff, axis=1))

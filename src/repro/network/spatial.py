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

        order = np.argsort(flat, kind="stable")
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
        r = np.array([radius, radius])
        cand = self._candidates(center - r, center + r)
        if cand.size == 0:
            return cand
        d2 = np.sum((self.positions[cand] - center) ** 2, axis=1)
        return cand[d2 <= radius * radius]

    def query_disk_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Union of ``query_disk`` over several centers, deduplicated and sorted.

        Candidate cells are still walked per center (a handful of slices
        each), but the distance filter and the dedup run as ONE flat pass
        over all (center, candidate) pairs instead of B separate kernels.
        The squared-distance expression matches :meth:`query_disk` exactly,
        so the union is bit-for-bit the same membership.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        centers = np.asarray(centers, dtype=np.float64)
        if centers.size == 0:
            # before atleast_2d: a 1-D empty array would become shape (1, 0)
            # and crash the per-center candidate walk with a malformed center
            return np.zeros(0, dtype=np.intp)
        centers = np.atleast_2d(centers)
        r = np.array([radius, radius])
        cand_chunks: list[np.ndarray] = []
        ctr_chunks: list[np.ndarray] = []
        for i, c in enumerate(centers):
            cand = self._candidates(c - r, c + r)
            if cand.size:
                cand_chunks.append(cand)
                ctr_chunks.append(np.full(cand.size, i, dtype=np.intp))
        if not cand_chunks:
            return np.zeros(0, dtype=np.intp)
        flat = np.concatenate(cand_chunks)
        diff = self.positions[flat] - centers[np.concatenate(ctr_chunks)]
        d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
        return np.unique(flat[d2 <= radius * radius])

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
        jb = np.maximum((y + half_in - eps) // h - 1, ja - 1).astype(np.intp)
        jb = np.minimum(jb, ny - 1)
        ka = np.minimum(np.maximum((y - half_out - eps) // h, 0), ny - 1).astype(np.intp)
        kb = np.minimum(np.maximum((y + half_out + eps) // h, 0), ny - 1).astype(np.intp)
        # interior counts from per-column prefix sums over the rows
        prefix = self._column_prefix()
        base = col * (ny + 1)
        counts = np.add.reduceat(prefix[base + jb + 1] - prefix[base + ja], first)
        # the clipped cells: rows ka..ja-1 and jb+1..kb, each a contiguous
        # run of cells, hence of the cell-sorted point order
        cell = col * ny
        lo = np.concatenate([ka, np.maximum(jb + 1, ka)]) + np.tile(cell, 2)
        hi = np.concatenate([np.minimum(ja - 1, kb), kb]) + np.tile(cell, 2)
        starts = self._start[lo]
        lens = self._start[np.maximum(hi + 1, lo)] - starts
        pair = np.repeat(np.arange(lens.size), lens)
        pts = self._order[np.arange(pair.size) + (starts - np.cumsum(lens) + lens)[pair]]
        ctr = np.tile(owner, 2)[pair]
        diff = self.positions[pts] - centers[ctr]
        inside = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] <= radius * radius
        return counts + np.bincount(ctr[inside], minlength=n)

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
        lo = np.minimum(p0, p1) - radius
        hi = np.maximum(p0, p1) + radius
        cand = self._candidates(lo, hi)
        if cand.size == 0:
            return cand
        d = segment_distances(self.positions[cand], p0, p1)
        return cand[d <= radius]


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

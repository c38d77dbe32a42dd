"""``query_disk_pairs`` and ``query_disk_many`` against a per-center
reference, bit for bit.

The reference (``_per_center_pairs``) is the per-center walk that
``query_disk_pairs`` ran before its gather was vectorized, verbatim: one
``_candidates`` call per center, the chunks concatenated, and one flat
``d2 <= r*r`` filter.  Pairs and their order must match exactly: ascending
center, then the x-major cell order of ``_cells_in_box``, then the grid's
point order within a cell.  The draws cover uniform, clustered and
integer-lattice worlds, cell sizes from ``R / 4`` to ``2 R``, radius 0,
centers on cell edges, on lattice points and far off the field (±1e12 and
±1e300), duplicate centers, no centers, and an empty index.

``count_in_disks`` (the degree counts) must equal ``query_disk(c, r).size``
for every center, on the same worlds and centers with cell sizes from
``R / 24`` to ``3 R`` — it reads its clipped cells from the grid's
cell-ordered coordinates — and ``NeighborhoodCache.warm_degrees`` must
return, for ids drawn with repeats and partly pre-cached, the lengths of
the lists ``neighbors`` builds.  ``count_bounds`` must bracket that count,
both in the bounds it hands its ``undecided`` callback and in the ones it
returns, and count every disk the callback leaves open exactly;
``NeighborhoodCache.degree_bounds`` must do the same for degrees and cache
exactly the degrees it counted.

The medium's offered-receiver overlay gathers its candidates from the
senders' cell boxes (``GridIndex.box_candidates``, checked against one
``_cells_in_box`` walk per center), a superset of their disks; each
sender's offered set must be its ``query_disk`` cut to available nodes
other than itself, sorted, for clustered and scattered senders, with
sleeping and crashed nodes, and on lattices whose nodes sit on cell edges
and exactly R apart.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.network.medium import Medium
from repro.network.neighborhood import NeighborhoodCache
from repro.network.radio import RadioModel
from repro.network.spatial import GridIndex

R = 10.0


def _per_center_pairs(
    index: GridIndex, centers: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    centers = np.asarray(centers, dtype=np.float64)
    empty = np.zeros(0, dtype=np.intp)
    if centers.size == 0:
        # before atleast_2d: a 1-D empty array would become shape (1, 0)
        # and crash the per-center candidate walk with a malformed center
        return empty, empty
    centers = np.atleast_2d(centers)
    r = np.array([radius, radius])
    cand_chunks: list[np.ndarray] = []
    ctr_chunks: list[np.ndarray] = []
    for i, c in enumerate(centers):
        cand = index._candidates(c - r, c + r)
        if cand.size:
            cand_chunks.append(cand)
            ctr_chunks.append(np.full(cand.size, i, dtype=np.intp))
    if not cand_chunks:
        return empty, empty
    flat = np.concatenate(cand_chunks)
    ctr = np.concatenate(ctr_chunks)
    diff = index.positions[flat] - centers[ctr]
    inside = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] <= radius * radius
    return ctr[inside], flat[inside]


def _positions(draw, kind: str) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(0, 120))
    if kind == "uniform":
        side = draw(st.sampled_from([15.0, 60.0, 150.0]))
        return rng.uniform(0.0, side, size=(n, 2))
    if kind == "clustered":
        k = draw(st.integers(1, 4))
        centers = rng.uniform(0.0, 100.0, size=(k, 2))
        return centers[rng.integers(0, k, n)] + rng.normal(0.0, 6.0, size=(n, 2))
    # an integer lattice with holes: many points sit exactly R from a
    # lattice center and exactly on cell edges
    step = draw(st.sampled_from([1.0, 2.5, 5.0, 10.0]))
    side = draw(st.integers(1, 12))
    xy = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    keep = rng.random(xy.shape[0]) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    return rng.permutation(xy[keep]).astype(float) * step


def _centers(draw, index: GridIndex, positions: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    k = draw(st.integers(0, 14))
    lo = index._origin
    cell = index.cell_size
    pool = [rng.uniform(-30.0, 180.0, size=(k, 2))]
    if positions.shape[0]:
        # lattice points and deployed nodes themselves
        pool.append(positions[rng.integers(0, positions.shape[0], k)])
    # points on grid-cell edges and corners
    pool.append(lo + cell * rng.integers(-2, 15, size=(k, 2)).astype(float))
    # far off the field, on either side and axis (1e300 overflows an
    # integer cast that is not clipped first)
    pool.append(rng.choice([-1e300, -1e12, 1e12, 1e300, 0.0, 50.0], size=(k, 2)))
    cand = np.vstack(pool)
    centers = cand[rng.integers(0, cand.shape[0], k)] if k else np.zeros((0, 2))
    if k and draw(st.booleans()):
        # duplicate centers
        centers = np.vstack([centers, centers[rng.integers(0, k, 3)]])
    return centers


@st.composite
def _queries(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    positions = _positions(draw, kind)
    cell = R * draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))
    index = GridIndex(positions, cell)
    centers = _centers(draw, index, positions)
    radius = draw(st.sampled_from([0.0, R / 3, R, 2.5 * R]))
    return index, centers, radius


@given(_queries())
def test_pairs_match_per_center_walk(query):
    index, centers, radius = query
    got = index.query_disk_pairs(centers, radius)
    want = _per_center_pairs(index, centers, radius)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.intp
        np.testing.assert_array_equal(g, w)


@given(_queries())
def test_union_matches_per_center_walk(query):
    index, centers, radius = query
    got = index.query_disk_many(centers, radius)
    want = np.unique(_per_center_pairs(index, centers, radius)[1])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_empty_index_and_no_centers():
    empty = GridIndex(np.zeros((0, 2)), R)
    for centers in (np.zeros((0, 2)), np.zeros(0), np.array([[0.0, 0.0], [1e12, -1e12]])):
        for index in (empty, GridIndex(np.ones((3, 2)), R)):
            got = index.query_disk_pairs(centers, R)
            want = _per_center_pairs(index, centers, R)
            for g, w in zip(got, want):
                assert g.dtype == np.intp
                np.testing.assert_array_equal(g, w)


@st.composite
def _count_queries(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    positions = _positions(draw, kind)
    cell = R * draw(st.sampled_from([1 / 24, 1 / 12, 1 / 7, 0.25, 0.5, 1.0, 3.0]))
    index = GridIndex(positions, cell)
    centers = _centers(draw, index, positions)
    radius = draw(st.sampled_from([0.0, R / 3, R, 2.5 * R]))
    return index, centers, radius


@given(_count_queries())
def test_counts_match_query_disk(query):
    index, centers, radius = query
    got = index.count_in_disks(centers, radius)
    want = [index.query_disk(c, radius).size for c in centers.reshape(-1, 2)]
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


@st.composite
def _bound_queries(draw):
    index, centers, radius = draw(_count_queries())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return index, centers, radius, rng.random(centers.reshape(-1, 2).shape[0]) < share


@given(_bound_queries())
def test_count_bounds_bracket_and_count_open_disks_exactly(query):
    index, centers, radius, left_open = query
    seen = []

    def undecided(lower, upper):
        seen.append((lower.copy(), upper.copy()))
        return left_open

    lower, upper = index.count_bounds(centers, radius, undecided)
    exact = index.count_in_disks(centers, radius)
    want = np.array([index.query_disk(c, radius).size for c in centers.reshape(-1, 2)],
                    dtype=np.intp)
    assert lower.dtype == upper.dtype == np.intp
    np.testing.assert_array_equal(exact, want)
    assert (lower <= exact).all() and (exact <= upper).all()
    np.testing.assert_array_equal(lower[left_open], want[left_open])
    np.testing.assert_array_equal(upper[left_open], want[left_open])
    assert len(seen) <= 1
    for seen_lower, seen_upper in seen:
        # the callback decides on bounds that already bracket the count
        assert (seen_lower <= want).all() and (want <= seen_upper).all()
        np.testing.assert_array_equal(lower[~left_open], seen_lower[~left_open])
        np.testing.assert_array_equal(upper[~left_open], seen_upper[~left_open])


@st.composite
def _degree_queries(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    positions = _positions(draw, kind)
    if positions.shape[0] == 0:
        positions = np.zeros((1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = positions.shape[0]
    warm = rng.integers(0, n, draw(st.integers(0, 8)))  # counted first
    listed = rng.integers(0, n, draw(st.integers(0, 4)))  # lists built first
    ids = rng.integers(0, n, draw(st.integers(0, 30)))  # with repeats
    return positions, warm, listed, ids


@given(_degree_queries())
def test_warm_degrees_return_neighbor_list_lengths(query):
    positions, warm, listed, ids = query
    cache = NeighborhoodCache(positions, R)
    cache.warm_degrees(warm)
    for i in listed.tolist():
        cache.neighbors(i)
    got = cache.warm_degrees(ids)
    fresh = NeighborhoodCache(positions, R)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, [fresh.neighbors(i).size for i in ids.tolist()])
    np.testing.assert_array_equal(got, [cache.degree(i) for i in ids.tolist()])


@given(_degree_queries(), st.integers(0, 2**16), st.sampled_from([0.0, 0.3, 1.0]))
def test_degree_bounds_count_and_cache_only_open_ids(query, seed, share):
    positions, warm, listed, ids = query
    cache = NeighborhoodCache(positions, R)
    cache.warm_degrees(warm)
    for i in listed.tolist():
        cache.neighbors(i)
    was_cached = cache._degree >= 0
    left_open = np.random.default_rng(seed).random(ids.size) < share
    lower, upper = cache.degree_bounds(ids, lambda lo, hi: left_open)
    fresh = NeighborhoodCache(positions, R)
    want = np.array([fresh.neighbors(i).size for i in ids.tolist()], dtype=np.intp)
    assert lower.dtype == upper.dtype == np.intp
    assert (lower <= want).all() and (want <= upper).all()
    exact = left_open | was_cached[ids]
    np.testing.assert_array_equal(lower[exact], want[exact])
    np.testing.assert_array_equal(upper[exact], want[exact])
    counted = was_cached.copy()
    counted[ids[left_open]] = True
    np.testing.assert_array_equal(cache._degree >= 0, counted)
    np.testing.assert_array_equal(cache._degree[ids[exact]], want[exact])


def _box_candidates_reference(index: GridIndex, centers: np.ndarray, radius: float) -> np.ndarray:
    """Every point of every center's ``_cells_in_box`` cells, once, sorted."""
    r = np.array([radius, radius])
    cells = [index._cells_in_box(c - r, c + r) for c in np.asarray(centers).reshape(-1, 2)]
    cells = np.unique(np.concatenate(cells)) if cells else np.zeros(0, dtype=np.intp)
    chunks = [index._order[index._start[c] : index._start[c + 1]] for c in cells]
    return np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=np.intp)


@given(_queries())
def test_box_candidates_match_per_center_cells(query):
    index, centers, radius = query
    got = index.box_candidates(centers, radius)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, _box_candidates_reference(index, centers, radius))


@st.composite
def _overlays(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    positions = _positions(draw, kind)
    n = positions.shape[0]
    medium = Medium(positions, RadioModel(comm_radius=R))
    if n == 0:
        return medium, []
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    off = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    asleep = rng.random(n) < 0.5
    medium.set_asleep(np.flatnonzero(off & asleep))
    medium.fail_nodes(np.flatnonzero(off & ~asleep))
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        # clustered: every sender within 2 R of one node
        hub = positions[rng.integers(0, n)]
        pool = medium._index.query_disk(hub, 2.0 * R)
    else:
        pool = np.arange(n)
    senders = rng.choice(pool, k).tolist()
    # a second round: some senders cached, some new
    again = rng.choice(np.arange(n), draw(st.integers(0, 6))).tolist()
    return medium, [senders, senders[: k // 2] + again]


def _offered_reference(medium: Medium, sender: int) -> np.ndarray:
    ids = medium._index.query_disk(medium.positions[sender], medium.radio.comm_radius)
    return np.sort(ids[medium._available[ids] & (ids != sender)])


@given(_overlays())
def test_offered_overlay_is_query_disk_of_available_nodes(overlay):
    medium, rounds = overlay
    for senders in rounds:
        medium._offered_misses(senders)
        for s in senders:
            got = medium._offered[s]
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, _offered_reference(medium, s))

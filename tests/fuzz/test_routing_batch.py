"""``greedy_paths`` against a per-source reference, bit for bit.

The reference (``_scalar_reference``) is the scalar per-hop walk that
``greedy_path`` ran before routing was batched, verbatim: one ``query_disk``
per relay, ``np.isin`` exclusion, ``np.argmin`` of the plain squared
distance to the sink, and ``RadioModel.in_range`` for the final hop.  The
draws cover uniform, clustered and integer-lattice deployments (lattices make
distance ties to the sink common), grid cells from ``R_c / 12`` to
``2 R_c``, exclude sets (ids outside the index included), sources equal to
or in range of the sink, duplicate sources, voids, small ``max_hops``, and a
world whose nodes sit where the plain and the FMA-contracted squared
distance to the sink fall on opposite sides of ``R_c^2``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels.geometry import fma_many
from repro.network.radio import RadioModel
from repro.network.routing import RoutingError, greedy_path, greedy_paths
from repro.network.spatial import GridIndex

R_C = 30.0
RADIO = RadioModel(comm_radius=R_C)

#: offsets from a sink at the origin whose squared length straddles R_C^2:
#: FMA inside / plain outside, and plain inside / FMA outside
FMA_IN = (14.782030282762765, 26.105393709336862)
PLAIN_IN = (24.57368190065378, 17.208548975595846)


def _scalar_reference(
    index: GridIndex,
    source: int,
    sink: int,
    radio: RadioModel,
    *,
    max_hops: int = 64,
    exclude: set[int] | None = None,
) -> list[int]:
    positions = index.positions
    n = positions.shape[0]
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError(f"source/sink out of range [0, {n})")
    sink_pos = positions[sink]
    path = [source]
    current = source
    excluded = {int(i) for i in exclude} if exclude else None
    for _ in range(max_hops):
        if current == sink:
            return path
        cur_pos = positions[current]
        if radio.in_range(cur_pos, sink_pos):
            path.append(sink)
            return path
        neigh = index.query_disk(cur_pos, radio.comm_radius)
        neigh = neigh[neigh != current]
        if excluded and neigh.size:
            neigh = neigh[~np.isin(neigh, list(excluded))]
        if neigh.size == 0:
            raise RoutingError(f"node {current} has no neighbors; cannot reach sink {sink}")
        d2 = np.sum((positions[neigh] - sink_pos) ** 2, axis=1)
        best = int(neigh[np.argmin(d2)])
        cur_d2 = float(np.sum((cur_pos - sink_pos) ** 2))
        if d2.min() >= cur_d2:
            raise RoutingError(
                f"greedy forwarding stuck at node {current} (local minimum toward sink {sink})"
            )
        path.append(best)
        current = best
    raise RoutingError(f"route {source}->{sink} exceeded max_hops={max_hops}")


def _reference_or_none(index, source, sink, radio, **kwargs):
    try:
        return _scalar_reference(index, source, sink, radio, **kwargs)
    except RoutingError:
        return None


def _positions(draw, kind: str) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 90))
    if kind == "uniform":
        side = draw(st.sampled_from([40.0, 90.0, 160.0]))
        return rng.uniform(0.0, side, size=(n, 2))
    if kind == "clustered":
        k = draw(st.integers(1, 4))
        centers = rng.uniform(0.0, 150.0, size=(k, 2))
        return centers[rng.integers(0, k, n)] + rng.normal(0.0, 12.0, size=(n, 2))
    if kind == "lattice":
        # an integer lattice with holes and the sink at its centre (index
        # 0): mirror-image nodes tie in distance to the sink, and many pairs
        # sit exactly R_C apart
        step = draw(st.sampled_from([5.0, 6.0, 10.0, 15.0]))
        half = draw(st.integers(1, 6))
        xy = np.stack(np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1)), -1)
        xy = xy.reshape(-1, 2)[rng.random((2 * half + 1) ** 2) < draw(st.sampled_from([0.5, 0.8]))]
        xy = xy[np.any(xy != 0, axis=1)]
        return np.vstack([[0, 0], rng.permutation(xy)]).astype(float) * step
    # straddle: the sink at the origin, two nodes on the R_C circle where the
    # plain and FMA squared distances disagree, and a scatter around them
    rest = rng.uniform(-60.0, 60.0, size=(n, 2))
    return np.vstack([[0.0, 0.0], FMA_IN, PLAIN_IN, rest])


@st.composite
def _worlds(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice", "straddle"]))
    positions = _positions(draw, kind)
    n = positions.shape[0]
    cell = R_C * draw(st.sampled_from([1 / 12, 0.25, 0.5, 1.0, 1.5, 2.0]))
    sink = 0 if kind in ("lattice", "straddle") else draw(st.integers(0, n - 1))
    ids = st.integers(0, n - 1)
    sources = draw(st.lists(ids, min_size=1, max_size=12))
    if kind == "lattice":
        # the nodes on the sink's axes and diagonals see mirror-image ties
        rel = np.abs(positions - positions[sink])
        sources += np.flatnonzero((rel.min(axis=1) == 0) | (rel[:, 0] == rel[:, 1])).tolist()
    if kind == "straddle":
        sources += [1, 2]
    if draw(st.booleans()):
        sources.append(sink)
    if draw(st.booleans()):
        sources += sources[: draw(st.integers(1, 3))]  # duplicates
    exclude = None
    if draw(st.booleans()):
        exclude = draw(st.sets(ids | st.sampled_from([-1, n, n + 7]), max_size=max(1, n // 3)))
    max_hops = draw(st.sampled_from([0, 1, 2, 3, 64]))
    return SimpleNamespace(
        index=GridIndex(positions, cell), sources=sources, sink=sink,
        exclude=exclude, max_hops=max_hops,
    )


@given(_worlds())
def test_greedy_paths_match_per_source_reference(world):
    kwargs = {"max_hops": world.max_hops, "exclude": world.exclude}
    got = greedy_paths(world.index, world.sources, world.sink, RADIO, **kwargs)
    want = [
        _reference_or_none(world.index, s, world.sink, RADIO, **kwargs) for s in world.sources
    ]
    assert got == want
    routed = [p for p in got if p is not None]
    assert len({id(p) for p in routed}) == len(routed)  # a fresh list per source


@given(_worlds())
def test_greedy_path_is_the_one_source_call(world):
    kwargs = {"max_hops": world.max_hops, "exclude": world.exclude}
    for s in world.sources[:3]:
        want = _reference_or_none(world.index, s, world.sink, RADIO, **kwargs)
        if want is None:
            with pytest.raises(RoutingError):
                greedy_path(world.index, s, world.sink, RADIO, **kwargs)
        else:
            assert greedy_path(world.index, s, world.sink, RADIO, **kwargs) == want


def test_straddling_offsets_straddle():
    """The straddle world's premise: the two squared-length forms disagree."""
    for (dx, dy), fma_inside in ((FMA_IN, True), (PLAIN_IN, False)):
        d = np.array([[dx, dy]])
        plain = float(d[0, 0] * d[0, 0] + d[0, 1] * d[0, 1])
        fma = float(fma_many(d[:, 1], d[:, 1], d[:, 0] * d[:, 0])[0])
        assert (fma <= R_C**2 < plain) if fma_inside else (plain <= R_C**2 < fma)
        assert RADIO.in_range(d[0], np.zeros(2)) is fma_inside
        assert RADIO.in_range_many(d, np.zeros(2)).tolist() == [fma_inside]


def test_winner_outside_own_cells_is_resolved_alone():
    """A node's disk test can pass, within rounding of R_C, for a point in a
    grid cell just past the node's own query box, which ``query_disk`` never
    gathers.  Routed together with a node whose box reaches that cell, the
    point must still not become the first node's next hop."""
    c0 = 1.0830514464152703  # fl(c0 + R_C) < q0, yet fl(q0 - c0) == R_C
    q0 = 31.083051446415272
    positions = np.array([[0.0, 0.0], [c0, 0.0], [20.0, 0.0], [q0, 0.0], [q0 + 25.0, 0.0]])
    index = GridIndex(positions, q0)  # q0 starts the second cell column
    assert 3 not in index.query_disk(positions[1], R_C)
    assert float(np.sum((positions[3] - positions[1]) ** 2)) <= R_C**2
    got = greedy_paths(index, [1, 2], 4, RADIO)
    assert got == [_scalar_reference(index, s, 4, RADIO) for s in (1, 2)]
    assert got[0] == [1, 2, 3, 4]


def test_empty_and_invalid_sources():
    index = GridIndex(np.array([[0.0, 0.0], [10.0, 0.0]]), R_C)
    assert greedy_paths(index, [], 1, RADIO) == []
    with pytest.raises(ValueError):
        greedy_paths(index, [0, 2], 1, RADIO)
    with pytest.raises(ValueError):
        greedy_paths(index, [0], -1, RADIO)

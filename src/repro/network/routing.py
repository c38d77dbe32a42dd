"""Multi-hop routing for CPF's convergecast.

CPF needs every detecting node to deliver its measurement to the sink, and
Table I charges this as ``D_m * H_i`` — one message per hop.  Two strategies:

* :func:`greedy_paths` — greedy geographic forwarding: each relay hands the
  packet to its neighbor closest to the sink.  At the paper's densities
  (>= 5 nodes / 100 m^2, ~140+ neighbors per node) greedy forwarding never
  meets a void, so no perimeter-mode fallback is needed; a source whose
  route stalls gets None, so silent misrouting is impossible.  All of a
  round's sources are routed together, one hop level at a time: one grid
  gather over the box spanning the level's frontier, one masked scan of
  (frontier node, candidate) pairs, and a node's next hop is computed once
  however many routes pass through it.  :func:`greedy_path` is the
  one-source call, raising :class:`RoutingError` instead of returning None.
* :func:`hop_counts_bfs` — exact minimum hop counts from a source to all
  nodes, via frontier-expansion BFS over the grid index (no materialized
  adjacency: at density 40 the full adjacency would hold ~18 M edges).

Every route equals the scalar per-hop walk bit for bit: a relay's neighbors
are :meth:`~repro.network.spatial.GridIndex.query_disk`'s (plain
``d2 <= r*r``), the next hop is the first of them at the least plain squared
distance to the sink in ``query_disk``'s candidate order (lattice ties keep
their first minimum), and the final hop is taken as soon as
:meth:`RadioModel.in_range` (FMA-contracted ``d @ d``) reaches the sink.

The paper's observation that "any node can propagate the particle data to the
sink node in the center of the network within four hops at the most" is a
direct consequence of the 200 m field and the 30 m radius; the routing tests
verify it.
"""

from __future__ import annotations

import numpy as np

from .radio import RadioModel
from .spatial import GridIndex

__all__ = ["greedy_path", "greedy_paths", "hop_counts_bfs", "RoutingError", "path_hop_count"]

#: (frontier rows x candidates) elements per mask chunk: bounds a hop
#: level's temporaries (~0.5 MB per float64 array) whatever the frontier
_MASK_CHUNK = 1 << 16


class RoutingError(RuntimeError):
    """Raised when a route cannot be constructed (void, unreachable sink)."""


def greedy_path(
    index: GridIndex,
    source: int,
    sink: int,
    radio: RadioModel,
    *,
    max_hops: int = 64,
    exclude: set[int] | None = None,
) -> list[int]:
    """Greedy geographic route from ``source`` to ``sink`` (inclusive).

    Returns the node-id path ``[source, ..., sink]``.  Raises
    :class:`RoutingError` on a local minimum (no neighbor closer to the sink)
    or when ``max_hops`` is exceeded, and ``ValueError`` for an id outside
    the index.

    ``exclude`` removes nodes from *relay* selection (route repair around
    dead or blacklisted forwarders — the reliability layer's timeout signal);
    the source and a direct final hop to the sink are never excluded.
    """
    path = greedy_paths(index, [source], sink, radio, max_hops=max_hops, exclude=exclude)[0]
    if path is None:
        raise RoutingError(
            f"no greedy route {source}->{sink}: a void, a local minimum toward "
            f"the sink, or more than max_hops={max_hops} hops"
        )
    return path


def greedy_paths(
    index: GridIndex,
    sources,
    sink: int,
    radio: RadioModel,
    *,
    max_hops: int = 64,
    exclude: set[int] | None = None,
) -> list[list[int] | None]:
    """:func:`greedy_path` for each of ``sources``, in order; None where it
    would raise :class:`RoutingError`.

    Raises ``ValueError`` when the sink or any source is outside the index.
    Every path is a fresh list, duplicate sources included.
    """
    positions = index.positions
    n = positions.shape[0]
    sources = [int(s) for s in np.asarray(sources, dtype=np.intp).ravel()]
    if not 0 <= sink < n or not all(0 <= s < n for s in sources):
        raise ValueError(f"source/sink out of range [0, {n})")
    blocked = None
    if exclude:
        blocked = np.zeros(n, dtype=bool)
        blocked[[i for i in map(int, exclude) if 0 <= i < n]] = True
    sink_pos = positions[sink]
    paths = [[s] for s in sources]
    out: list[list[int] | None] = [None] * len(sources)
    next_hop: dict[int, int] = {}  # relay -> its greedy next hop, -1 if stalled
    active = list(range(len(sources)))
    for _ in range(max_hops):
        if not active:
            break
        current = np.array([paths[i][-1] for i in active], dtype=np.intp)
        at_sink = current == sink
        near = radio.in_range_many(positions[current], sink_pos)
        relays = np.unique(current[~at_sink & ~near]).tolist()
        todo = np.array([u for u in relays if u not in next_hop], dtype=np.intp)
        if todo.size:
            hops = _next_hops(index, todo, sink_pos, radio.comm_radius, blocked)
            next_hop.update(zip(todo.tolist(), hops.tolist()))
        still = []
        for i, cur, done, final in zip(active, current.tolist(), at_sink.tolist(), near.tolist()):
            if done:
                out[i] = paths[i]
            elif final:
                paths[i].append(sink)
                out[i] = paths[i]
            elif next_hop[cur] >= 0:
                paths[i].append(next_hop[cur])
                still.append(i)
        active = still
    return out


def _next_hops(
    index: GridIndex,
    nodes: np.ndarray,
    sink_pos: np.ndarray,
    radius: float,
    blocked: np.ndarray | None,
) -> np.ndarray:
    """Greedy next hop of each of ``nodes`` (distinct ids), -1 where none of
    its neighbors is strictly closer to the sink (a void or a local minimum).

    The candidates come from ONE gather over the box spanning every node's
    ``± radius`` box, in the gather's cell order — the order ``query_disk``
    returns them in — minus the ``blocked`` ones.  A node's next hop is the
    first candidate within its disk at the least squared distance to the
    sink.  A candidate no closer to the sink than the farthest node cannot
    be anyone's next hop and is dropped before the scan; the node itself
    never wins, as the winner must be strictly closer than the node.
    """
    positions = index.positions
    npos = positions[nodes]
    cur_d2 = np.sum((npos - sink_pos) ** 2, axis=1)
    r = np.array([radius, radius])
    cand = index._candidates(npos.min(axis=0) - r, npos.max(axis=0) + r)
    dsink = np.sum((positions[cand] - sink_pos) ** 2, axis=1)
    keep = dsink < cur_d2.max()
    if blocked is not None:
        keep &= ~blocked[cand]
    cand, dsink = cand[keep], dsink[keep]
    out = np.full(nodes.size, -1, dtype=np.intp)
    if cand.size == 0:
        return out
    cpos = positions[cand]
    r2 = radius * radius
    step = max(1, _MASK_CHUNK // cand.size)
    for a in range(0, nodes.size, step):
        p = npos[a : a + step]
        dx = np.subtract.outer(p[:, 0], cpos[:, 0])
        dx *= dx
        dy = np.subtract.outer(p[:, 1], cpos[:, 1])
        dy *= dy
        dx += dy
        score = np.where(dx <= r2, dsink, np.inf)
        j = score.argmin(axis=1)
        hit = score[np.arange(p.shape[0]), j] < cur_d2[a : a + step]
        out[a : a + step][hit] = cand[j[hit]]
    # The union box may hold a candidate that passes the disk test from a
    # node yet lies in a cell outside the node's own box (its distance within
    # rounding of the radius), which query_disk would never see.  Such a
    # winner is re-resolved from the node's own box alone (a lone node's
    # gather already is its own box).
    won = np.flatnonzero(out >= 0)
    if won.size and nodes.size > 1:
        cell = index.cell_size
        origin = index._origin
        w_cell = (positions[out[won]] - origin) // cell
        lo = (npos[won] - r - origin) // cell
        hi = (npos[won] + r - origin) // cell
        for i in won[((w_cell < lo) | (w_cell > hi)).any(axis=1)].tolist():
            out[i] = _next_hops(index, nodes[i : i + 1], sink_pos, radius, blocked)[0]
    return out


def path_hop_count(path: list[int]) -> int:
    """Number of radio transmissions a path costs (= len - 1)."""
    if len(path) < 1:
        raise ValueError("empty path")
    return len(path) - 1


def hop_counts_bfs(
    index: GridIndex,
    source: int,
    radio: RadioModel,
) -> np.ndarray:
    """Minimum hop count from ``source`` to every node (-1 if unreachable).

    Frontier-expansion BFS: each layer gathers the not-yet-visited nodes
    within the communication radius of any frontier node via grid queries.
    Work is proportional to the number of (node, candidate) pairs touched,
    and every node enters the frontier at most once.
    """
    positions = index.positions
    n = positions.shape[0]
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")
    hops = np.full(n, -1, dtype=np.int64)
    hops[source] = 0
    frontier = np.array([source], dtype=np.intp)
    level = 0
    while frontier.size:
        level += 1
        hits = index.query_disk_many(positions[frontier], radio.comm_radius)
        fresh = hits[hops[hits] < 0]
        if fresh.size == 0:
            break
        hops[fresh] = level
        frontier = fresh
    return hops

"""Neighbor tables and the local-knowledge prerequisite of CDPF-NE.

§V-A of the paper: "every sensor node knows all the detailed information
about its one-hop neighbors, especially their positions", refreshed at a low
frequency (once per day or less).  :class:`NeighborTables` materializes that
knowledge from the deployment, and :func:`knowledge_exchange_cost` charges
the (amortized, tiny) setup traffic so the ablation benches can show it is
negligible next to per-iteration tracking traffic.
"""

from __future__ import annotations

import numpy as np

from .messages import DataSizes
from .neighborhood import NeighborhoodCache
from .radio import RadioModel

__all__ = ["NeighborTables", "knowledge_exchange_cost"]


class NeighborTables:
    """Lazily materialized one-hop neighbor lists over a static deployment.

    At the paper's densities a node can have >1000 one-hop neighbors, so
    materializing all tables up front would cost tens of millions of entries
    while a tracking run only ever touches nodes near the trajectory.  Tables
    are therefore computed on first access and cached.

    The lists live in a :class:`~repro.network.neighborhood.NeighborhoodCache`;
    pass one in (``Scenario.make_neighbor_tables`` shares the medium's when
    believed == physical geometry) or a private cache is built.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radio: RadioModel,
        *,
        neighborhood: NeighborhoodCache | None = None,
    ) -> None:
        self.positions = np.asarray(positions, dtype=np.float64)
        self.radio = radio
        if neighborhood is not None and neighborhood.radius == float(radio.comm_radius):
            self._neighborhood = neighborhood
        else:
            self._neighborhood = NeighborhoodCache(self.positions, radio.comm_radius)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def neighbors(self, node_id: int) -> np.ndarray:
        """Sorted ids of nodes within the communication radius (excluding self)."""
        return self._neighborhood.neighbors(node_id)

    def degree(self, node_id: int) -> int:
        return self._neighborhood.degree(node_id)

    def warm_degrees(self, node_ids) -> np.ndarray:
        """The nodes' degrees as one array, batch-filling only the degree
        cache (no list materialization)."""
        return self._neighborhood.warm_degrees(node_ids)

    def neighbor_positions(self, node_id: int) -> np.ndarray:
        """Positions of the node's neighbors — the NE prerequisite in data form."""
        return self.positions[self.neighbors(node_id)]

    def are_neighbors(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return self.radio.in_range(self.positions[a], self.positions[b])

    def mutual_visibility(self, node_ids: np.ndarray) -> bool:
        """Whether every pair in ``node_ids`` is within one hop of each other.

        This is the property the R_s <= R_c/2 assumption guarantees for nodes
        inside a single estimation area; tests assert it holds.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size <= 1:
            return True
        pos = self.positions[ids]
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        return bool((d2 <= self.radio.comm_radius**2).all())


def knowledge_exchange_cost(
    n_nodes: int,
    sizes: DataSizes,
    *,
    fields_per_node: int = 3,
) -> tuple[int, int]:
    """One round of local status sharing: every node broadcasts one beacon.

    Each beacon carries ``fields_per_node`` weight-sized fields (id, x, y by
    default).  Returns ``(total_bytes, total_messages)``.  Amortized over the
    sharing period (days), this is the "little communication overhead" of
    §V-D.
    """
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    per_msg = sizes.header + fields_per_node * sizes.weight
    return per_msg * n_nodes, n_nodes

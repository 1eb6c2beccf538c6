"""Circuit-switched mesh network connecting the CGRA's tiles.

Topology: one switch per grid tile, bidirectional links between 4-neighbour
switches, modelled as two directed links each carrying ``channels``
independent 64-bit values per configuration.  Because the network is
circuit-switched, a channel is owned by a single DFG edge for the entire
phase — capacity is a *configuration-time* resource, not a cycle-time one.
Each switch hop costs one cycle of pipeline latency (:data:`HOP_LATENCY`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Tuple

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]

#: pipeline latency of one switch-to-switch hop, cycles
HOP_LATENCY = 1


class MeshTables(NamedTuple):
    """A mesh indexed by integer coord id, for the placer and the router.

    ``coords[i]`` is the coord of id ``i``, in :meth:`MeshNetwork.coords`
    order, and ``ids[coord]`` its id.  ``distance[a][b]`` is the
    :meth:`MeshNetwork.manhattan` distance between ids ``a`` and ``b``.
    ``adjacency[a]`` is ``((nbr, (coords[a], coords[nbr])), ...)``: each
    neighbour's id and the directed link to it, in
    :meth:`MeshNetwork.neighbors` order.
    """

    coords: Tuple[Coord, ...]
    ids: Dict[Coord, int]
    distance: Tuple[List[int], ...]
    adjacency: Tuple[Tuple[Tuple[int, Link], ...], ...]


@dataclass
class MeshNetwork:
    """Directed-link view of a ``cols`` x ``rows`` circuit-switched mesh.

    Attributes:
        cols, rows: grid dimensions (x in [0, cols), y in [0, rows)).
        channels: independent values one directed link can carry per config.
    """

    cols: int
    rows: int
    channels: int = 4

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("mesh must be at least 1x1")
        if self.channels < 1:
            raise ValueError("links need at least one channel")

    def in_bounds(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.cols and 0 <= y < self.rows

    def coords(self) -> Iterator[Coord]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield (x, y)

    def neighbors(self, coord: Coord) -> List[Coord]:
        x, y = coord
        candidates = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        return [c for c in candidates if self.in_bounds(c)]

    @cached_property
    def tables(self) -> MeshTables:
        """The mesh's :class:`MeshTables`, built on first use.

        A mesh is never resized after construction.
        """
        coords = tuple(self.coords())
        ids = {coord: i for i, coord in enumerate(coords)}
        return MeshTables(
            coords,
            ids,
            tuple([self.manhattan(a, b) for b in coords] for a in coords),
            tuple(
                tuple((ids[nbr], (coord, nbr)) for nbr in self.neighbors(coord))
                for coord in coords
            ),
        )

    def manhattan(self, a: Coord, b: Coord) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

"""Router for DFG edges on the circuit-switched mesh.

Since the network is circuit-switched, each channel of a directed link is
owned by one *producer value* for the whole phase.  Fan-out therefore routes
as a multicast tree: a link already carrying a value may be reused by the
same value for free, but carrying a second value consumes another channel.
The router is a congestion-aware BFS (uniform link cost, first-found
shortest path avoiding exhausted links).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...cgra.network import Coord, Link, MeshNetwork


class RoutingError(RuntimeError):
    """Raised when an edge cannot be routed within channel capacity."""


@dataclass
class RouterState:
    """Tracks channel occupancy per directed link during routing.

    ``occupancy[link]`` is the set of producer values using that link; its
    size may not exceed ``mesh.channels``.
    """

    mesh: MeshNetwork
    occupancy: Dict[Link, Set[str]] = field(default_factory=dict)

    def claim_path(self, path: List[Link], producer: str) -> None:
        occupancy = self.occupancy
        for link in path:
            users = occupancy.get(link)
            if users is None:
                occupancy[link] = {producer}
            else:
                users.add(producer)

    def total_channels_used(self) -> int:
        return sum(len(users) for users in self.occupancy.values())


def route_value(
    state: RouterState,
    producer: str,
    src: Coord,
    dst: Coord,
) -> List[Link]:
    """Find a shortest path ``src`` -> ``dst`` respecting channel capacity.

    Links already carrying ``producer`` cost nothing extra (multicast), so
    BFS layers are ordered to prefer reuse.  Returns the link list (empty
    when ``src == dst``); raises :class:`RoutingError` when no path exists.
    """
    if src == dst:
        return []
    mesh = state.mesh
    occupancy = state.occupancy
    channels = mesh.channels
    tables = mesh.tables
    adjacency = tables.adjacency
    start, goal = tables.ids[src], tables.ids[dst]
    # 0-1 BFS over mesh ids: reused links cost 0, fresh channel claims
    # cost 1; a link with every channel taken by other values is
    # impassable.  A shortest path has fewer links than the mesh has
    # nodes, so no cost reached exceeds their count.
    nodes = len(adjacency)
    best: List[int] = [nodes + 1] * nodes
    parent: List[Optional[Link]] = [None] * nodes
    best[start] = 0
    queue: deque = deque([(0, start)])
    while queue:
        cost, node = queue.popleft()
        if cost > best[node]:
            continue
        if node == goal:
            break
        for nbr, link in adjacency[node]:
            users = occupancy.get(link)
            if users is None:
                step = 1  # every link has at least one channel
            elif producer in users:
                step = 0
            elif len(users) < channels:
                step = 1
            else:
                continue
            new_cost = cost + step
            if new_cost < best[nbr]:
                best[nbr] = new_cost
                parent[nbr] = link
                if step == 0:
                    queue.appendleft((new_cost, nbr))
                else:
                    queue.append((new_cost, nbr))
    if parent[goal] is None:
        raise RoutingError(
            f"no route for {producer!r} from {src} to {dst} "
            f"(channels={mesh.channels})"
        )
    path: List[Link] = []
    link = parent[goal]
    while link is not None:
        path.append(link)
        link = parent[tables.ids[link[0]]]
    path.reverse()
    state.claim_path(path, producer)
    return path

"""Spatial scheduler: place and route a DFG onto a CGRA fabric.

The paper's toolchain uses an ILP-based constraint scheduler [22]; we use a
greedy constructive placement refined by simulated annealing, followed by
congestion-aware routing and delay matching.  Optimality only shifts small
constant factors (a hop or two of pipeline latency); any valid mapping has
initiation interval 1 on the fully-pipelined fabric, which is what the
performance results depend on.

Entry point: :func:`schedule`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from ...cgra.fabric import Fabric, HwVectorPort
from ...cgra.network import Coord
from ..dfg.graph import Dfg, ValueRef
from .config import CgraConfig, EdgeKey, RoutedEdge
from .delay_match import DelayMatchError, compute_delays
from .routing import RouterState, RoutingError, route_value


class SchedulingError(RuntimeError):
    """The DFG cannot be mapped to the fabric (capacity or capability)."""


# ---------------------------------------------------------------------------
# Vector-port assignment
# ---------------------------------------------------------------------------

def map_ports(dfg: Dfg, fabric: Fabric) -> Dict[str, int]:
    """Assign each DFG port the narrowest sufficient hardware vector port.

    Widest DFG ports are assigned first so they get the scarce wide hardware
    ports; raises :class:`SchedulingError` when no port is wide enough or
    all candidates are taken.
    """
    port_map: Dict[str, int] = {}
    for kind, dfg_ports, hw_ports in (
        ("in", dfg.inputs, fabric.input_ports),
        ("out", dfg.outputs, fabric.output_ports),
    ):
        available = sorted(hw_ports, key=lambda p: (p.width, p.port_id))
        taken: set = set()
        for name in sorted(dfg_ports, key=lambda n: -dfg_ports[n].width):
            width = dfg_ports[name].width
            chosen: Optional[HwVectorPort] = None
            for hw_port in available:
                if hw_port.port_id in taken or hw_port.width < width:
                    continue
                chosen = hw_port
                break
            if chosen is None:
                raise SchedulingError(
                    f"no free {kind} vector port of width >= {width} "
                    f"for DFG port {name!r} on {fabric.name!r}"
                )
            taken.add(chosen.port_id)
            port_map[name] = chosen.port_id
    return port_map


# ---------------------------------------------------------------------------
# Dataflow edges
# ---------------------------------------------------------------------------

#: An edge end: an instruction's name, or the attach coord of a port lane.
End = Union[str, Coord]
Edge = Tuple[EdgeKey, End, End]


def _edges(dfg: Dfg, fabric: Fabric, port_map: Dict[str, int]) -> List[Edge]:
    """Every dataflow edge as ``(key, src, dst)``, in routing order.

    Instructions' operands come first, in topological order by slot, then
    the output ports' lanes.  An input lane's end is its attach coord, as
    is an output lane's; every other end is an instruction's name.  The
    list depends only on ``port_map``, so one serves every attempt.
    """
    in_attach = {
        name: fabric.find_port("in", port_map[name]).attach
        for name in dfg.inputs
    }

    def source(ref: ValueRef) -> End:
        attach = in_attach.get(ref.node)
        return ref.node if attach is None else attach[ref.lane % len(attach)]

    edges: List[Edge] = []
    for inst in dfg.topological_order():
        for slot, operand in enumerate(inst.operands):
            if isinstance(operand, ValueRef):
                key = (str(operand), inst.name, slot)
                edges.append((key, source(operand), inst.name))
    for port_name, port in dfg.outputs.items():
        attach = fabric.find_port("out", port_map[port_name]).attach
        for lane, ref in enumerate(port.sources):
            key = (str(ref), f"out:{port_name}", lane)
            edges.append((key, source(ref), attach[lane % len(attach)]))
    return edges


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def _greedy_placement(
    dfg: Dfg,
    fabric: Fabric,
    edges: List[Edge],
    rng: random.Random,
) -> Dict[str, Coord]:
    """Topological-order constructive placement minimising wirelength.

    Each free supporting coord is scored ``(richness, wire + pull,
    headroom, draw)`` and the first least score wins.  ``wire`` runs to
    the instruction's sources: input-lane pins and producers, which the
    topological order has placed already.  Every candidate gets its
    ``rng.random()`` draw, in candidate order, but only the least-rich
    ones are compared on the rest of the score, in one loop whose strict
    ``<`` keeps the first least.  Coords are mesh ids throughout (see
    :class:`~repro.cgra.network.MeshTables`).
    """
    tables = fabric.mesh.tables
    ids, coords, distance = tables.ids, tables.coords, tables.distance
    # An instruction source is its name, a port-lane source its coord's id.
    sources: Dict[str, List[Union[str, int]]] = {
        name: [] for name in dfg.instructions
    }
    feeds_output, has_consumers = set(), set()
    for _, src, dst in edges:
        if dst in sources:
            sources[dst].append(src if src in sources else ids[src])
            has_consumers.add(src)
        else:
            feeds_output.add(src)
    placed: Dict[str, int] = {}
    occupied = [False] * len(coords)
    bottom = fabric.mesh.rows - 1
    ids_supporting = fabric.ids_supporting
    # Prefer the least-capable FU that supports the op, so scarce
    # specialised units (sigmoid, divide) stay free for the ops that
    # actually need them.
    richness = fabric.fu_richness
    draw = rng.random

    for inst in dfg.topological_order():
        candidates = [
            at for at in ids_supporting.get(inst.op.name, ()) if not occupied[at]
        ]
        if not candidates:
            raise SchedulingError(
                f"no free FU for op {inst.op.name!r} "
                f"(instruction {inst.name!r}) on fabric {fabric.name!r}"
            )
        draws = [draw() for _ in candidates]
        least = min([richness[at] for at in candidates])
        rows = [distance[placed.get(src, src)] for src in sources[inst.name]]
        # Pull instructions that feed outputs toward the bottom edge.
        pulled = inst.name in feeds_output
        # Leave room below for downstream consumers.
        lifted = inst.name in has_consumers
        best, best_score = -1, None
        for at, at_draw in zip(candidates, draws):
            if richness[at] != least:
                continue
            wire = 0
            for row in rows:
                wire += row[at]
            y = coords[at][1]
            score = (
                wire + bottom - y if pulled else wire,
                y if lifted else 0,
                at_draw,
            )
            if best_score is None or score < best_score:
                best, best_score = at, score
        placed[inst.name] = best
        occupied[best] = True
    return {name: coords[at] for name, at in placed.items()}


def _anneal_tables(
    dfg: Dfg,
    fabric: Fabric,
    edges: List[Edge],
    placement: Dict[str, Coord],
) -> Tuple[List[Tuple[int, ...]], List[List[int]], List[List[int]], int, int]:
    """The annealer's tables, indexed like ``placement``'s names.

    Coords are mesh ids (see :class:`~repro.cgra.network.MeshTables`).
    Returns ``(choices, peer_of, pin_cost, cost, floor)``: ``choices[i]``
    are the ids supporting instruction ``i``'s op, ``peer_of[i]`` the
    indices of the instructions it shares an edge with, once per edge
    (either direction), and ``pin_cost[i][at]`` its wirelength to its
    port-lane pins when placed at id ``at`` (0 at an id not in
    ``choices[i]``).  ``cost`` is the total manhattan wirelength of every
    edge under ``placement``: the pin costs, each edge between
    instructions once, and the edges from an input lane straight to an
    output lane, whose length is fixed.  ``floor`` is a lower bound on
    that total for every legal placement: each edge between instructions
    is at least one hop long, since no two instructions share a PE (nor
    is an instruction its own operand), and each instruction's pin wires
    are at least its least ``pin_cost`` over its choices.
    """
    tables = fabric.mesh.tables
    ids, distance = tables.ids, tables.distance
    index = {name: i for i, name in enumerate(placement)}
    peer_of: List[List[int]] = [[] for _ in index]
    pins: List[List[int]] = [[] for _ in index]
    fixed = 0
    for _, src, dst in edges:
        if src in index and dst in index:
            peer_of[index[src]].append(index[dst])
            peer_of[index[dst]].append(index[src])
        elif dst in index:
            pins[index[dst]].append(ids[src])
        elif src in index:
            pins[index[src]].append(ids[dst])
        else:
            fixed += distance[ids[src]][ids[dst]]
    ids_supporting = fabric.ids_supporting
    choices = [
        ids_supporting[dfg.instructions[name].op.name] for name in index
    ]
    size = len(tables.coords)
    pin_cost = []
    for options, wires in zip(choices, pins):
        costs = [0] * size
        for pin in wires:
            row = distance[pin]
            for at in options:
                costs[at] += row[at]
        pin_cost.append(costs)
    position = [ids[coord] for coord in placement.values()]
    cost = fixed + sum(
        costs[at] for costs, at in zip(pin_cost, position)
    ) + sum(
        distance[at][position[peer]]
        for at, peers in zip(position, peer_of)
        for peer in peers
    ) // 2
    floor = sum(map(len, peer_of)) // 2 + sum(
        min([costs[at] for at in options])
        for costs, options in zip(pin_cost, choices)
    )
    return choices, peer_of, pin_cost, cost, floor


def _anneal_placement(
    dfg: Dfg,
    fabric: Fabric,
    edges: List[Edge],
    placement: Dict[str, Coord],
    rng: random.Random,
    iterations: int,
) -> Dict[str, Coord]:
    """Simulated-annealing refinement by pairwise swaps and moves.

    A move is scored by the wires it touches, after minus before: the
    moved instructions' ``pin_cost`` and the mesh's distance rows to each
    of their peers (see :func:`_anneal_tables`).  A wire between the two
    instructions of a swap keeps its length, so it is skipped, and
    ``cost`` stays the total wirelength of the current placement.
    Positions, choices and the occupant of each PE are mesh ids and
    lists indexed by them.

    ``rng.choice(seq)`` is drawn inline, as ``Random`` draws it: redraw
    ``getrandbits(len(seq).bit_length())`` until it is below ``len(seq)``.
    The search stops once ``best_cost`` reaches the tables' ``floor``, as
    no later move could then replace ``best``.
    """
    if not placement or iterations <= 0:
        return placement
    names = list(placement)
    choices, peer_of, pin_cost, cost, floor = _anneal_tables(
        dfg, fabric, edges, placement
    )
    tables = fabric.mesh.tables
    coords, distance = tables.coords, tables.distance
    position = [tables.ids[coord] for coord in placement.values()]
    best, best_cost = list(position), cost
    temperature = max(2.0, cost / 4.0)
    cooling = 0.995

    choice_bits = [len(options).bit_length() for options in choices]
    supported = [frozenset(options) for options in choices]
    # A placement holds at most one instruction per PE.
    occupant: List[Optional[int]] = [None] * len(coords)
    for i, at in enumerate(position):
        occupant[at] = i
    count, count_bits = len(names), len(names).bit_length()
    getrandbits, draw = rng.getrandbits, rng.random

    for _ in range(iterations):
        if best_cost <= floor:
            break
        i = getrandbits(count_bits)
        while i >= count:
            i = getrandbits(count_bits)
        options, bits = choices[i], choice_bits[i]
        pick = getrandbits(bits)
        while pick >= len(options):
            pick = getrandbits(bits)
        target = options[pick]
        old = position[i]
        if target == old:
            continue
        j = occupant[target]
        if j is not None and old not in supported[j]:
            continue  # swap would strand the occupant on an unsupported FU
        to_row, from_row = distance[target], distance[old]
        delta = pin_cost[i][target] - pin_cost[i][old]
        for peer in peer_of[i]:
            if peer != j:
                at = position[peer]
                delta += to_row[at] - from_row[at]
        if j is not None:
            delta += pin_cost[j][old] - pin_cost[j][target]
            for peer in peer_of[j]:
                if peer != i:
                    at = position[peer]
                    delta += from_row[at] - to_row[at]
        if delta <= 0 or draw() < pow(2.718, -delta / temperature):
            cost += delta
            position[i] = target
            occupant[target] = i
            occupant[old] = j
            if j is not None:
                position[j] = old
            if cost < best_cost:
                best, best_cost = list(position), cost
        temperature *= cooling
        if temperature < 0.05:
            temperature = 0.05
    return {name: coords[at] for name, at in zip(names, best)}


# ---------------------------------------------------------------------------
# Routing + full schedule
# ---------------------------------------------------------------------------

def _route_all(
    fabric: Fabric,
    edges: List[Edge],
    placement: Dict[str, Coord],
) -> Dict[EdgeKey, RoutedEdge]:
    """Route every edge in list order, for deterministic congestion."""
    state = RouterState(fabric.mesh)
    routed: Dict[EdgeKey, RoutedEdge] = {}
    for key, src, dst in edges:
        # A port-lane end is its coord already.
        src, dst = placement.get(src, src), placement.get(dst, dst)
        links = route_value(state, key[0], src, dst)
        routed[key] = RoutedEdge(key, src, dst, links)
    return routed


def schedule(
    dfg: Dfg,
    fabric: Fabric,
    seed: int = 0,
    anneal_iterations: int = 400,
    max_attempts: int = 8,
) -> CgraConfig:
    """Map ``dfg`` onto ``fabric``: place, route and delay-match.

    Deterministic for a given ``seed``.  Retries with perturbed placements
    when routing or delay matching fails; raises :class:`SchedulingError`
    after ``max_attempts``.
    """
    port_map = map_ports(dfg, fabric)
    edges = _edges(dfg, fabric, port_map)
    last_error: Optional[Exception] = None
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt * 7919)
        try:
            placement = _greedy_placement(dfg, fabric, edges, rng)
            placement = _anneal_placement(
                dfg, fabric, edges, placement, rng, anneal_iterations
            )
            routed = _route_all(fabric, edges, placement)
            hops = {key: edge.hops for key, edge in routed.items()}
            solution = compute_delays(dfg, hops)
            for key, delay in solution.extra_delay.items():
                routed[key].extra_delay = delay
            return CgraConfig(
                dfg=dfg,
                fabric=fabric,
                placement=placement,
                port_map=port_map,
                edges=routed,
                latency=solution.latency,
            )
        except (RoutingError, DelayMatchError) as exc:
            last_error = exc
            continue
    raise SchedulingError(
        f"could not map DFG {dfg.name!r} onto {fabric.name!r} after "
        f"{max_attempts} attempts: {last_error}"
    )

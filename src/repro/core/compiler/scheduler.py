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
from typing import Dict, List, Optional, Tuple

from ...cgra.fabric import Fabric, HwVectorPort
from ...cgra.network import Coord
from ..dfg.graph import Constant, Dfg, ValueRef
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
    for direction, dfg_ports in (("in", dfg.inputs), ("out", dfg.outputs)):
        available = sorted(
            fabric.ports_in(direction), key=lambda p: (p.width, p.port_id)
        )
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
                    f"no free {direction} vector port of width >= {width} "
                    f"for DFG port {name!r} on {fabric.name!r}"
                )
            taken.add(chosen.port_id)
            port_map[name] = chosen.port_id
    return port_map


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def _value_coord(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
    ref: ValueRef,
) -> Optional[Coord]:
    """Grid coordinate where a value becomes available (None if unplaced)."""
    if ref.node in dfg.inputs:
        hw_port = fabric.find_port("in", port_map[ref.node])
        return hw_port.attach[ref.lane % len(hw_port.attach)]
    return placement.get(ref.node)


def _placement_cost(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
) -> int:
    """Total manhattan wirelength of all dataflow edges (route estimate)."""
    mesh = fabric.mesh
    cost = 0
    for inst in dfg.instructions.values():
        dst = placement.get(inst.name)
        if dst is None:
            continue
        for ref in dfg.operand_refs(inst):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            if src is not None:
                cost += mesh.manhattan(src, dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            dst = hw_port.attach[lane % len(hw_port.attach)]
            if src is not None:
                cost += mesh.manhattan(src, dst)
    return cost


def _wiring(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
) -> Tuple[Dict[str, List[str]], Dict[str, List[Coord]], Dict[str, List[Coord]]]:
    """Per-instruction wire tables: ``(peers, input_pins, output_pins)``.

    ``peers[name]`` lists the other instructions ``name`` shares an edge
    with, once per edge (either direction); self-edges are dropped, their
    length is always 0.  ``input_pins[name]`` holds the input-lane attach
    point of each operand read from an input port, and
    ``output_pins[name]`` the output-lane attach point of each output lane
    ``name`` feeds.  Together they list every edge term of
    :func:`_placement_cost` that moves with ``name``.
    """
    instructions = dfg.instructions
    in_attach = {
        name: fabric.find_port("in", port_map[name]).attach
        for name in dfg.inputs
    }
    peers: Dict[str, List[str]] = {name: [] for name in instructions}
    input_pins: Dict[str, List[Coord]] = {name: [] for name in instructions}
    output_pins: Dict[str, List[Coord]] = {name: [] for name in instructions}
    for inst in instructions.values():
        for ref in dfg.operand_refs(inst):
            if ref.node in in_attach:
                attach = in_attach[ref.node]
                input_pins[inst.name].append(attach[ref.lane % len(attach)])
            elif ref.node in instructions and ref.node != inst.name:
                peers[inst.name].append(ref.node)
                peers[ref.node].append(inst.name)
    for port_name, port in dfg.outputs.items():
        attach = fabric.find_port("out", port_map[port_name]).attach
        for lane, ref in enumerate(port.sources):
            if ref.node in instructions:
                output_pins[ref.node].append(attach[lane % len(attach)])
    return peers, input_pins, output_pins


def _greedy_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    rng: random.Random,
) -> Dict[str, Coord]:
    """Topological-order constructive placement minimising wirelength.

    Each free supporting coord is scored ``(richness, wire + pull,
    headroom, draw)`` and the first least score wins.  Every candidate
    gets its ``rng.random()`` draw, in candidate order, but only the
    least-rich ones are compared on the rest of the score.
    """
    placement: Dict[str, Coord] = {}
    occupied: set = set()
    bottom = fabric.mesh.rows - 1
    consumers = dfg.consumers()
    _, input_pins, output_pins = _wiring(dfg, fabric, port_map)
    coords_supporting = fabric.coords_supporting
    # Prefer the least-capable FU that supports the op, so scarce
    # specialised units (sigmoid, divide) stay free for the ops that
    # actually need them.
    richness = fabric.fu_richness
    draw = rng.random

    for inst in dfg.topological_order():
        candidates = [
            coord
            for coord in coords_supporting.get(inst.op.name, ())
            if coord not in occupied
        ]
        if not candidates:
            raise SchedulingError(
                f"no free FU for op {inst.op.name!r} "
                f"(instruction {inst.name!r}) on fabric {fabric.name!r}"
            )
        draws = [draw() for _ in candidates]
        least = min(richness[coord] for coord in candidates)
        source_coords = input_pins[inst.name] + [
            placement[ref.node]
            for ref in dfg.operand_refs(inst)
            if ref.node in placement
        ]
        # Pull instructions that feed outputs toward the bottom edge.
        feeds_output = bool(output_pins[inst.name])
        # Leave room below for downstream consumers.
        has_consumers = bool(consumers.get(inst.name))

        def score(scored: Tuple[Coord, float]) -> Tuple[int, int, float]:
            (x, y), coord_draw = scored
            wire = sum(abs(sx - x) + abs(sy - y) for sx, sy in source_coords)
            pull = bottom - y if feeds_output else 0
            headroom = y if has_consumers else 0
            return (wire + pull, headroom, coord_draw)

        best, _ = min(
            (
                (coord, coord_draw)
                for coord, coord_draw in zip(candidates, draws)
                if richness[coord] == least
            ),
            key=score,
        )
        placement[inst.name] = best
        occupied.add(best)
    return placement


def _anneal_tables(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    names: List[str],
) -> Tuple[List[Tuple[Coord, ...]], List[List[int]], List[Dict[Coord, int]], int]:
    """The annealer's tables, indexed like ``names``.

    Returns ``(choices, peer_of, pin_cost, floor)``: ``choices[i]`` are
    the coords supporting instruction ``i``'s op, ``peer_of[i]`` the
    indices of its peers (see :func:`_wiring`), and ``pin_cost[i][coord]``
    its wirelength to its port pins when placed at ``coord``.  ``floor``
    is a lower bound on :func:`_placement_cost` of every legal placement:
    each peer edge is at least one hop long, since no two instructions
    share a PE, and each instruction's pin wires are at least its least
    ``pin_cost``.
    """
    index = {name: i for i, name in enumerate(names)}
    distance = fabric.mesh.distance
    peers, input_pins, output_pins = _wiring(dfg, fabric, port_map)
    coords_supporting = fabric.coords_supporting
    choices = [
        coords_supporting[dfg.instructions[name].op.name] for name in names
    ]
    peer_of = [[index[peer] for peer in peers[name]] for name in names]
    pin_cost = []
    for name, coords in zip(names, choices):
        costs = dict.fromkeys(coords, 0)
        for pin in input_pins[name] + output_pins[name]:
            row = distance[pin]
            for coord in coords:
                costs[coord] += row[coord]
        pin_cost.append(costs)
    floor = sum(map(len, peer_of)) // 2 + sum(
        min(costs.values()) for costs in pin_cost
    )
    return choices, peer_of, pin_cost, floor


def _anneal_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
    rng: random.Random,
    iterations: int,
) -> Dict[str, Coord]:
    """Simulated-annealing refinement by pairwise swaps and moves.

    A move is scored by the wires it touches, after minus before: the
    moved instructions' ``pin_cost`` and the mesh's distance rows to each
    of their peers (see :func:`_anneal_tables`).  A wire between the two
    instructions of a swap keeps its length, so it is skipped, and
    ``cost`` stays equal to :func:`_placement_cost` of the current
    placement.

    ``rng.choice(seq)`` is drawn inline, as ``Random`` draws it: redraw
    ``getrandbits(len(seq).bit_length())`` until it is below ``len(seq)``.
    The search stops once ``best_cost`` reaches the tables' ``floor``, as
    no later move could then replace ``best``.
    """
    if not placement or iterations <= 0:
        return placement
    names = list(placement)
    position = list(placement.values())
    cost = _placement_cost(dfg, fabric, port_map, placement)
    best, best_cost = list(position), cost
    temperature = max(2.0, cost / 4.0)
    cooling = 0.995

    distance = fabric.mesh.distance
    choices, peer_of, pin_cost, floor = _anneal_tables(
        dfg, fabric, port_map, names
    )
    choice_bits = [len(coords).bit_length() for coords in choices]
    supported = [frozenset(coords) for coords in choices]
    # A placement holds at most one instruction per PE.
    occupant_at = {coord: i for i, coord in enumerate(position)}
    count, count_bits = len(names), len(names).bit_length()
    getrandbits, draw = rng.getrandbits, rng.random

    for _ in range(iterations):
        if best_cost <= floor:
            break
        i = getrandbits(count_bits)
        while i >= count:
            i = getrandbits(count_bits)
        coords, bits = choices[i], choice_bits[i]
        pick = getrandbits(bits)
        while pick >= len(coords):
            pick = getrandbits(bits)
        target = coords[pick]
        old = position[i]
        if target == old:
            continue
        j = occupant_at.get(target)
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
            occupant_at[target] = i
            if j is None:
                del occupant_at[old]
            else:
                position[j] = old
                occupant_at[old] = j
            if cost < best_cost:
                best, best_cost = list(position), cost
        temperature = max(0.05, temperature * cooling)
    return dict(zip(names, best))


# ---------------------------------------------------------------------------
# Routing + full schedule
# ---------------------------------------------------------------------------

def _route_all(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
) -> Dict[EdgeKey, RoutedEdge]:
    state = RouterState(fabric.mesh)
    edges: Dict[EdgeKey, RoutedEdge] = {}

    def add_edge(ref: ValueRef, consumer: str, slot: int, dst: Coord) -> None:
        src = _value_coord(dfg, fabric, port_map, placement, ref)
        assert src is not None, f"unplaced producer {ref}"
        producer = str(ref)
        key: EdgeKey = (producer, consumer, slot)
        links = route_value(state, producer, src, dst)
        edges[key] = RoutedEdge(key, src, dst, links)

    # Route in topological order for deterministic congestion behaviour.
    for inst in dfg.topological_order():
        dst = placement[inst.name]
        for slot, operand in enumerate(inst.operands):
            if isinstance(operand, Constant):
                continue
            add_edge(operand, inst.name, slot, dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            dst = hw_port.attach[lane % len(hw_port.attach)]
            add_edge(ref, f"out:{port_name}", lane, dst)
    return edges


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
    last_error: Optional[Exception] = None
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt * 7919)
        try:
            placement = _greedy_placement(dfg, fabric, port_map, rng)
            placement = _anneal_placement(
                dfg, fabric, port_map, placement, rng, anneal_iterations
            )
            edges = _route_all(dfg, fabric, port_map, placement)
            hops = {key: edge.hops for key, edge in edges.items()}
            solution = compute_delays(dfg, hops)
            for key, delay in solution.extra_delay.items():
                edges[key].extra_delay = delay
            return CgraConfig(
                dfg=dfg,
                fabric=fabric,
                placement=placement,
                port_map=port_map,
                edges=edges,
                latency=solution.latency,
            )
        except (RoutingError, DelayMatchError) as exc:
            last_error = exc
            continue
    raise SchedulingError(
        f"could not map DFG {dfg.name!r} onto {fabric.name!r} after "
        f"{max_attempts} attempts: {last_error}"
    )

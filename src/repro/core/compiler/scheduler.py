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


def _supporting_coords(dfg: Dfg, fabric: Fabric) -> Dict[str, List[Coord]]:
    """Coords of the PEs supporting each op the DFG uses, in fabric order."""
    coords: Dict[str, List[Coord]] = {}
    for inst in dfg.instructions.values():
        op = inst.op.name
        if op not in coords:
            coords[op] = [pe.coord for pe in fabric.pes_supporting(op)]
    return coords


def _greedy_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    rng: random.Random,
) -> Dict[str, Coord]:
    """Topological-order constructive placement minimising wirelength."""
    placement: Dict[str, Coord] = {}
    occupied: set = set()
    bottom = fabric.mesh.rows - 1
    consumers = dfg.consumers()
    _, input_pins, output_pins = _wiring(dfg, fabric, port_map)
    supporting = _supporting_coords(dfg, fabric)
    # Prefer the least-capable FU that supports the op, so scarce
    # specialised units (sigmoid, divide) stay free for the ops that
    # actually need them.
    richness = {coord: len(pe.fu.ops) for coord, pe in fabric.pes.items()}

    for inst in dfg.topological_order():
        candidates = [
            coord for coord in supporting[inst.op.name] if coord not in occupied
        ]
        if not candidates:
            raise SchedulingError(
                f"no free FU for op {inst.op.name!r} "
                f"(instruction {inst.name!r}) on fabric {fabric.name!r}"
            )
        source_coords = input_pins[inst.name] + [
            placement[ref.node]
            for ref in dfg.operand_refs(inst)
            if ref.node in placement
        ]
        # Pull instructions that feed outputs toward the bottom edge.
        feeds_output = bool(output_pins[inst.name])
        # Leave room below for downstream consumers.
        has_consumers = bool(consumers.get(inst.name))

        def score(coord: Coord) -> Tuple[int, int, int, float]:
            x, y = coord
            wire = sum(abs(sx - x) + abs(sy - y) for sx, sy in source_coords)
            pull = bottom - y if feeds_output else 0
            headroom = y if has_consumers else 0
            return (richness[coord], wire + pull, headroom, rng.random())

        best = min(candidates, key=score)
        placement[inst.name] = best
        occupied.add(best)
    return placement


def _anneal_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
    rng: random.Random,
    iterations: int,
) -> Dict[str, Coord]:
    """Simulated-annealing refinement by pairwise swaps and moves.

    A move is scored by the wires it touches: the wirelength of the moved
    instruction and of the occupant it swaps with, after minus before.  A
    wire between the two keeps its length across a swap, so counting it
    from both sides adds 0, and ``cost`` stays equal to
    :func:`_placement_cost` of the current placement.
    """
    if not placement or iterations <= 0:
        return placement
    placement = dict(placement)
    names = list(placement)
    cost = _placement_cost(dfg, fabric, port_map, placement)
    best, best_cost = dict(placement), cost
    temperature = max(2.0, cost / 4.0)
    cooling = 0.995

    peers, input_pins, output_pins = _wiring(dfg, fabric, port_map)
    pins = {name: input_pins[name] + output_pins[name] for name in names}
    supporting = _supporting_coords(dfg, fabric)
    supported = {op: set(coords) for op, coords in supporting.items()}
    op_of = {name: dfg.instructions[name].op.name for name in names}
    # A placement holds at most one instruction per PE.
    occupant_at = {coord: name for name, coord in placement.items()}

    def wirelength(name: str) -> int:
        x, y = placement[name]
        total = 0
        for peer in peers[name]:
            px, py = placement[peer]
            total += abs(px - x) + abs(py - y)
        for px, py in pins[name]:
            total += abs(px - x) + abs(py - y)
        return total

    for _ in range(iterations):
        name = rng.choice(names)
        old = placement[name]
        target = rng.choice(supporting[op_of[name]])
        if target == old:
            continue
        occupant = occupant_at.get(target)
        if occupant is not None and old not in supported[op_of[occupant]]:
            continue  # swap would strand the occupant on an unsupported FU
        if occupant is None:
            before = wirelength(name)
            placement[name] = target
            delta = wirelength(name) - before
        else:
            before = wirelength(name) + wirelength(occupant)
            placement[name] = target
            placement[occupant] = old
            delta = wirelength(name) + wirelength(occupant) - before
        if delta <= 0 or rng.random() < pow(2.718, -delta / temperature):
            cost += delta
            occupant_at[target] = name
            if occupant is None:
                del occupant_at[old]
            else:
                occupant_at[old] = occupant
            if cost < best_cost:
                best, best_cost = dict(placement), cost
        else:  # revert
            placement[name] = old
            if occupant is not None:
                placement[occupant] = target
        temperature = max(0.05, temperature * cooling)
    return best


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

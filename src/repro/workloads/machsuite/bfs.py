"""MachSuite ``bfs``: breadth-first search (Table 4: indirect loads +
recurrence, compare/increment datapath).

Pull-based level-synchronous formulation: the host prepares the transposed
adjacency (incoming-edge lists, a one-time layout step), and each sweep
computes ``level[n] = min(level[n], 1 + min over in-neighbours s of
level[s])`` — per node, a gather stream fetches the in-neighbour levels
through an indirect port, a min-accumulator reduces them, and the single
store per node makes every memory location single-writer (the push/scatter
variant needs a conditional store, i.e. data-dependent control, which is
exactly the kind of code the paper assigns back to the host core).
Unvisited nodes carry a large sentinel so ``min`` is the discovery
operator; ``depth`` sweeps reach the fixpoint.
"""

from __future__ import annotations

from typing import List, Tuple

from ...baselines.asic.ddg import Ddg, Evaluator, evaluate, trace
from ...baselines.asic.schedule import AsicDesign
from ...baselines.cpu import ScalarWorkload
from ...cgra.fabric import Fabric, broadly_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import Allocator, BuiltWorkload, check_equal, make_rng, read_words

#: graph size (nodes / directed edges), scaled for simulator speed
N_NODES = 96
N_EDGES = 384

#: the seed ``build_bfs`` and ``bfs_ddg`` draw their graph from by default
SEED = 15

#: "unvisited" sentinel (large so min() is the discovery operator)
UNVISITED = 1 << 40


def bfs_dfg() -> Dfg:
    """min-accumulate gathered levels, +1, min with the node's own level."""
    b = DfgBuilder("bfs")
    s = b.input("S", 1)  # gathered level[src] for each incoming edge
    d = b.input("D", 1)  # this node's current level (repeating stream)
    r = b.input("R", 1)
    best_parent = b.op("accmin", s[0], r[0])
    b.output("NL", b.min(d[0], b.add(best_parent, 1)))
    return b.build()


def make_graph(rng, n: int, e: int) -> List[Tuple[int, int]]:
    """Random reachable digraph: a random tree plus extra edges."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    while len(edges) < e:
        a, bb = rng.randrange(n), rng.randrange(n)
        if a != bb:
            edges.append((a, bb))
    rng.shuffle(edges)
    return edges


def bfs_inputs(seed: int, n: int, e: int) -> List[List[int]]:
    """Each node's in-neighbours (the transposed adjacency) in a random
    reachable digraph."""
    incoming: List[List[int]] = [[] for _ in range(n)]
    for a, bb in make_graph(make_rng(seed), n, e):
        incoming[bb].append(a)
    return incoming


def bfs_sweep(ev: Evaluator, incoming: List[List[int]]) -> None:
    """One pull sweep: ``level[node] = min(level[node], 1 + min over
    in-neighbours s of level[s])``, nodes in order."""
    one = ev.const(1)
    offset = 0
    for node, row in enumerate(incoming):
        if not row:
            continue
        best = None
        for j in range(len(row)):
            lvl = ev.load("level", ev.load("in_src", offset + j))
            best = lvl if best is None else ev.minimum(best, lvl)
        candidate = ev.add(best, one)
        ev.store("level", node, ev.minimum(ev.load("level", node), candidate))
        offset += len(row)


def bfs_kernel(ev: Evaluator, incoming: List[List[int]], depth: int) -> None:
    """``depth`` sweeps from root 0 over ``level``."""
    ev.array("in_src", [s for row in incoming for s in row])
    ev.array("level", [0] + [UNVISITED] * (len(incoming) - 1))
    for _sweep in range(depth):
        bfs_sweep(ev, incoming)


def bfs_levels(incoming: List[List[int]]) -> Tuple[List[int], int]:
    """(levels, depth): a plain run swept until ``level`` stops changing.
    Sweep ``d`` fixes every node ``d`` hops from the root, so ``depth``
    sweeps reach the fixpoint."""
    ev = evaluate(bfs_kernel, incoming, 0)
    while True:
        levels = ev.array_values("level")
        bfs_sweep(ev, incoming)
        if ev.array_values("level") == levels:
            return levels, max(l for l in levels if l != UNVISITED)


def build_bfs(
    fabric: Fabric = None, seed: int = SEED, n: int = N_NODES, e: int = N_EDGES
) -> BuiltWorkload:
    fabric = fabric or broadly_provisioned()
    incoming = bfs_inputs(seed, n, e)
    expected, depth = bfs_levels(incoming)

    image = []
    alloc = Allocator()
    flat_in = [s for row in incoming for s in row]
    in_ptr = [0]
    for row in incoming:
        in_ptr.append(in_ptr[-1] + len(row))
    # Static index arrays (host-prepared once): the flattened in-neighbour
    # list, and each node's own id repeated per in-edge so the node's
    # current level can be gathered edge-aligned by one long stream.
    dup_node = [node for node, row in enumerate(incoming) for _ in row]
    in_addr = alloc.alloc(max(1, len(flat_in)) * 8)
    dup_addr = alloc.alloc(max(1, len(dup_node)) * 8)
    lvl_addr = alloc.alloc(n * 8)
    image.append((in_addr, pack_words(flat_in)))
    image.append((dup_addr, pack_words(dup_node)))
    image.append((lvl_addr, pack_words([0] + [UNVISITED] * (n - 1))))

    dfg = bfs_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("bfs", config)

    ne = len(flat_in)
    for _sweep in range(depth):
        # Long whole-frontier streams; only the per-node accumulator
        # coordination and the single-word stores are short commands.
        program.mem_to_indirect(in_addr, ne, 0)
        program.ind_port_port(0, lvl_addr, "S", ne)
        program.mem_to_indirect(dup_addr, ne, 1)
        program.ind_port_port(1, lvl_addr, "D", ne)
        for node in range(n):
            indeg = len(incoming[node])
            if indeg == 0:
                continue
            if indeg > 1:
                program.const_port(0, indeg - 1, "R")
                program.clean_port(indeg - 1, "NL")
            program.const_port(1, 1, "R")
            program.port_mem("NL", 8, 8, 1, lvl_addr + node * 8)
            program.host(4)  # node loop: in_ptr loads + address updates
        program.barrier_all()  # next sweep must see all level stores
        program.host(2)

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, lvl_addr, n, signed=False)
        check_equal("bfs levels", got, expected)

    return BuiltWorkload(
        name="bfs",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "nodes": n,
            "edges": len(flat_in),
            "depth": depth,
            "instances": len(flat_in) * depth,
        },
    )


def bfs_ddg(n: int = N_NODES, e: int = N_EDGES, seed: int = SEED) -> Ddg:
    incoming = bfs_inputs(seed, n, e)
    _, depth = bfs_levels(incoming)
    return trace("bfs", bfs_kernel, incoming, depth)


def bfs_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=4, base_mul=1, mem_ports_per_partition=2)


def bfs_census(n: int = N_NODES, e: int = N_EDGES) -> ScalarWorkload:
    # as many sweeps as the default graph takes to reach its fixpoint
    _, depth = bfs_levels(bfs_inputs(SEED, n, e))
    work = e * depth
    return ScalarWorkload(
        name="bfs",
        int_ops=2 * work,
        loads=3 * work,
        stores=n * depth,
        branches=2 * work,
        memory_bytes=8 * (e + n),
        critical_path=depth * 12,  # level serialisation
        mispredict_rate=0.12,  # data-dependent discovery branches
    )

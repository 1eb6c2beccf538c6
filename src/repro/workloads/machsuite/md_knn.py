"""MachSuite ``md-knn``: molecular dynamics k-nearest-neighbour forces
(Table 4: indirect loads + recurrence, large irregular datapath).

For each atom, the neighbour list gathers the K neighbour positions
(three indirect streams, one per coordinate), a 19-instruction fixed-point
Lennard-Jones datapath computes the pairwise force, and three in-fabric
accumulators reduce the force vector over the K neighbours.  This is the
largest and most irregular DFG in the suite — it uses every multiplier and
both dividers of the broadly-provisioned fabric.

Arithmetic is integer fixed point: ``force = C1/r^6 - C2/r^4`` with
the hardware's truncating division (``instructions.div_trunc``), which
the kernel's reference run uses too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

#: atom count and neighbours per atom, scaled for simulator speed
N_ATOMS = 64
K_NEIGHBOURS = 12

#: Lennard-Jones fixed-point constants
C1 = 2_000_000_000
C2 = 350_000


def md_dfg() -> Dfg:
    """dx/dy/dz -> r2 -> C1/r^6 - C2/r^4 -> force vector accumulators."""
    b = DfgBuilder("md-knn")
    x = b.input("X", 1)  # gathered neighbour coordinates
    y = b.input("Y", 1)
    z = b.input("Z", 1)
    xi = b.input("XI", 1)  # this atom's coordinates (constant streams)
    yi = b.input("YI", 1)
    zi = b.input("ZI", 1)
    r = b.input("R", 1)
    dx = b.sub(xi[0], x[0])
    dy = b.sub(yi[0], y[0])
    dz = b.sub(zi[0], z[0])
    r2 = b.add(b.add(b.mul(dx, dx), b.mul(dy, dy)), b.mul(dz, dz))
    r4 = b.mul(r2, r2)
    r6 = b.mul(r4, r2)
    force = b.sub(b.op("div", C1, r6), b.op("div", C2, r4))
    outs = [
        b.accumulate(b.mul(force, d), r[0]) for d in (dx, dy, dz)
    ]
    b.output("F", outs)
    return b.build()


def md_inputs(
    seed: int, n: int, k: int
) -> Tuple[List[Tuple[int, int, int]], List[List[int]]]:
    """Atom positions (distinct, so r2 is never zero) and neighbour lists."""
    rng = make_rng(seed)
    cells = rng.sample(range(20**3), n)
    pos = [(c % 20, (c // 20) % 20, c // 400) for c in cells]
    nl = [rng.sample([j for j in range(n) if j != i], k) for i in range(n)]
    return pos, nl


def md_kernel(
    ev: Evaluator, pos: List[Tuple[int, int, int]], nl: List[List[int]]
) -> None:
    """Each atom's force vector over its neighbour list, into ``f``."""
    n, k = len(pos), len(nl[0])
    ev.array("x", [p[0] for p in pos])
    ev.array("y", [p[1] for p in pos])
    ev.array("z", [p[2] for p in pos])
    ev.array("nl", [j for row in nl for j in row])
    ev.array("f", [0] * n * 3)
    c1, c2 = ev.const(C1), ev.const(C2)
    for i in range(n):
        xi, yi, zi = ev.const(pos[i][0]), ev.const(pos[i][1]), ev.const(pos[i][2])
        fx, fy, fz = ev.const(0), ev.const(0), ev.const(0)
        for jj in range(k):
            neighbour = ev.load("nl", i * k + jj)
            dx = ev.sub(xi, ev.load("x", neighbour))
            dy = ev.sub(yi, ev.load("y", neighbour))
            dz = ev.sub(zi, ev.load("z", neighbour))
            r2 = ev.add(ev.add(ev.mul(dx, dx), ev.mul(dy, dy)), ev.mul(dz, dz))
            r4 = ev.mul(r2, r2)
            r6 = ev.mul(r4, r2)
            force = ev.sub(ev.div(c1, r6), ev.div(c2, r4))
            fx = ev.add(fx, ev.mul(force, dx))
            fy = ev.add(fy, ev.mul(force, dy))
            fz = ev.add(fz, ev.mul(force, dz))
        ev.store("f", i * 3, fx)
        ev.store("f", i * 3 + 1, fy)
        ev.store("f", i * 3 + 2, fz)


def build_md_knn(
    fabric: Fabric = None,
    seed: int = 16,
    n: int = N_ATOMS,
    k: int = K_NEIGHBOURS,
) -> BuiltWorkload:
    fabric = fabric or broadly_provisioned()
    pos, nl = md_inputs(seed, n, k)
    expected = evaluate(md_kernel, pos, nl).array_values("f")

    image = []
    alloc = Allocator()
    x_addr = alloc.alloc(n * 8)
    y_addr = alloc.alloc(n * 8)
    z_addr = alloc.alloc(n * 8)
    nl_addr = alloc.alloc(n * k * 8)
    f_addr = alloc.alloc(n * 3 * 8)
    image.append((x_addr, pack_words([p[0] for p in pos])))
    image.append((y_addr, pack_words([p[1] for p in pos])))
    image.append((z_addr, pack_words([p[2] for p in pos])))
    image.append((nl_addr, pack_words([j for row in nl for j in row])))

    dfg = md_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("md-knn", config)

    for i in range(n):
        program.const_port(pos[i][0], k, "XI")
        program.const_port(pos[i][1], k, "YI")
        program.const_port(pos[i][2], k, "ZI")
        program.const_port(0, k - 1, "R")
        program.const_port(1, 1, "R")
        program.clean_port((k - 1) * 3, "F")
        program.port_mem("F", 24, 24, 1, f_addr + i * 24)
        # The neighbour list fills three indirect ports, one per coordinate.
        row = nl_addr + i * k * 8
        program.mem_to_indirect(row, k, 0)
        program.ind_port_port(0, x_addr, "X", k, signed=True)
        program.mem_to_indirect(row, k, 1)
        program.ind_port_port(1, y_addr, "Y", k, signed=True)
        program.mem_to_indirect(row, k, 2)
        program.ind_port_port(2, z_addr, "Z", k, signed=True)
        program.host(3)  # atom loop
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for i in range(n):
            got = read_words(mem, f_addr + i * 24, 3)
            check_equal(f"md-knn[atom {i}]", got, expected[i * 3:i * 3 + 3])

    return BuiltWorkload(
        name="md",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={"atoms": n, "k": k, "instances": n * k},
    )


def md_ddg(n: int = N_ATOMS, k: int = K_NEIGHBOURS, seed: int = 16) -> Ddg:
    return trace("md", md_kernel, *md_inputs(seed, n, k))


def md_asic_base() -> AsicDesign:
    # The LJ datapath needs real multiply/divide resources even at unroll 1.
    return AsicDesign(base_alu=4, base_mul=4, base_div=2)


def md_census(n: int = N_ATOMS, k: int = K_NEIGHBOURS,
              ddg: Optional[Ddg] = None) -> ScalarWorkload:
    return ScalarWorkload.from_ddg(
        md_ddg(n, k) if ddg is None else ddg,
        branches=n * k,
    )

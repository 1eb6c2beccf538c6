"""MachSuite ``stencil3d``: 7-point 3D stencil (Table 4: affine patterns,
6-1 reduce and multiplier tree).

out[z][y][x] = C0*in[z][y][x] + C1*(6-neighbour sum).  Seven linear streams
feed the fabric — the centre view plus the six axis-shifted views of each
output row — and a pure feed-forward reduce/multiply tree (no accumulator)
produces two outputs per instance.
"""

from __future__ import annotations

from typing import List, Optional

from ...baselines.asic.ddg import Ddg, Evaluator, evaluate, trace
from ...baselines.asic.schedule import AsicDesign
from ...baselines.cpu import ScalarWorkload
from ...cgra.fabric import Fabric, broadly_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)

#: grid side (cubic); interior shrinks by 2 per axis
SIDE = 12
C0 = 5
C1 = 3
LANES = 2  # outputs per instance

PORTS = ("CT", "XP", "XM", "YP", "YM", "ZP", "ZM")


def stencil3d_dfg() -> Dfg:
    """Seven width-2 views -> 6-1 reduce + multiplier tree -> O(2)."""
    b = DfgBuilder("stencil3d")
    handles = {name: b.input(name, LANES) for name in PORTS}
    outs = []
    for j in range(LANES):
        n_x = b.add(handles["XP"][j], handles["XM"][j])
        n_y = b.add(handles["YP"][j], handles["YM"][j])
        n_z = b.add(handles["ZP"][j], handles["ZM"][j])
        neighbours = b.add(b.add(n_x, n_y), n_z)
        centre = b.op("mul", handles["CT"][j], C0)
        outs.append(b.add(centre, b.op("mul", neighbours, C1)))
    b.output("O", outs)
    return b.build()


def stencil3d_inputs(seed: int, side: int) -> List[int]:
    """The side^3 grid, z-major."""
    rng = make_rng(seed)
    return draw_ints(rng, -100, 100, side**3)


def stencil3d_kernel(ev: Evaluator, side: int, grid: List[int]) -> None:
    """The 7-point stencil of ``grid``'s interior into ``out``."""
    inner = side - 2
    ev.array("grid", grid)
    ev.array("out", [0] * inner**3)
    c0, c1 = ev.const(C0), ev.const(C1)

    def idx(z: int, y: int, x: int) -> int:
        return (z * side + y) * side + x

    for z in range(1, side - 1):
        for y in range(1, side - 1):
            for x in range(1, side - 1):
                total = ev.add(
                    ev.add(
                        ev.add(ev.load("grid", idx(z, y, x + 1)),
                               ev.load("grid", idx(z, y, x - 1))),
                        ev.add(ev.load("grid", idx(z, y + 1, x)),
                               ev.load("grid", idx(z, y - 1, x))),
                    ),
                    ev.add(ev.load("grid", idx(z + 1, y, x)),
                           ev.load("grid", idx(z - 1, y, x))),
                )
                value = ev.add(
                    ev.mul(c0, ev.load("grid", idx(z, y, x))), ev.mul(c1, total)
                )
                ev.store("out", ((z - 1) * inner + (y - 1)) * inner + (x - 1), value)


def build_stencil3d(
    fabric: Fabric = None, seed: int = 12, side: int = SIDE
) -> BuiltWorkload:
    inner = side - 2
    if inner % LANES:
        raise ValueError("interior width must be a multiple of 2")
    fabric = fabric or broadly_provisioned()
    grid = stencil3d_inputs(seed, side)
    expected = evaluate(stencil3d_kernel, side, grid).array_values("out")

    image = []
    alloc = Allocator()
    grid_addr = alloc.alloc(side**3 * 8)
    out_addr = alloc.alloc(inner**3 * 8)
    image.append((grid_addr, pack_words(grid)))

    def addr(z: int, y: int, x: int) -> int:
        return grid_addr + ((z * side + y) * side + x) * 8

    dfg = stencil3d_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("stencil3d", config)

    row = inner * 8  # bytes streamed per interior row
    for z in range(1, side - 1):
        for y in range(1, side - 1):
            views = {
                "CT": addr(z, y, 1),
                "XP": addr(z, y, 2),
                "XM": addr(z, y, 0),
                "YP": addr(z, y + 1, 1),
                "YM": addr(z, y - 1, 1),
                "ZP": addr(z + 1, y, 1),
                "ZM": addr(z - 1, y, 1),
            }
            for name, start in views.items():
                program.mem_port(start, row, row, 1, name)
            out_row = out_addr + ((z - 1) * inner + (y - 1)) * inner * 8
            program.port_mem("O", row, row, 1, out_row)
            program.host(3)
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, out_addr, inner**3)
        check_equal("stencil3d", got, expected)

    return BuiltWorkload(
        name="stencil3d",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "side": side,
            "ops": inner**3 * 8,
            "instances": inner * inner * inner // LANES,
        },
    )


def stencil3d_ddg(side: int = SIDE, seed: int = 12) -> Ddg:
    return trace("stencil3d", stencil3d_kernel, side, stencil3d_inputs(seed, side))


def stencil3d_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=4, base_mul=2)


def stencil3d_census(side: int = SIDE, ddg: Optional[Ddg] = None) -> ScalarWorkload:
    return ScalarWorkload.from_ddg(
        stencil3d_ddg(side) if ddg is None else ddg,
        branches=(side - 2) ** 3 // 2,
    )

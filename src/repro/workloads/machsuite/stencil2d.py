"""MachSuite ``stencil`` (2D): 3x3 weighted stencil (Table 4: affine +
recurrence, 8-way multiply-accumulate).

Single-plane convolution structure at 64-bit: input windows stream with
overlapped affine patterns, the 3x3 filter broadcasts one weight per
instance, and eight in-fabric accumulators reduce the 9 (ky, kx) instances
per 8-wide output block.
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
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)

#: grid dimensions (input HEIGHT x WIDTH; output shrinks by 2)
WIDTH = 34
HEIGHT = 18
K = 3
WAY = 8  # outputs per instance


def stencil2d_dfg() -> Dfg:
    """A(8) x broadcast W(1) -> 8 accumulators -> C(8)."""
    b = DfgBuilder("stencil2d")
    a = b.input("A", WAY)
    w = b.input("B", 1)
    r = b.input("R", 1)
    outs = [b.accumulate(b.mul(a[j], w[0]), r[0]) for j in range(WAY)]
    b.output("C", outs)
    return b.build()


def stencil2d_inputs(seed: int, width: int, height: int) -> Tuple[List[int], List[int]]:
    """The grid (row-major) and the K x K filter."""
    rng = make_rng(seed)
    grid = draw_ints(rng, -100, 100, width * height)
    filt = draw_ints(rng, -8, 8, K * K)
    return grid, filt


def stencil2d_kernel(
    ev: Evaluator, width: int, height: int, grid: List[int], filt: List[int]
) -> None:
    """3x3 weighted sums of ``grid`` into ``out`` (row-major, 2 narrower
    and 2 shorter)."""
    ev.array("grid", grid)
    ev.array("filt", filt)
    ev.array("out", [0] * (width - 2) * (height - 2))
    out_w = width - 2
    for y in range(height - 2):
        for x in range(out_w):
            acc = ev.const(0)
            for ky in range(K):
                for kx in range(K):
                    acc = ev.add(
                        acc,
                        ev.mul(
                            ev.load("filt", ky * K + kx),
                            ev.load("grid", (y + ky) * width + (x + kx)),
                        ),
                    )
            ev.store("out", y * out_w + x, acc)


def build_stencil2d(
    fabric: Fabric = None, seed: int = 11, width: int = WIDTH, height: int = HEIGHT
) -> BuiltWorkload:
    out_w, out_h = width - 2, height - 2
    if out_w % WAY:
        raise ValueError(f"output width must be a multiple of {WAY}")
    fabric = fabric or broadly_provisioned()
    grid, filt = stencil2d_inputs(seed, width, height)
    result = evaluate(stencil2d_kernel, width, height, grid, filt)
    expected = result.array_values("out")

    image = []
    alloc = Allocator()
    row_bytes = width * 8
    grid_addr = alloc.alloc(height * row_bytes)
    filt_addr = alloc.alloc(K * K * 8)
    out_addr = alloc.alloc(out_h * out_w * 8)
    image.append((grid_addr, pack_words(grid)))
    image.append((filt_addr, pack_words(filt)))

    dfg = stencil2d_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("stencil2d", config)

    kk = K * K
    blocks = out_w // WAY
    for y in range(out_h):
        for block in range(blocks):
            x0 = block * WAY
            program.const_port(0, kk - 1, "R")
            program.const_port(1, 1, "R")
            program.clean_port((kk - 1) * WAY, "C")
            program.port_mem("C", 64, WAY * 8, 1, out_addr + (y * out_w + x0) * 8)
            # The 9 filter weights, one word per (ky, kx) instance.
            program.mem_port(filt_addr, kk * 8, kk * 8, 1, "B")
            # Per kernel row, the K shifted window views (overlapped).
            for ky in range(K):
                start = grid_addr + (y + ky) * row_bytes + x0 * 8
                program.mem_port(start, 8, WAY * 8, K, "A")
            program.host(3)
        program.host(2)
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for y in range(out_h):
            got = read_words(mem, out_addr + y * out_w * 8, out_w)
            check_equal(f"stencil2d[row {y}]", got,
                        expected[y * out_w:(y + 1) * out_w])

    return BuiltWorkload(
        name="stencil",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "width": width,
            "height": height,
            "macs": out_w * out_h * kk,
            "instances": out_h * blocks * kk,
        },
    )


def stencil2d_ddg(width: int = WIDTH, height: int = HEIGHT, seed: int = 11) -> Ddg:
    grid, filt = stencil2d_inputs(seed, width, height)
    return trace("stencil", stencil2d_kernel, width, height, grid, filt)


def stencil2d_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=2, base_mul=2)


def stencil2d_census(width: int = WIDTH, height: int = HEIGHT) -> ScalarWorkload:
    macs = (width - 2) * (height - 2) * K * K
    return ScalarWorkload(
        name="stencil",
        int_ops=macs,
        mul_ops=macs,
        loads=2 * macs,
        stores=(width - 2) * (height - 2),
        branches=macs // 4,
        memory_bytes=8 * (width * height + (width - 2) * (height - 2)),
    )

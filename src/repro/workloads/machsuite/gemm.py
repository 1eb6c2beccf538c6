"""MachSuite ``gemm``: dense matrix multiply (Table 4: affine + recurrence,
8-way multiply-accumulate datapath).

C[i][j0..j0+7] += A[i][k] * B[k][j0..j0+7]: the j-blocked formulation keeps
every stream affine — A's row is linear, B streams one 64-byte row-chunk
per k with a 2D pattern (stride = row pitch), and eight in-fabric
accumulators reduce over k with the reset-constant idiom.  This is the
natural stream-dataflow shape for GEMM: no strided column walks, one
command per operand per output block.
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
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)

#: problem size (N x N matrices), scaled for simulator speed
N = 24
WAY = 8  # output columns (and MACs) per instance


def gemm_dfg() -> Dfg:
    """B(8) x broadcast A(1) -> 8 accumulators -> C(8)."""
    b = DfgBuilder("gemm")
    a = b.input("A", 1)
    bb = b.input("B", WAY)
    r = b.input("R", 1)
    outs = []
    for j in range(WAY):
        outs.append(b.accumulate(b.mul(bb[j], a[0]), r[0]))
    b.output("C", outs)
    return b.build()


def gemm_inputs(seed: int, n: int) -> Tuple[List[int], List[int]]:
    """A and B, n x n, row-major."""
    rng = make_rng(seed)
    a = draw_ints(rng, -50, 50, n * n)
    b = draw_ints(rng, -50, 50, n * n)
    return a, b


def gemm_kernel(ev: Evaluator, n: int, a: List[int], b: List[int]) -> None:
    """C = A x B (row-major arrays ``a``, ``b`` -> ``c``)."""
    ev.array("a", a)
    ev.array("b", b)
    ev.array("c", [0] * n * n)
    for i in range(n):
        for j in range(n):
            acc = ev.const(0)
            for k in range(n):
                acc = ev.add(acc, ev.mul(ev.load("a", i * n + k), ev.load("b", k * n + j)))
            ev.store("c", i * n + j, acc)


def build_gemm(
    fabric: Fabric = None, seed: int = 10, n: int = N
) -> BuiltWorkload:
    if n % WAY:
        raise ValueError(f"n must be a multiple of {WAY}")
    fabric = fabric or broadly_provisioned()
    a, b = gemm_inputs(seed, n)
    expected = evaluate(gemm_kernel, n, a, b).array_values("c")

    image = []
    alloc = Allocator()
    a_addr = alloc.alloc(n * n * 8)
    b_addr = alloc.alloc(n * n * 8)
    c_addr = alloc.alloc(n * n * 8)
    image.append((a_addr, pack_words(a)))
    image.append((b_addr, pack_words(b)))

    dfg = gemm_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("gemm", config)

    blocks = n // WAY
    for i in range(n):
        for jb in range(blocks):
            j0 = jb * WAY
            program.const_port(0, n - 1, "R")
            program.const_port(1, 1, "R")
            program.clean_port((n - 1) * WAY, "C")
            program.port_mem("C", 64, 64, 1, c_addr + (i * n + j0) * 8)
            # A row (broadcast scalar per instance): linear.
            program.mem_port(a_addr + i * n * 8, n * 8, n * 8, 1, "A")
            # B row-chunks: one 64-byte access per k at the row pitch.
            program.mem_port(b_addr + j0 * 8, n * 8, WAY * 8, n, "B")
            program.host(3)  # jb loop: address updates
        program.host(2)  # i loop
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for i in range(n):
            got = read_words(mem, c_addr + i * n * 8, n)
            check_equal(f"gemm[row {i}]", got, expected[i * n:(i + 1) * n])

    return BuiltWorkload(
        name="gemm",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={"n": n, "macs": n * n * n, "instances": n * n * n // WAY},
    )


def gemm_ddg(n: int = N, seed: int = 10) -> Ddg:
    """Traced kernel for the mini-Aladdin ASIC model."""
    return trace("gemm", gemm_kernel, n, *gemm_inputs(seed, n))


def gemm_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=2, base_mul=2)


def gemm_census(n: int = N, ddg: Optional[Ddg] = None) -> ScalarWorkload:
    return ScalarWorkload.from_ddg(
        gemm_ddg(n) if ddg is None else ddg,
        branches=n * n * n // 4,
    )

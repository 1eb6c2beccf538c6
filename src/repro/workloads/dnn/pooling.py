"""Pooling layers as stream-dataflow programs.

A 2x2 window (stride 2) pools with four strided streams — the four corner
views of each output row — and a pure combine datapath (adds + shift for
average, a max tree for max pooling).  There are no synapses, so pooling is
the bandwidth-bound, low-arithmetic-intensity class of Figure 11; Softbrain
does comparatively well here because neighbouring partial results are
reused in the fabric instead of re-fetched (the paper's pooling note).

4x4 windows run as two chained 2x2 passes through a scratch buffer in
memory, with a full barrier between the passes (the architecture's idiom
for long dependence chains).
"""

from __future__ import annotations

from typing import Callable, List

from ...cgra.fabric import Fabric, dnn_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)
from .layers import PoolLayer

#: output elements computed per instance
LANES = 4


def pool_dfg(mode: str) -> Dfg:
    """A/B/C/D corner streams -> combine -> O (4 outputs per instance)."""
    b = DfgBuilder(f"pool-{mode}")
    a = b.input("A", LANES)
    bb = b.input("B", LANES)
    c = b.input("C", LANES)
    d = b.input("D", LANES)
    outs = []
    for j in range(LANES):
        if mode == "avg":
            total = b.add(b.add(a[j], bb[j]), b.add(c[j], d[j]))
            outs.append(b.op("shr", total, 2))
        else:
            outs.append(b.max(b.max(a[j], bb[j]), b.max(c[j], d[j])))
    b.output("O", outs)
    return b.build()


def reference_pool2(rows: List[List[int]], mode: str) -> List[List[int]]:
    """One 2x2 stride-2 pooling pass over a single map."""
    out_h, out_w = len(rows) // 2, len(rows[0]) // 2
    out = [[0] * out_w for _ in range(out_h)]
    for r in range(out_h):
        for col in range(out_w):
            window = (
                rows[2 * r][2 * col],
                rows[2 * r][2 * col + 1],
                rows[2 * r + 1][2 * col],
                rows[2 * r + 1][2 * col + 1],
            )
            out[r][col] = (sum(window) >> 2) if mode == "avg" else max(window)
    return out


def _emit_pool2_pass(
    program: StreamProgram,
    in_addr: Callable[[int], int],
    out_addr: Callable[[int], int],
    in_w: int,
    out_h: int,
) -> None:
    """Emit the 2x2 pooling commands for one map (per output row)."""
    out_w = in_w // 2
    for r in range(out_h):
        top = in_addr(2 * r)
        bottom = in_addr(2 * r + 1)
        program.mem_port(top, 4, 2, out_w, "A", elem_bytes=2, signed=True)
        program.mem_port(top + 2, 4, 2, out_w, "B", elem_bytes=2, signed=True)
        program.mem_port(bottom, 4, 2, out_w, "C", elem_bytes=2, signed=True)
        program.mem_port(bottom + 2, 4, 2, out_w, "D", elem_bytes=2, signed=True)
        program.port_mem("O", 2, 2, out_w, out_addr(r), elem_bytes=2)
        program.host(2)  # row loop and address updates


def build_pool(
    layer: PoolLayer,
    unit_id: int = 0,
    num_units: int = 1,
    fabric: Fabric = None,
    seed: int = 3,
) -> BuiltWorkload:
    """Build one unit's share of the layer (maps partitioned across units)."""
    if layer.maps % num_units:
        raise ValueError("maps must divide evenly across units")
    if (layer.in_w // 2) % LANES:
        raise ValueError("intermediate row width must be a multiple of 4")
    fabric = fabric or dnn_provisioned()
    rng = make_rng(seed)

    maps = [
        [draw_ints(rng, -128, 127, layer.in_w) for _ in range(layer.in_h)]
        for _ in range(layer.maps)
    ]
    expected = []
    for plane in maps:
        first = reference_pool2(plane, layer.mode)
        expected.append(
            reference_pool2(first, layer.mode) if layer.window == 4 else first
        )

    image = []
    alloc = Allocator()
    row_bytes = layer.in_w * 2
    in_base = alloc.alloc(layer.maps * layer.in_h * row_bytes)
    mid_w, mid_h = layer.in_w // 2, layer.in_h // 2
    mid_base = alloc.alloc(layer.maps * mid_h * mid_w * 2)
    out_base = alloc.alloc(layer.maps * layer.out_h * layer.out_w * 2)

    for m, plane in enumerate(maps):
        for y, row in enumerate(plane):
            image.append((in_base + (m * layer.in_h + y) * row_bytes,
                          pack_words(row, 2)))

    dfg = pool_dfg(layer.mode)
    config = schedule(dfg, fabric)
    program = StreamProgram(f"{layer.name}-u{unit_id}", config)

    my_maps = list(range(layer.maps))[unit_id::num_units]
    final_base = mid_base if layer.window == 4 else out_base
    final_w, final_h = (mid_w, mid_h) if layer.window == 4 else (
        layer.out_w, layer.out_h
    )
    for m in my_maps:
        _emit_pool2_pass(
            program,
            lambda y, m=m: in_base + (m * layer.in_h + y) * row_bytes,
            lambda r, m=m: final_base + (m * final_h + r) * final_w * 2,
            layer.in_w,
            final_h,
        )
    if layer.window == 4:
        program.barrier_all()  # pass 2 reads pass 1's results from memory
        for m in my_maps:
            _emit_pool2_pass(
                program,
                lambda y, m=m: mid_base + (m * mid_h + y) * mid_w * 2,
                lambda r, m=m: out_base
                + (m * layer.out_h + r) * layer.out_w * 2,
                mid_w,
                layer.out_h,
            )
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for m in my_maps:
            for r in range(layer.out_h):
                got = read_words(
                    mem,
                    out_base + (m * layer.out_h + r) * layer.out_w * 2,
                    layer.out_w,
                    elem_bytes=2,
                )
                check_equal(f"{layer.name}[map {m} row {r}]", got, expected[m][r])

    passes = 2 if layer.window == 4 else 1
    return BuiltWorkload(
        name=layer.name,
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "layer": layer,
            "unit_id": unit_id,
            "num_units": num_units,
            "passes": passes,
            "instances": sum(
                len(my_maps) * (layer.in_w >> (s + 1)) * (layer.in_h >> (s + 1)) // LANES
                for s in range(passes)
            ),
        },
    )

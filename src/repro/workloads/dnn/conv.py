"""Convolutional layer as a stream-dataflow program.

Strategy (all 16-bit fixed point, packed four values per word):

* Weights for one output map are *broadcast-expanded* (each 16-bit weight
  replicated into all four lanes of a word) and staged in the scratchpad;
  a zero-stride **repeating** pattern re-streams them once per output row —
  the scratchpad-reuse idiom the architecture exists for.
* Input windows stream from memory with **overlapped** affine patterns:
  for a kernel row, the K shifted views of a packed output-row block are
  K accesses at a 2-byte stride (Figure 5's overlapped class).
* Sub-word lane accumulators (``acc @16``) run the reduction over all
  (input map, ky, kx) instances of an output row block; ``Port_R`` resets
  them, ``SD_Clean`` discards intermediate outputs, exactly as in the
  classifier example.
* Two output rows are processed per instance (two parallel row datapaths
  sharing the broadcast weight), so one instance retires
  ``4 * port_words * 2`` MACs — enough to occupy all eight multipliers.
"""

from __future__ import annotations

import operator
from typing import List

from ...cgra.fabric import Fabric, dnn_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.isa.patterns import SCRATCH_BYTES
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)
from .layers import ConvLayer

PACK = 4  # 16-bit values per word


def conv_dfg(port_words: int, rows: int = 2) -> Dfg:
    """``rows`` parallel row datapaths sharing one broadcast weight.

    Each row r contributes ``port_words`` packed multiply + lane-accumulate
    pairs (A<r> x B -> C<r>), so one instance retires
    ``4 * port_words * rows`` MACs — enough to keep all eight multipliers
    of the DNN-provisioned fabric busy.
    """
    b = DfgBuilder(f"conv{port_words}x{rows}")
    w = b.input("B", 1)
    r = b.input("R", 1)
    for row in range(rows):
        a = b.input(f"A{row}", port_words)
        outs = []
        for j in range(port_words):
            product = b.mul(a[j], w[0], lane_bits=16)
            outs.append(b.op("acc", product, r[0], lane_bits=16))
        b.output(f"C{row}", outs)
    return b.build()


def reference_conv(
    layer: ConvLayer, inputs: List[List[List[int]]], weights: List[List[List[List[int]]]]
) -> List[List[List[int]]]:
    """Plain convolution (valid padding, stride 1), wrapped to 16 bits.

    Each output is one dot product of the output map's weights, flattened
    in (input map, ky, kx) order, with the input window flattened alike;
    the windows are shared by every output map.
    """
    k = layer.k
    windows = []
    for y in range(layer.out_h):
        for x in range(layer.out_w):
            window = []
            for plane in inputs:
                for row in plane[y:y + k]:
                    window += row[x:x + k]
            windows.append(window)
    out = []
    for o in range(layer.n_out):
        kernel = [w for plane in weights[o] for row in plane for w in row]
        flat = []
        for window in windows:
            total = sum(map(operator.mul, kernel, window)) & 0xFFFF
            flat.append(total - 0x10000 if total >= 0x8000 else total)
        out.append([flat[y * layer.out_w:(y + 1) * layer.out_w]
                    for y in range(layer.out_h)])
    return out


def broadcast_word(weight: int) -> int:
    """Replicate a 16-bit value into all four lanes of a word."""
    w = weight & 0xFFFF
    return w | (w << 16) | (w << 32) | (w << 48)


def build_conv(
    layer: ConvLayer,
    unit_id: int = 0,
    num_units: int = 1,
    fabric: Fabric = None,
    seed: int = 2,
) -> BuiltWorkload:
    """Build one unit's share of the layer ((map, row) pairs partitioned)."""
    if layer.out_w % PACK:
        raise ValueError("out_w must be a multiple of 4 (packed words)")
    fabric = fabric or dnn_provisioned()
    rng = make_rng(seed)

    port_words = min(4, layer.out_w // PACK)
    block_w = port_words * PACK  # output columns per instance (per row)
    if layer.out_w % block_w:
        raise ValueError("out_w must divide into packed blocks")
    blocks = layer.out_w // block_w
    rows_per_group = 2 if layer.out_h % 2 == 0 else 1

    inputs = [
        [draw_ints(rng, -4, 3, layer.in_w) for _ in range(layer.in_h)]
        for _ in range(layer.n_in)
    ]
    weights = [
        [
            [draw_ints(rng, -4, 3, layer.k) for _ in range(layer.k)]
            for _ in range(layer.n_in)
        ]
        for _ in range(layer.n_out)
    ]
    expected = reference_conv(layer, inputs, weights)

    image = []
    alloc = Allocator()
    row_bytes = layer.in_w * 2
    in_addr = alloc.alloc(layer.n_in * layer.in_h * row_bytes)
    out_row_bytes = layer.out_w * 2
    out_addr = alloc.alloc(layer.n_out * layer.out_h * out_row_bytes)
    kkn = layer.k * layer.k * layer.n_in  # instances per output block
    wb_addr = alloc.alloc(layer.n_out * kkn * 8)

    def input_row_addr(i: int, row: int) -> int:
        return in_addr + (i * layer.in_h + row) * row_bytes

    for i, plane in enumerate(inputs):
        for y, row in enumerate(plane):
            image.append((input_row_addr(i, y), pack_words(row, 2)))
    # Host-prepared broadcast weight image: per output map, the kkn weights
    # in (i, ky, kx) stream order, one word each with the weight in all lanes.
    for o in range(layer.n_out):
        words = [
            broadcast_word(weights[o][i][ky][kx])
            for i in range(layer.n_in)
            for ky in range(layer.k)
            for kx in range(layer.k)
        ]
        image.append((wb_addr + o * kkn * 8, pack_words(words, 8)))

    dfg = conv_dfg(port_words, rows_per_group)
    config = schedule(dfg, fabric)
    program = StreamProgram(f"{layer.name}-u{unit_id}", config)

    # Partition (output map, row-group) pairs in contiguous chunks.
    flat = [
        (o, y)
        for o in range(layer.n_out)
        for y in range(0, layer.out_h, rows_per_group)
    ]
    chunk = len(flat) // num_units
    lo = unit_id * chunk
    hi = len(flat) if unit_id == num_units - 1 else lo + chunk
    work = flat[lo:hi]

    # Stage ALL input planes in the scratchpad once: the overlapped window
    # views re-read every input element ~K times per output map, and the
    # scratchpad is the architecture's mechanism for exactly this reuse.
    in_bytes = layer.n_in * layer.in_h * row_bytes
    if in_bytes > SCRATCH_BYTES:
        raise ValueError("input planes exceed the 4 KB scratchpad")
    program.mem_scratch(in_addr, in_bytes, in_bytes, 1, 0)
    program.barrier_scratch_wr()

    def scratch_row_addr(i: int, row: int) -> int:
        return (i * layer.in_h + row) * row_bytes

    for o, y in work:
        for block in range(blocks):
            x0 = block * block_w
            # Short coordination streams first so the deep A-stream command
            # sequence can never starve them in the finite command queue.
            program.const_port(0, kkn - 1, "R")
            program.const_port(1, 1, "R")
            for row in range(rows_per_group):
                program.clean_port((kkn - 1) * port_words, f"C{row}")
                program.port_mem(
                    f"C{row}",
                    8,
                    block_w * 2,
                    1,
                    out_addr
                    + (o * layer.out_h + y + row) * out_row_bytes
                    + 2 * x0,
                )
            # Broadcast weights stream linearly from memory (cached in L2).
            program.mem_port(wb_addr + o * kkn * 8, kkn * 8, kkn * 8, 1, "B")
            # Input windows stream from the scratchpad: per (i, ky) an
            # overlapped pattern delivering the K shifted views (kx 0..K-1).
            for i in range(layer.n_in):
                for ky in range(layer.k):
                    for row in range(rows_per_group):
                        start = scratch_row_addr(i, y + row + ky) + 2 * x0
                        program.scratch_port(
                            start, 2, block_w * 2, layer.k, f"A{row}",
                            signed=True,
                        )
            program.host(3)  # block loop: address updates
        program.host(2)  # row-group loop
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for o, y in work:
            for row in range(rows_per_group):
                got = read_words(
                    mem,
                    out_addr + (o * layer.out_h + y + row) * out_row_bytes,
                    layer.out_w,
                    elem_bytes=2,
                )
                check_equal(
                    f"{layer.name}[map {o} row {y + row}]",
                    got,
                    expected[o][y + row],
                )

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
            "instances": len(work) * blocks * kkn,
            "macs": len(work) * rows_per_group * layer.out_w * kkn,
        },
    )

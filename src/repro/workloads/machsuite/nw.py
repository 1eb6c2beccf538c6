"""MachSuite ``nw`` (Needleman-Wunsch) — extension workload (footnote 3).

Sequence alignment by wavefront dynamic programming.  Each anti-diagonal of
the score matrix is one stream-dataflow phase: the three predecessor views
(diagonal, up, left) stream with *strided* affine patterns (an anti-
diagonal of a row-major matrix is a constant-stride walk), the sequence
characters stream linearly (the second sequence from a host-reversed copy,
since stream strides are non-negative), and a 7-instruction
compare/select/max datapath computes the cells.  A full barrier separates
anti-diagonals — the architecture's idiom for wavefront dependences.
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

#: sequence lengths, scaled for simulator speed
SEQ_LEN = 24

MATCH = 2
MISMATCH = -1
GAP = -2


def nw_dfg() -> Dfg:
    """max(diag + score(a, b), up - gap, left - gap)."""
    b = DfgBuilder("nw-cell")
    a_char = b.input("A", 1)
    b_char = b.input("B", 1)
    diag = b.input("D", 1)
    up = b.input("U", 1)
    left = b.input("L", 1)
    score = b.select(b.op("eq", a_char[0], b_char[0]), MATCH, MISMATCH)
    via_diag = b.add(diag[0], score)
    via_up = b.add(up[0], GAP)
    via_left = b.add(left[0], GAP)
    b.output("O", b.max(via_diag, b.max(via_up, via_left)))
    return b.build()


def nw_inputs(seed: int, length: int) -> Tuple[List[int], List[int]]:
    """Two random DNA sequences (alphabet 0-3)."""
    rng = make_rng(seed)
    a = draw_ints(rng, 0, 3, length)
    b = draw_ints(rng, 0, 3, length)
    return a, b


def nw_kernel(ev: Evaluator, a: List[int], b: List[int]) -> None:
    """The full (len(a)+1) x (len(b)+1) score matrix, row-major in
    ``score``."""
    rows, cols = len(a) + 1, len(b) + 1
    ev.array("a", a)
    ev.array("b", b)
    init = [0] * (rows * cols)
    for i in range(rows):
        init[i * cols] = i * GAP
    for j in range(cols):
        init[j] = j * GAP
    ev.array("score", init)
    match_v, mismatch_v = ev.const(MATCH), ev.const(MISMATCH)
    gap_v = ev.const(GAP)
    for i in range(1, rows):
        for j in range(1, cols):
            same = ev.compare_eq(ev.load("a", i - 1), ev.load("b", j - 1))
            score = ev.select(same, match_v, mismatch_v)
            via_diag = ev.add(ev.load("score", (i - 1) * cols + j - 1), score)
            via_up = ev.add(ev.load("score", (i - 1) * cols + j), gap_v)
            via_left = ev.add(ev.load("score", i * cols + j - 1), gap_v)
            ev.store("score", i * cols + j, ev.maximum(via_diag, ev.maximum(via_up, via_left)))


def build_nw(
    fabric: Fabric = None, seed: int = 19, length: int = SEQ_LEN
) -> BuiltWorkload:
    fabric = fabric or broadly_provisioned()
    a, b = nw_inputs(seed, length)
    expected = evaluate(nw_kernel, a, b).array_values("score")

    rows, cols = length + 1, length + 1
    image = []
    alloc = Allocator()
    row_bytes = cols * 8
    mat_addr = alloc.alloc(rows * row_bytes)
    a_addr = alloc.alloc(length * 8)
    b_rev_addr = alloc.alloc(length * 8)  # host-reversed second sequence
    image.append((a_addr, pack_words(a)))
    image.append((b_rev_addr, pack_words(list(reversed(b)))))
    # Boundary conditions preloaded by the host.
    for i in range(rows):
        image.append((mat_addr + i * row_bytes, pack_words([i * GAP])))
    image.append((mat_addr, pack_words([j * GAP for j in range(cols)])))

    def cell(i: int, j: int) -> int:
        return mat_addr + i * row_bytes + j * 8

    dfg = nw_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("nw", config)

    # Anti-diagonal stride in bytes: moving (i+1, j-1) in a row-major
    # matrix advances by one row minus one column.
    diag_stride = row_bytes - 8
    for d in range(2, rows + cols - 1):
        i_lo = max(1, d - (cols - 1))
        i_hi = min(rows - 1, d - 1)
        count = i_hi - i_lo + 1
        if count <= 0:
            continue
        j_hi = d - i_lo  # column of the first (lowest-i) cell
        program.mem_port(cell(i_lo - 1, j_hi - 1), diag_stride, 8, count, "D")
        program.mem_port(cell(i_lo - 1, j_hi), diag_stride, 8, count, "U")
        program.mem_port(cell(i_lo, j_hi - 1), diag_stride, 8, count, "L")
        program.mem_port(a_addr + (i_lo - 1) * 8, 8, 8, count, "A")
        # b[j-1] for j = j_hi down to j_lo: a forward walk of reversed(b).
        program.mem_port(
            b_rev_addr + (length - j_hi) * 8, 8, 8, count, "B"
        )
        program.port_mem("O", diag_stride, 8, count, cell(i_lo, j_hi))
        program.host(5)  # diagonal loop: bounds + address arithmetic
        program.barrier_all()  # wavefront dependence

    def verify(mem: MemorySystem) -> None:
        for i in range(rows):
            got = read_words(mem, mat_addr + i * row_bytes, cols)
            check_equal(f"nw[row {i}]", got, expected[i * cols:(i + 1) * cols])

    return BuiltWorkload(
        name="nw",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "length": length,
            "cells": length * length,
            "instances": length * length,
            "final_score": expected[-1],
        },
    )


def nw_ddg(length: int = SEQ_LEN, seed: int = 19) -> Ddg:
    return trace("nw", nw_kernel, *nw_inputs(seed, length))


def nw_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=4, base_mul=1)


def nw_census(length: int = SEQ_LEN, ddg: Optional[Ddg] = None) -> ScalarWorkload:
    return ScalarWorkload.from_ddg(
        nw_ddg(length) if ddg is None else ddg,
        branches=2 * length * length,
        mispredict_rate=0.08,
    )

"""MachSuite ``fft`` — one of the paper's "also fits" workloads (footnote 3).

Iterative radix-2 decimation-in-time FFT in fixed point (Q12 twiddles).
Each stage is one stream-dataflow phase: the even/odd butterfly operands
stream with 2D affine patterns (one command covers *all* groups of the
stage), the stage's twiddle factors repeat per group with a zero-stride
pattern, and a 12-instruction complex-butterfly datapath produces both
outputs.  Stages ping-pong between two buffers with a full barrier in
between — reading and writing the same array within a phase would be the
undefined-behaviour case the ISA's barrier rules exist to prevent.
"""

from __future__ import annotations

import math
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

#: transform size (power of two), scaled for simulator speed
N_POINTS = 64
#: twiddle fixed-point fraction bits
FRAC = 12
SCALE = 1 << FRAC


def fft_dfg() -> Dfg:
    """One complex butterfly: (a, b, w) -> (a + w*b, a - w*b), Q12."""
    b = DfgBuilder("fft-butterfly")
    ar, ai = b.input("AR", 1), b.input("AI", 1)
    br, bi = b.input("BR", 1), b.input("BI", 1)
    wr, wi = b.input("WR", 1), b.input("WI", 1)
    tr = b.op("shr", b.sub(b.mul(wr[0], br[0]), b.mul(wi[0], bi[0])), FRAC)
    ti = b.op("shr", b.add(b.mul(wr[0], bi[0]), b.mul(wi[0], br[0])), FRAC)
    b.output("O1R", b.add(ar[0], tr))
    b.output("O1I", b.add(ai[0], ti))
    b.output("O2R", b.sub(ar[0], tr))
    b.output("O2I", b.sub(ai[0], ti))
    return b.build()


def twiddles(n: int) -> Tuple[List[int], List[int]]:
    """Q12 twiddle factors w^j = exp(-2*pi*i*j/n) for j in [0, n/2)."""
    real, imag = [], []
    for j in range(n // 2):
        angle = -2.0 * math.pi * j / n
        real.append(round(math.cos(angle) * SCALE))
        imag.append(round(math.sin(angle) * SCALE))
    return real, imag


def bit_reverse_permute(values: List[int]) -> List[int]:
    n = len(values)
    bits = n.bit_length() - 1
    out = [0] * n
    for i, v in enumerate(values):
        out[int(format(i, f"0{bits}b")[::-1], 2)] = v
    return out


def fft_inputs(seed: int, n: int) -> Tuple[List[int], List[int]]:
    """The signal's real and imaginary parts."""
    rng = make_rng(seed)
    real = draw_ints(rng, -500, 500, n)
    imag = draw_ints(rng, -500, 500, n)
    return real, imag


def fft_kernel(ev: Evaluator, real: List[int], imag: List[int]) -> None:
    """Fixed-point radix-2 DIT FFT, in place on ``re``/``im`` (loaded in
    bit-reversed order)."""
    n = len(real)
    wr_all, wi_all = twiddles(n)
    ev.array("re", bit_reverse_permute(real))
    ev.array("im", bit_reverse_permute(imag))
    ev.array("wr", wr_all)
    ev.array("wi", wi_all)
    half = 1
    while half < n:
        stride = n // (2 * half)  # twiddle index step for this stage
        for group_start in range(0, n, 2 * half):
            for j in range(half):
                a, b = group_start + j, group_start + j + half
                ar, ai = ev.load("re", a), ev.load("im", a)
                br, bi = ev.load("re", b), ev.load("im", b)
                wr = ev.load("wr", j * stride)
                wi = ev.load("wi", j * stride)
                tr = ev.shift_right(
                    ev.sub(ev.mul(wr, br), ev.mul(wi, bi)), FRAC
                )
                ti = ev.shift_right(
                    ev.add(ev.mul(wr, bi), ev.mul(wi, br)), FRAC
                )
                ev.store("re", a, ev.add(ar, tr))
                ev.store("im", a, ev.add(ai, ti))
                ev.store("re", b, ev.sub(ar, tr))
                ev.store("im", b, ev.sub(ai, ti))
        half *= 2


def build_fft(
    fabric: Fabric = None, seed: int = 18, n: int = N_POINTS
) -> BuiltWorkload:
    if n & (n - 1) or n < 4:
        raise ValueError("n must be a power of two >= 4")
    fabric = fabric or broadly_provisioned()
    real, imag = fft_inputs(seed, n)
    result = evaluate(fft_kernel, real, imag)
    exp_re, exp_im = result.array_values("re"), result.array_values("im")
    wr_all, wi_all = twiddles(n)

    image = []
    alloc = Allocator()
    # Ping-pong complex buffers (separate real/imag planes).
    buf_re = [alloc.alloc(n * 8), alloc.alloc(n * 8)]
    buf_im = [alloc.alloc(n * 8), alloc.alloc(n * 8)]
    tw_re = alloc.alloc(max(1, n // 2) * 8)
    tw_im = alloc.alloc(max(1, n // 2) * 8)
    # Host performs the bit-reversal permutation while loading (a fixed
    # data layout step, like the paper's host-generated start addresses).
    image.append((buf_re[0], pack_words(bit_reverse_permute(real))))
    image.append((buf_im[0], pack_words(bit_reverse_permute(imag))))
    image.append((tw_re, pack_words(wr_all)))
    image.append((tw_im, pack_words(wi_all)))

    dfg = fft_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("fft", config)

    half = 1
    src = 0
    while half < n:
        dst = 1 - src
        groups = n // (2 * half)
        group_bytes = 2 * half * 8
        stride_tw = groups  # twiddle index step == group count
        half_bytes = half * 8

        def plane_patterns(base: int, offset: int) -> Tuple[int, int, int, int]:
            return (base + offset, group_bytes, half_bytes, groups)

        # One command per operand covers every group of the stage.
        for port, base, offset in (
            ("AR", buf_re[src], 0),
            ("AI", buf_im[src], 0),
            ("BR", buf_re[src], half_bytes),
            ("BI", buf_im[src], half_bytes),
        ):
            start, stride, access, count = plane_patterns(base, offset)
            program.mem_port(start, stride, access, count, port)
        # Twiddles for the stage: w[0], w[s], w[2s], ... repeated per group.
        if half == 1:
            program.const_port(SCALE, groups, "WR")  # w^0 = 1 + 0i
            program.const_port(0, groups, "WI")
        else:
            # Stage twiddles w^(j*stride) for j in [0, half): a strided
            # pattern, re-issued once per group (the repeat dimension would
            # need a third affine level, which the 2D ISA doesn't have —
            # the control core regenerates the short command instead).
            for _group in range(groups):
                program.mem_port(tw_re, stride_tw * 8, 8, half, "WR")
                program.mem_port(tw_im, stride_tw * 8, 8, half, "WI")
        # Outputs: same affine shapes, into the destination buffer.
        for port, base, offset in (
            ("O1R", buf_re[dst], 0),
            ("O1I", buf_im[dst], 0),
            ("O2R", buf_re[dst], half_bytes),
            ("O2I", buf_im[dst], half_bytes),
        ):
            start, stride, access, count = plane_patterns(base, offset)
            program.port_mem(port, stride, access, count, start)
        program.host(4)  # stage loop bookkeeping
        program.barrier_all()  # ping-pong: next stage reads these writes
        src = dst
        half *= 2

    final_re, final_im = buf_re[src], buf_im[src]

    def verify(mem: MemorySystem) -> None:
        check_equal("fft real", read_words(mem, final_re, n), exp_re)
        check_equal("fft imag", read_words(mem, final_im, n), exp_im)

    return BuiltWorkload(
        name="fft",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "n": n,
            "stages": n.bit_length() - 1,
            "instances": (n // 2) * (n.bit_length() - 1),
        },
    )


def fft_ddg(n: int = N_POINTS, seed: int = 18) -> Ddg:
    return trace("fft", fft_kernel, *fft_inputs(seed, n))


def fft_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=4, base_mul=4)


def fft_census(n: int = N_POINTS, ddg: Optional[Ddg] = None) -> ScalarWorkload:
    stages = n.bit_length() - 1
    return ScalarWorkload.from_ddg(
        fft_ddg(n) if ddg is None else ddg,
        branches=(n // 2) * stages,  # one per butterfly
    )

"""MachSuite ``backprop`` (one MLP layer update) — extension workload.

The backward pass the paper's footnote 3 lists as fitting the paradigm.
For a fully-connected layer with activations ``act`` and output-error
``delta``, the weight update is an outer product::

    W[i][j] -= (act[i] * delta[j]) >> SHIFT      (fixed-point learning rate)

Streamed as: per input neuron i, the delta row streams linearly (4-wide),
``act[i]`` broadcasts from a constant stream, the current weight row
streams in, and the updated row streams out to a ping-pong buffer (reading
and writing the same rows within one phase is the ISA's undefined case).
Also computes the back-propagated error ``err[i] = sum_j W[i][j]*delta[j]``
with the accumulate/reset idiom, making this a two-output-port datapath.
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

#: layer shape (inputs x outputs), scaled for simulator speed
N_IN = 24
N_OUT = 16
#: fixed-point learning-rate shift (lr = 2^-SHIFT)
SHIFT = 4
#: outputs per instance — 4-way fills the 20-FU fabric exactly
#: (4 x (2 mul + shr + sub) + 3-add tree + accumulator = 20 instructions)
WAY = 4


def backprop_dfg() -> Dfg:
    """W(4) x D(4) x broadcast act(1) -> updated weights + error sum."""
    b = DfgBuilder("backprop")
    w = b.input("W", WAY)
    d = b.input("D", WAY)
    act = b.input("A", 1)
    r = b.input("R", 1)
    new_w = []
    contribs = []
    for j in range(WAY):
        gradient = b.op("shr", b.mul(act[0], d[j]), SHIFT)
        new_w.append(b.sub(w[j], gradient))
        contribs.append(b.mul(w[j], d[j]))
    b.output("NW", new_w)
    b.output("E", b.accumulate(b.reduce_tree("add", contribs), r[0]))
    return b.build()


def backprop_inputs(
    seed: int, n_in: int, n_out: int
) -> Tuple[List[int], List[int], List[int]]:
    """Weights (row-major, n_in x n_out), activations and output errors."""
    rng = make_rng(seed)
    weights = draw_ints(rng, -100, 100, n_in * n_out)
    act = draw_ints(rng, 0, 60, n_in)
    delta = draw_ints(rng, -40, 40, n_out)
    return weights, act, delta


def backprop_kernel(
    ev: Evaluator, weights: List[int], act: List[int], delta: List[int]
) -> None:
    """Updates ``w`` in place and writes the back-propagated ``err``."""
    n_in, n_out = len(act), len(delta)
    ev.array("w", weights)
    ev.array("act", act)
    ev.array("delta", delta)
    ev.array("err", [0] * n_in)
    for i in range(n_in):
        a = ev.load("act", i)
        total = ev.const(0)
        for j in range(n_out):
            w = ev.load("w", i * n_out + j)
            d = ev.load("delta", j)
            total = ev.add(total, ev.mul(w, d))
            gradient = ev.shift_right(ev.mul(a, d), SHIFT)
            ev.store("w", i * n_out + j, ev.sub(w, gradient))
        ev.store("err", i, total)


def build_backprop(
    fabric: Fabric = None,
    seed: int = 20,
    n_in: int = N_IN,
    n_out: int = N_OUT,
) -> BuiltWorkload:
    if n_out % WAY:
        raise ValueError(f"n_out must be a multiple of {WAY}")
    fabric = fabric or broadly_provisioned()
    weights, act, delta = backprop_inputs(seed, n_in, n_out)
    result = evaluate(backprop_kernel, weights, act, delta)
    exp_weights, exp_err = result.array_values("w"), result.array_values("err")

    image = []
    alloc = Allocator()
    row_bytes = n_out * 8
    w_addr = alloc.alloc(n_in * row_bytes)
    w_new_addr = alloc.alloc(n_in * row_bytes)  # ping-pong destination
    d_addr = alloc.alloc(n_out * 8)
    e_addr = alloc.alloc(n_in * 8)
    image.append((w_addr, pack_words(weights)))
    image.append((d_addr, pack_words(delta)))

    dfg = backprop_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("backprop", config)

    blocks = n_out // WAY
    for i in range(n_in):
        program.const_port(act[i], blocks, "A")
        if blocks > 1:
            program.const_port(0, blocks - 1, "R")
            program.clean_port(blocks - 1, "E")
        program.const_port(1, 1, "R")
        program.port_mem("E", 8, 8, 1, e_addr + i * 8)
        program.mem_port(w_addr + i * row_bytes, row_bytes, row_bytes, 1, "W")
        program.mem_port(d_addr, n_out * 8, n_out * 8, 1, "D")
        program.port_mem("NW", row_bytes, row_bytes, 1, w_new_addr + i * row_bytes)
        program.host(3)  # neuron loop
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        for i in range(n_in):
            got = read_words(mem, w_new_addr + i * row_bytes, n_out)
            check_equal(f"backprop weights[{i}]", got,
                        exp_weights[i * n_out:(i + 1) * n_out])
        got_err = read_words(mem, e_addr, n_in)
        check_equal("backprop error", got_err, exp_err)

    return BuiltWorkload(
        name="backprop",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "n_in": n_in,
            "n_out": n_out,
            "instances": n_in * blocks,
            "macs": 2 * n_in * n_out,
        },
    )


def backprop_ddg(n_in: int = N_IN, n_out: int = N_OUT, seed: int = 20) -> Ddg:
    inputs = backprop_inputs(seed, n_in, n_out)
    return trace("backprop", backprop_kernel, *inputs)


def backprop_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=2, base_mul=2)


def backprop_census(n_in: int = N_IN, n_out: int = N_OUT,
                    ddg: Optional[Ddg] = None) -> ScalarWorkload:
    return ScalarWorkload.from_ddg(
        backprop_ddg(n_in, n_out) if ddg is None else ddg,
        branches=n_in * n_out // 4,
    )

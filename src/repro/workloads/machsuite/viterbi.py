"""MachSuite ``viterbi``: dynamic-programming decoder (Table 4: recurrence +
linear patterns, 4-way add-minimize tree).

Negative-log-likelihood formulation::

    llike[t][s] = emit[t][s] + min_{s'} (llike[t-1][s'] + trans[s'][s])

Per (t, s) the previous timestep's row streams linearly against a column
of the (host-transposed) transition matrix through a 4-way add/min tree
and a min-accumulator; the inter-timestep dependence runs through memory
with a full barrier per step — the architecture's documented idiom for
dependence chains longer than the vector-port buffering.
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

#: hidden states and observation steps, scaled for simulator speed
N_STATES = 16
N_STEPS = 24
WAY = 4


def viterbi_dfg() -> Dfg:
    """prev(4) + trans(4) -> min tree -> min-accumulate -> +emit -> C."""
    b = DfgBuilder("viterbi")
    prev = b.input("A", WAY)
    trans = b.input("B", WAY)
    emit = b.input("E", 1)
    r = b.input("R", 1)
    sums = [b.add(prev[j], trans[j]) for j in range(WAY)]
    best = b.reduce_tree("min", sums)
    running = b.op("accmin", best, r[0])
    b.output("C", b.add(running, emit[0]))
    return b.build()


def viterbi_inputs(
    seed: int, n_states: int, n_steps: int
) -> Tuple[List[int], List[int], List[int]]:
    """Initial costs, transition costs [s'][s] and emission costs [t][s],
    row-major."""
    rng = make_rng(seed)
    init = draw_ints(rng, 0, 100, n_states)
    trans = draw_ints(rng, 1, 60, n_states * n_states)
    emit = draw_ints(rng, 0, 40, n_steps * n_states)
    return init, trans, emit


def viterbi_kernel(
    ev: Evaluator, init: List[int], trans: List[int], emit: List[int]
) -> None:
    """The llike recurrence over double-buffered rows of ``llike``; the last
    timestep's row is row ``(n_steps - 1) % 2``."""
    n_states = len(init)
    n_steps = len(emit) // n_states
    ev.array("trans", trans)
    ev.array("emit", emit)
    ev.array("llike", init + [0] * n_states)
    for step in range(1, n_steps):
        prev = ((step - 1) % 2) * n_states
        cur = (step % 2) * n_states
        for s in range(n_states):
            best = None
            for sp in range(n_states):
                cand = ev.add(
                    ev.load("llike", prev + sp), ev.load("trans", sp * n_states + s)
                )
                best = cand if best is None else ev.minimum(best, cand)
            ev.store(
                "llike", cur + s, ev.add(best, ev.load("emit", step * n_states + s))
            )


def build_viterbi(
    fabric: Fabric = None,
    seed: int = 17,
    n_states: int = N_STATES,
    n_steps: int = N_STEPS,
) -> BuiltWorkload:
    if n_states % WAY:
        raise ValueError(f"n_states must be a multiple of {WAY}")
    fabric = fabric or broadly_provisioned()
    init, trans, emit = viterbi_inputs(seed, n_states, n_steps)
    final = ((n_steps - 1) % 2) * n_states
    llike = evaluate(viterbi_kernel, init, trans, emit).array_values("llike")
    expected = llike[final:final + n_states]

    image = []
    alloc = Allocator()
    # Host preprocessing: transpose the transition matrix so a state's
    # incoming costs are a linear stream (a one-time layout transformation).
    trans_t_addr = alloc.alloc(n_states * n_states * 8)
    emit_addr = alloc.alloc(n_steps * n_states * 8)
    llike_addr = alloc.alloc(2 * n_states * 8)  # double-buffered rows
    for s in range(n_states):
        image.append((
            trans_t_addr + s * n_states * 8,
            pack_words([trans[sp * n_states + s] for sp in range(n_states)]),
        ))
    image.append((emit_addr, pack_words(emit)))
    image.append((llike_addr, pack_words(init)))

    dfg = viterbi_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("viterbi", config)

    instances = n_states // WAY  # per (t, s)
    row_bytes = n_states * 8
    for t in range(1, n_steps):
        prev_row = llike_addr + ((t - 1) % 2) * row_bytes
        cur_row = llike_addr + (t % 2) * row_bytes
        for s in range(n_states):
            if instances > 1:
                program.const_port(0, instances - 1, "R")
                program.clean_port(instances - 1, "C")
            program.const_port(1, 1, "R")
            program.port_mem("C", 8, 8, 1, cur_row + s * 8)
            program.mem_port(prev_row, row_bytes, row_bytes, 1, "A")
            program.mem_port(
                trans_t_addr + s * row_bytes, row_bytes, row_bytes, 1, "B"
            )
            # The emission term repeats for every instance of this state.
            program.mem_port(
                emit_addr + (t * n_states + s) * 8, 0, 8, instances, "E"
            )
            program.host(3)  # state loop
        program.barrier_all()  # timestep dependence through memory
        program.host(2)

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, llike_addr + final * 8, n_states)
        check_equal("viterbi", got, expected)

    return BuiltWorkload(
        name="viterbi",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={
            "states": n_states,
            "steps": n_steps,
            "instances": (n_steps - 1) * n_states * instances,
        },
    )


def viterbi_ddg(
    n_states: int = N_STATES, n_steps: int = N_STEPS, seed: int = 17
) -> Ddg:
    inputs = viterbi_inputs(seed, n_states, n_steps)
    return trace("viterbi", viterbi_kernel, *inputs)


def viterbi_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=4, base_mul=1)


def viterbi_census(n_states: int = N_STATES, n_steps: int = N_STEPS) -> ScalarWorkload:
    work = (n_steps - 1) * n_states * n_states
    return ScalarWorkload(
        name="viterbi",
        int_ops=2 * work,
        loads=2 * work,
        stores=(n_steps - 1) * n_states,
        branches=work,
        memory_bytes=8 * (n_states * n_states + n_steps * n_states),
        critical_path=(n_steps - 1) * 8,  # timestep serialisation
    )

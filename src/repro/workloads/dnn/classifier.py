"""Classifier (fully-connected) layer as a stream-dataflow program.

This is the paper's running example (Figure 6): synapses stream from
memory, input neurons are staged in the scratchpad and re-read per output
neuron with a repeating pattern, a packed 16-bit multiply/adder-tree/
accumulator datapath reduces them, and a sigmoid finishes each neuron.
The ``Port_R`` constant stream drives accumulator reset exactly as in the
paper's listing; ``SD_Clean`` discards the non-final accumulator outputs.

Data is 16-bit fixed point packed four-per-word, so each computation
instance retires 16 multiply-accumulates on the 4x16-bit sub-word datapath.
"""

from __future__ import annotations

import operator
from typing import List

from ...cgra.fabric import Fabric, dnn_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.dfg.instructions import fixed_point_sigmoid
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)
from .layers import ClassifierLayer

#: values per packed 64-bit word
PACK = 4
#: 16-bit MACs per computation instance (4 words x 4 lanes)
MACS_PER_INSTANCE = 16


def classifier_dfg() -> Dfg:
    """S(4) x N(4) -> 16-MAC tree -> accumulate -> sigmoid -> C(1)."""
    b = DfgBuilder("classifier")
    s = b.input("S", 4)
    n = b.input("N", 4)
    r = b.input("R", 1)
    products = [b.mul(s[j], n[j], lane_bits=16) for j in range(4)]
    partial = [b.op("hadd", p, lane_bits=16) for p in products]
    total = b.reduce_tree("add", partial)
    accum = b.accumulate(total, r[0])
    b.output("C", b.sigmoid(accum))
    return b.build()


def reference_classifier(synapse: List[List[int]], neuron_i: List[int]) -> List[int]:
    """Reference semantics (matches the 16-bit fixed-point datapath)."""
    out = []
    for row in synapse:
        total = sum(map(operator.mul, row, neuron_i))
        out.append(fixed_point_sigmoid(total))
    return out


def build_classifier(
    layer: ClassifierLayer,
    unit_id: int = 0,
    num_units: int = 1,
    fabric: Fabric = None,
    seed: int = 1,
) -> BuiltWorkload:
    """Build the stream program for one Softbrain unit's share of the layer.

    Output neurons are block-partitioned across ``num_units`` units; each
    unit runs the Figure 6 program over its contiguous block of synapse
    rows.
    """
    if layer.ni % MACS_PER_INSTANCE:
        raise ValueError(f"ni must be a multiple of {MACS_PER_INSTANCE}")
    if layer.nn % num_units:
        raise ValueError("nn must divide evenly across units")
    fabric = fabric or dnn_provisioned()
    rng = make_rng(seed)

    ni, nn = layer.ni, layer.nn
    nn_unit = nn // num_units
    first = unit_id * nn_unit

    synapse = [draw_ints(rng, -8, 7, ni) for _ in range(nn)]
    neuron_i = draw_ints(rng, -8, 7, ni)
    expected = reference_classifier(synapse[first : first + nn_unit], neuron_i)

    image = []
    alloc = Allocator()
    syn_addr = alloc.alloc(nn * ni * 2)
    neu_addr = alloc.alloc(ni * 2)
    out_addr = alloc.alloc(nn * 2)
    for n_idx, row in enumerate(synapse):
        image.append((syn_addr + n_idx * ni * 2, pack_words(row, 2)))
    image.append((neu_addr, pack_words(neuron_i, 2)))

    dfg = classifier_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram(f"{layer.name}-u{unit_id}", config)

    row_bytes = ni * 2
    # Stage input neurons in the scratchpad (packed words), then stream the
    # unit's synapse rows while re-reading neurons with a repeating pattern.
    program.mem_scratch(neu_addr, row_bytes, row_bytes, 1, 0)
    program.barrier_scratch_wr()
    unit_syn = syn_addr + first * row_bytes
    program.mem_port(unit_syn, row_bytes, row_bytes, nn_unit, "S")
    program.scratch_port(0, 0, row_bytes, nn_unit, "N")

    instances_per_neuron = ni // MACS_PER_INSTANCE
    for n_idx in range(nn_unit):
        program.const_port(0, instances_per_neuron - 1, "R")
        program.const_port(1, 1, "R")
        program.clean_port(instances_per_neuron - 1, "C")
        program.port_mem("C", 2, 2, 1, out_addr + 2 * (first + n_idx), elem_bytes=2)
        program.host(2)  # n loop increment + address update
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, out_addr + 2 * first, nn_unit, elem_bytes=2)
        check_equal(layer.name, got, expected)

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
            "instances": nn_unit * instances_per_neuron,
            "macs": nn_unit * ni,
        },
    )

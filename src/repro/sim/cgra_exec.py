"""Pipelined CGRA execution with coarse-grained dataflow firing.

Section 4.4: when one instance worth of data is available on every relevant
input vector port — and, because the mesh has no flow control, space is
guaranteed at the output ports — all of it is released into the fabric
simultaneously.  The fabric is fully pipelined (initiation interval 1), so
a new instance may fire every cycle; results emerge ``config.latency``
cycles later at the output ports.

:class:`CompiledDfg` flattens a validated DFG into an index-addressed step
list so the per-firing cost in the simulator stays small.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..core.compiler.config import CgraConfig
from ..core.dfg.graph import Constant, Dfg
from ..core.dfg.instructions import (
    ACCUMULATOR_OPS,
    WORD_BITS,
    WORD_MASK,
    accumulator_identity,
    get_operation,
    mask_word,
)
from ..trace import TraceEvent
from .vector_port import VectorPortState


def _compile_step(op, lane_bits, operand_spec, out_idx, acc_slot, identity):
    """Specialise one DFG step into a closure ``step(values, state)``.

    The closures replicate :meth:`Operation.evaluate` /
    :func:`accumulate_combine` arithmetic exactly — same ``to_signed`` /
    ``from_signed`` lane math — just without per-call validation, lane
    splitting into lists, or operand-list allocation.  Agreement with
    :meth:`Dfg.execute` is enforced by tests/test_property_fastpath.py.
    """
    lane_mask = (1 << lane_bits) - 1
    sign = 1 << (lane_bits - 1)
    shifts = tuple(range(0, WORD_BITS, lane_bits))

    if acc_slot >= 0:
        combine = get_operation(ACCUMULATOR_OPS[op.name]).lane_fn
        (value_const, value_ref), (reset_const, reset_ref) = operand_spec

        def step(values, state):
            value = value_ref if value_const else values[value_ref]
            reset = reset_ref if reset_const else values[reset_ref]
            current = state[acc_slot] & WORD_MASK
            value &= WORD_MASK
            word = 0
            for shift in shifts:
                a = (((current >> shift) & lane_mask) ^ sign) - sign
                b = (((value >> shift) & lane_mask) ^ sign) - sign
                word |= (combine(a, b) & lane_mask) << shift
            values[out_idx] = word
            state[acc_slot] = identity if reset else word

        return step

    fn = op.lane_fn
    if op.whole_word:

        def step(values, state):
            args = [
                (v if c else values[v]) & WORD_MASK for c, v in operand_spec
            ]
            values[out_idx] = fn(*args, lane_bits) & WORD_MASK

        return step

    if len(operand_spec) == 1:
        (const0, ref0), = operand_spec

        def step(values, state):
            word0 = (ref0 if const0 else values[ref0]) & WORD_MASK
            word = 0
            for shift in shifts:
                a = (((word0 >> shift) & lane_mask) ^ sign) - sign
                word |= (fn(a) & lane_mask) << shift
            values[out_idx] = word

        return step

    if len(operand_spec) == 2:
        (const0, ref0), (const1, ref1) = operand_spec

        def step(values, state):
            word0 = (ref0 if const0 else values[ref0]) & WORD_MASK
            word1 = (ref1 if const1 else values[ref1]) & WORD_MASK
            word = 0
            for shift in shifts:
                a = (((word0 >> shift) & lane_mask) ^ sign) - sign
                b = (((word1 >> shift) & lane_mask) ^ sign) - sign
                word |= (fn(a, b) & lane_mask) << shift
            values[out_idx] = word

        return step

    def step(values, state):
        words = [
            (v if c else values[v]) & WORD_MASK for c, v in operand_spec
        ]
        word = 0
        for shift in shifts:
            lanes = [
                (((w >> shift) & lane_mask) ^ sign) - sign for w in words
            ]
            word |= (fn(*lanes) & lane_mask) << shift
        values[out_idx] = word

    return step


class CompiledDfg:
    """Index-flattened executor for one DFG (much faster than Dfg.execute).

    Each instruction becomes one closure (:func:`_compile_step`) over an
    index-addressed value list; :meth:`run` calls them in topological
    order.
    """

    def __init__(self, dfg: Dfg) -> None:
        self.dfg = dfg
        index: Dict[Tuple[str, int], int] = {}
        self.input_slots: List[Tuple[str, int, int]] = []  # (port, lane, idx)
        for name, port in dfg.inputs.items():
            for lane in range(port.width):
                index[(name, lane)] = len(index)
                self.input_slots.append((name, lane, index[(name, lane)]))
        self.num_inputs = len(index)

        self.steps: List[Callable[[List[int], List[int]], None]] = []
        self.acc_identity: List[int] = []  # identity word per accumulator slot
        for inst in dfg.topological_order():
            out_idx = len(index)
            index[(inst.name, 0)] = out_idx
            operand_spec: List[Tuple[bool, int]] = []
            for operand in inst.operands:
                if isinstance(operand, Constant):
                    operand_spec.append((True, mask_word(operand.word)))
                else:
                    operand_spec.append((False, index[(operand.node, operand.lane)]))
            acc_slot = -1
            identity = 0
            if inst.is_accumulator:
                acc_slot = len(self.acc_identity)
                identity = accumulator_identity(inst.op.name, inst.lane_bits)
                self.acc_identity.append(identity)
            self.steps.append(_compile_step(
                inst.op, inst.lane_bits, tuple(operand_spec), out_idx,
                acc_slot, identity,
            ))
        self.num_values = len(index)

        self.output_slots: List[Tuple[str, List[int]]] = [
            (name, [index[(ref.node, ref.lane)] for ref in port.sources])
            for name, port in dfg.outputs.items()
        ]

    def make_state(self) -> List[int]:
        return list(self.acc_identity)

    def run(
        self, inputs: Dict[str, List[int]], state: List[int]
    ) -> Dict[str, List[int]]:
        """Execute one instance; mutates accumulator ``state`` in place."""
        values = [0] * self.num_values
        for port_name, lane, idx in self.input_slots:
            values[idx] = inputs[port_name][lane]
        for step in self.steps:
            step(values, state)
        return {
            name: [values[i] for i in slots] for name, slots in self.output_slots
        }


class CgraExecutor:
    """Runtime firing logic for the currently-loaded configuration."""

    def __init__(self, sim: "SoftbrainSim", config: CgraConfig) -> None:  # noqa: F821
        self.sim = sim
        self.config = config
        self.compiled = CompiledDfg(config.dfg)
        self.state = self.compiled.make_state()
        self.in_flight = 0

        dfg = config.dfg
        self.inputs: List[Tuple[str, int, VectorPortState]] = [
            (
                name,
                port.width,
                sim.input_ports[config.hw_input_port(name)],
            )
            for name, port in dfg.inputs.items()
        ]
        self.outputs: List[Tuple[str, int, VectorPortState]] = [
            (
                name,
                port.width,
                sim.output_ports[config.hw_output_port(name)],
            )
            for name, port in dfg.outputs.items()
        ]
        # Per-firing cost bookkeeping, computed once.
        self.ops_per_instance = dfg.num_instructions
        self.fu_ops_per_instance: Dict[str, int] = {}
        for inst_name, coord in config.placement.items():
            fu_name = config.fabric.pes[coord].fu.name
            self.fu_ops_per_instance[fu_name] = (
                self.fu_ops_per_instance.get(fu_name, 0) + 1
            )

    def can_fire(self) -> Tuple[bool, str]:
        for _, width, port in self.inputs:
            if port.occupancy < width:
                return False, "input"
        for _, width, port in self.outputs:
            if port.free_words < width:
                return False, "output"
        return True, ""

    def tick(self, cycle: int) -> bool:
        """Fire at most one instance (II = 1)."""
        ok, why = self.can_fire()
        sink = self.sim.trace
        if not ok:
            # Only count stalls while there is actually upstream data;
            # the cgra.stall emissions mirror the counters one-for-one.
            if why == "output":
                self.sim.stats.cgra_stall_no_output_room += 1
                if sink.enabled:
                    sink.emit(TraceEvent(
                        "cgra.stall", cycle, self.sim.unit, "cgra",
                        {"cause": "no_output_room"},
                    ))
            elif any(port.occupancy for _, _, port in self.inputs):
                self.sim.stats.cgra_stall_no_input += 1
                if sink.enabled:
                    sink.emit(TraceEvent(
                        "cgra.stall", cycle, self.sim.unit, "cgra",
                        {"cause": "no_input"},
                    ))
            return False
        inputs = {
            name: port.pop_words(width) for name, width, port in self.inputs
        }
        results = self.compiled.run(inputs, self.state)
        injector = self.sim.faults
        if injector is not None and cycle >= injector.cgra_at:
            injector.flip_cgra_output(cycle, results)
        for name, width, port in self.outputs:
            port.reserve(width)
        self.in_flight += 1
        done = cycle + self.config.latency

        def deliver() -> None:
            for name, width, port in self.outputs:
                port.push(results[name])
            self.in_flight -= 1

        self.sim.schedule(done, deliver)
        self.sim.stats.note_firing(self.ops_per_instance, self.fu_ops_per_instance)
        if sink.enabled:
            sink.emit(TraceEvent(
                "cgra.fire", cycle, self.sim.unit, "cgra",
                {"ops": self.ops_per_instance,
                 "fu": self.fu_ops_per_instance},
            ))
        return True

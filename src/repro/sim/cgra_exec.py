"""Pipelined CGRA execution with coarse-grained dataflow firing.

Section 4.4: when one instance worth of data is available on every relevant
input vector port — and, because the mesh has no flow control, space is
guaranteed at the output ports — all of it is released into the fabric
simultaneously.  The fabric is fully pipelined (initiation interval 1), so
a new instance may fire every cycle; results emerge ``config.latency``
cycles later at the output ports.  Because that latency is fixed, results
leave in firing order: :class:`CgraExecutor` queues them in ``deliveries``
and the simulator's step pushes each into the output ports when due.

:class:`CompiledDfg` flattens a validated DFG into an index-addressed step
list so the per-firing cost in the simulator stays small.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

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
    order.  Value slots ``0..num_inputs-1`` are the input lanes, port after
    port in ``dfg.inputs`` order, so one instance's input words,
    concatenated in that order, are the head of the value list.
    """

    def __init__(self, dfg: Dfg) -> None:
        self.dfg = dfg
        index: Dict[Tuple[str, int], int] = {}
        for name, port in dfg.inputs.items():
            for lane in range(port.width):
                index[(name, lane)] = len(index)
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
        self._padding = [0] * (self.num_values - self.num_inputs)

        #: value slots of each output port's lanes, in ``dfg.outputs`` order
        self.output_slots: List[List[int]] = [
            [index[(ref.node, ref.lane)] for ref in port.sources]
            for port in dfg.outputs.values()
        ]

    def make_state(self) -> List[int]:
        return list(self.acc_identity)

    def run(self, words: List[int], state: List[int]) -> List[List[int]]:
        """Execute one instance; mutates accumulator ``state`` in place.

        ``words`` holds the instance's input words concatenated in
        ``dfg.inputs`` order; the result holds one word list per output
        port, in ``dfg.outputs`` order.
        """
        values = words + self._padding
        for step in self.steps:
            step(values, state)
        return [[values[i] for i in slots] for slots in self.output_slots]


class CgraExecutor:
    """Runtime firing logic for the currently-loaded configuration.

    Per-firing bookkeeping is kept small: ``deliveries`` queues each
    firing's results in firing order, and ``fired`` counts firings so
    :meth:`fold_activity` can add the per-FU activity to the stats once.
    """

    def __init__(self, sim: "SoftbrainSim", config: CgraConfig) -> None:  # noqa: F821
        self.sim = sim
        self.config = config
        self.latency = config.latency
        self.compiled = CompiledDfg(config.dfg)
        self.state = self.compiled.make_state()
        #: in-order pipeline exits: (ready_cycle, one word list per output)
        self.deliveries: Deque[Tuple[int, List[List[int]]]] = deque()
        self.fired = 0

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

    @property
    def in_flight(self) -> int:
        """Instances fired whose results have not reached the ports."""
        return len(self.deliveries)

    def can_fire(self) -> str:
        """The stall cause (``"input"`` or ``"output"``), or ``""`` when
        an instance can fire this cycle."""
        for _, width, port in self.inputs:
            if len(port.fifo) < width:
                return "input"
        for _, width, port in self.outputs:
            if port.free_words < width:
                return "output"
        return ""

    def tick(self, cycle: int) -> bool:
        """Fire at most one instance (II = 1)."""
        why = self.can_fire()
        sink = self.sim.trace
        if why:
            # Only count stalls while there is actually upstream data;
            # the cgra.stall emissions mirror the counters one-for-one.
            if why == "output":
                self.sim.stats.cgra_stall_no_output_room += 1
                if sink.enabled:
                    sink.emit(TraceEvent(
                        "cgra.stall", cycle, self.sim.unit, "cgra",
                        {"cause": "no_output_room"},
                    ))
            elif any(port.fifo for _, _, port in self.inputs):
                self.sim.stats.cgra_stall_no_input += 1
                if sink.enabled:
                    sink.emit(TraceEvent(
                        "cgra.stall", cycle, self.sim.unit, "cgra",
                        {"cause": "no_input"},
                    ))
            return False
        words: List[int] = []
        for _, width, port in self.inputs:
            words += port.pop_words(width)
        results = self.compiled.run(words, self.state)
        injector = self.sim.faults
        if injector is not None and cycle >= injector.cgra_at:
            injector.flip_cgra_output(
                cycle, dict(zip(self.compiled.dfg.outputs, results)))
        for _, width, port in self.outputs:
            port.reserve(width)
        self.deliveries.append((cycle + self.latency, results))
        self.fired += 1
        stats = self.sim.stats
        stats.instances_fired += 1
        stats.ops_executed += self.ops_per_instance
        if sink.enabled:
            sink.emit(TraceEvent(
                "cgra.fire", cycle, self.sim.unit, "cgra",
                {"ops": self.ops_per_instance,
                 "fu": self.fu_ops_per_instance},
            ))
        return True

    def deliver(self, cycle: int) -> None:
        """Push every delivery due by ``cycle`` into the output ports."""
        deliveries = self.deliveries
        outputs = self.outputs
        while deliveries and deliveries[0][0] <= cycle:
            results = deliveries.popleft()[1]
            for (_, _, port), words in zip(outputs, results):
                port.push(words)

    def fold_activity(self) -> None:
        """Add ``count × fired`` per FU to ``stats.fu_activity`` and
        restart the count; called when the executor is replaced and when
        the run ends or fails, so the stats read complete afterwards."""
        fired = self.fired
        if not fired:
            return
        activity = self.sim.stats.fu_activity
        for fu_name, count in self.fu_ops_per_instance.items():
            activity[fu_name] = activity.get(fu_name, 0) + count * fired
        self.fired = 0

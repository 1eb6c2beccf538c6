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
list so the per-firing cost in the simulator stays small; :func:`compile_dfg`
hands every user of one graph (the simulator, each unit of a device, the
functional interpreter) the same compile.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from ..core.compiler.config import CgraConfig
from ..core.dfg.graph import Constant, Dfg
from ..core.dfg.instructions import (
    ACCUMULATOR_OPS,
    SUBWORD_WIDTHS,
    WORD_BITS,
    WORD_MASK,
    accumulator_identity,
    get_operation,
    mask_word,
)
from ..trace import TraceEvent
from .vector_port import VectorPortState


#: 2-operand ops whose low n result bits depend only on the low n bits of
#: their operands, so unsigned lanes give the same lane bits as signed ones
_WRAPPING_OPS = frozenset({"add", "sub", "mul", "and", "or", "xor"})


def _lane_masks(lane_bits: int) -> Tuple[int, int]:
    """``(L, H)`` for the carry-masked (SWAR) add ``((a & L) + (b & L)) ^
    ((a ^ b) & H)``: H holds each lane's top bit, L every other bit.  The
    low bits of a lane add without carrying into the next lane, and the
    lane's top bit is the XOR of both top bits and that carry, so every
    lane wraps as a signed add would; the sum never exceeds 64 bits."""
    high = sum(1 << top for top in range(lane_bits - 1, WORD_BITS, lane_bits))
    return WORD_MASK ^ high, high


_LANE_MASKS = {bits: _lane_masks(bits) for bits in SUBWORD_WIDTHS}
_SIGN64 = 1 << 63


def _compile_step(op, lane_bits, operands, out_idx, acc_slot, identity):
    """Specialise one DFG step into a closure ``step(values, state)``.

    ``operands`` holds the value slot of each operand (constants have
    slots too).  The closures replicate :meth:`Operation.evaluate` /
    :func:`accumulate_combine` arithmetic exactly, without per-call
    validation, lane splitting into lists, or operand-list allocation.
    The common cases run word-parallel kernels picked here
    (docs/PERFORMANCE.md); the rest loop over the lanes with the same
    ``to_signed`` / ``from_signed`` lane math.  Agreement with
    :meth:`Dfg.execute` is enforced by tests/test_property_dfg.py.
    """
    lane_mask = (1 << lane_bits) - 1
    sign = 1 << (lane_bits - 1)
    shifts = tuple(range(0, WORD_BITS, lane_bits))

    if acc_slot >= 0:
        value_idx, reset_idx = operands
        if op.name == "acc":
            low, high = _LANE_MASKS[lane_bits]

            def step(values, state):
                a = state[acc_slot]
                b = values[value_idx]
                word = ((a & low) + (b & low)) ^ ((a ^ b) & high)
                values[out_idx] = word
                state[acc_slot] = identity if values[reset_idx] else word

            return step

        combine = get_operation(ACCUMULATOR_OPS[op.name]).lane_fn

        def step(values, state):
            current = state[acc_slot] & WORD_MASK
            value = values[value_idx] & WORD_MASK
            word = 0
            for shift in shifts:
                a = (((current >> shift) & lane_mask) ^ sign) - sign
                b = (((value >> shift) & lane_mask) ^ sign) - sign
                word |= (combine(a, b) & lane_mask) << shift
            values[out_idx] = word
            state[acc_slot] = identity if values[reset_idx] else word

        return step

    fn = op.lane_fn
    if op.whole_word:
        if op.name == "hadd" and lane_bits == 16:
            (ref0,) = operands

            def step(values, state):
                # each lane biased by +0x8000 is its signed value + 0x8000
                word = values[ref0] ^ 0x8000_8000_8000_8000
                values[out_idx] = (
                    (word & 0xFFFF) + (word >> 16 & 0xFFFF)
                    + (word >> 32 & 0xFFFF) + (word >> 48 & 0xFFFF)
                    - 0x2_0000) & WORD_MASK

            return step

        def step(values, state):
            args = [values[ref] & WORD_MASK for ref in operands]
            values[out_idx] = fn(*args, lane_bits) & WORD_MASK

        return step

    wrapping = op.name in _WRAPPING_OPS
    if len(operands) == 1:
        (ref0,) = operands
        if lane_bits == 64:

            def step(values, state):
                a = ((values[ref0] & WORD_MASK) ^ _SIGN64) - _SIGN64
                values[out_idx] = fn(a) & WORD_MASK

            return step

        def step(values, state):
            word0 = values[ref0] & WORD_MASK
            word = 0
            for shift in shifts:
                a = (((word0 >> shift) & lane_mask) ^ sign) - sign
                word |= (fn(a) & lane_mask) << shift
            values[out_idx] = word

        return step

    if len(operands) == 2:
        ref0, ref1 = operands
        if op.name == "add" and lane_bits < 64:
            low, high = _LANE_MASKS[lane_bits]

            def step(values, state):
                a = values[ref0]
                b = values[ref1]
                values[out_idx] = ((a & low) + (b & low)) ^ ((a ^ b) & high)

            return step

        if lane_bits == 64 and wrapping:

            def step(values, state):
                values[out_idx] = fn(values[ref0], values[ref1]) & WORD_MASK

            return step

        if lane_bits == 64:

            def step(values, state):
                a = ((values[ref0] & WORD_MASK) ^ _SIGN64) - _SIGN64
                b = ((values[ref1] & WORD_MASK) ^ _SIGN64) - _SIGN64
                values[out_idx] = fn(a, b) & WORD_MASK

            return step

        if lane_bits == 16 and wrapping:

            def step(values, state):
                a = values[ref0]
                b = values[ref1]
                values[out_idx] = (
                    fn(a & 0xFFFF, b & 0xFFFF) & 0xFFFF
                    | (fn(a >> 16 & 0xFFFF, b >> 16 & 0xFFFF) & 0xFFFF) << 16
                    | (fn(a >> 32 & 0xFFFF, b >> 32 & 0xFFFF) & 0xFFFF) << 32
                    | (fn(a >> 48 & 0xFFFF, b >> 48 & 0xFFFF) & 0xFFFF) << 48)

            return step

        def step(values, state):
            word0 = values[ref0] & WORD_MASK
            word1 = values[ref1] & WORD_MASK
            word = 0
            for shift in shifts:
                a = (((word0 >> shift) & lane_mask) ^ sign) - sign
                b = (((word1 >> shift) & lane_mask) ^ sign) - sign
                word |= (fn(a, b) & lane_mask) << shift
            values[out_idx] = word

        return step

    def step(values, state):
        words = [values[ref] & WORD_MASK for ref in operands]
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
    concatenated in that order, are the head of the value list.  Every
    later slot is an instruction's result or a constant operand, which
    ``_padding`` holds.
    """

    def __init__(self, dfg: Dfg) -> None:
        self.dfg = dfg
        index: Dict[Tuple[str, int], int] = {}
        for name, port in dfg.inputs.items():
            for lane in range(port.width):
                index[(name, lane)] = len(index)
        self.num_inputs = len(index)
        #: the initial words of the slots after the inputs
        padding: List[int] = []

        def new_slot(word: int) -> int:
            padding.append(word)
            return self.num_inputs + len(padding) - 1

        self.steps: List[Callable[[List[int], List[int]], None]] = []
        self.acc_identity: List[int] = []  # identity word per accumulator slot
        for inst in dfg.topological_order():
            operands = tuple(
                new_slot(mask_word(operand.word))
                if isinstance(operand, Constant)
                else index[(operand.node, operand.lane)]
                for operand in inst.operands
            )
            out_idx = index[(inst.name, 0)] = new_slot(0)
            acc_slot = -1
            identity = 0
            if inst.is_accumulator:
                acc_slot = len(self.acc_identity)
                identity = accumulator_identity(inst.op.name, inst.lane_bits)
                self.acc_identity.append(identity)
            self.steps.append(_compile_step(
                inst.op, inst.lane_bits, operands, out_idx, acc_slot,
                identity,
            ))
        self._padding = padding

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


#: compiles :func:`compile_dfg` keeps: a fuzz case's simulator and
#: interpreter legs, or every unit of a device, share one graph
COMPILE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compile(dfg: Dfg, revision: int) -> CompiledDfg:
    return CompiledDfg(dfg)


def compile_dfg(dfg: Dfg) -> CompiledDfg:
    """The :class:`CompiledDfg` of ``dfg``, memoised per graph object.

    A compile holds no run state (accumulators come from
    :meth:`CompiledDfg.make_state`, values from a fresh list per
    :meth:`CompiledDfg.run`), so its users share it.  It is served only
    while the graph's ``revision`` is the one it was compiled at.  The
    memo keeps the :data:`COMPILE_CACHE_SIZE` most recently used compiles.
    """
    return _compile(dfg, dfg.revision)


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
        self.compiled = compile_dfg(config.dfg)
        self.state = self.compiled.make_state()
        #: in-order pipeline exits: (ready_cycle, one word list per output)
        self.deliveries: Deque[Tuple[int, List[List[int]]]] = deque()
        self.fired = 0

        dfg = config.dfg
        self.inputs: List[Tuple[str, int, VectorPortState]] = [
            (
                name,
                port.width,
                sim.ports["in", config.hw_input_port(name)],
            )
            for name, port in dfg.inputs.items()
        ]
        self.outputs: List[Tuple[str, int, VectorPortState]] = [
            (
                name,
                port.width,
                sim.ports["out", config.hw_output_port(name)],
            )
            for name, port in dfg.outputs.items()
        ]
        #: ``(port, width)`` per input and per output, for the firing rule
        self._inputs = [(port, width) for _, width, port in self.inputs]
        self._outputs = [(port, width) for _, width, port in self.outputs]
        # Per-firing cost bookkeeping, computed once.
        self.ops_per_instance = dfg.num_instructions
        self.fu_ops_per_instance: Dict[str, int] = config.active_fus()

    @property
    def in_flight(self) -> int:
        """Instances fired whose results have not reached the ports."""
        return len(self.deliveries)

    def can_fire(self) -> str:
        """The stall cause (``"input"`` or ``"output"``), or ``""`` when
        an instance can fire this cycle; :meth:`tick` tests the same rule
        inline."""
        for port, width in self._inputs:
            if port.occupancy < width:
                return "input"
        for port, width in self._outputs:
            if port.free_words < width:
                return "output"
        return ""

    def tick(self, cycle: int) -> bool:
        """Fire at most one instance (II = 1)."""
        inputs = self._inputs
        for port, width in inputs:
            if port.occupancy < width:
                # Only count stalls while there is actually upstream data.
                for other, _ in inputs:
                    if other.occupancy:
                        self.sim.stats.cgra_stall_no_input += 1
                        if self.sim.trace.enabled:
                            self._trace_stall(cycle, "no_input")
                        break
                return False
        for port, width in self._outputs:
            if port.free_words < width:
                self.sim.stats.cgra_stall_no_output_room += 1
                if self.sim.trace.enabled:
                    self._trace_stall(cycle, "no_output_room")
                return False
        if len(inputs) == 1:
            port, width = inputs[0]
            words = port.pop_words(width)
        else:
            words = []
            for port, width in inputs:
                words += port.pop_words(width)
        results = self.compiled.run(words, self.state)
        injector = self.sim.faults
        if injector is not None and cycle >= injector.cgra_at:
            injector.flip_cgra_output(
                cycle, dict(zip(self.compiled.dfg.outputs, results)))
        for port, width in self._outputs:
            port.reserve(width)
        self.deliveries.append((cycle + self.latency, results))
        self.fired += 1
        stats = self.sim.stats
        stats.instances_fired += 1
        stats.ops_executed += self.ops_per_instance
        sink = self.sim.trace
        if sink.enabled:
            sink.emit(TraceEvent(
                "cgra.fire", cycle, self.sim.unit, "cgra",
                {"ops": self.ops_per_instance,
                 "fu": self.fu_ops_per_instance},
            ))
        return True

    def _trace_stall(self, cycle: int, cause: str) -> None:
        """Emit the ``cgra.stall`` event mirroring a stall counter bump."""
        self.sim.trace.emit(TraceEvent("cgra.stall", cycle, self.sim.unit,
                                       "cgra", {"cause": cause}))

    def deliver(self, cycle: int) -> None:
        """Push every delivery due by ``cycle`` into the output ports."""
        deliveries = self.deliveries
        outputs = self._outputs
        while deliveries and deliveries[0][0] <= cycle:
            results = deliveries.popleft()[1]
            for (port, _), words in zip(outputs, results):
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

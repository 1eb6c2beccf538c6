"""Dataflow-graph (DFG) representation for stream-dataflow computation.

A DFG (Figure 3(a) of the paper) is an acyclic graph of instructions whose
only inputs and outputs are *named vector ports* with explicit widths.  For
every set of words arriving on the input ports, one set of words is produced
on the output ports — a *computation instance*.  Direct accumulation (an
instruction feeding a later instance of itself) is the single permitted form
of cycle and is modelled by the ``acc`` instruction, which keeps state across
instances and is reset under control of a dedicated reset operand (exactly
the ``Port_R``/``acc`` idiom of the paper's Figure 6 classifier example).

This module is pure software semantics: it knows nothing about the CGRA.
The spatial scheduler (:mod:`repro.core.compiler`) maps these graphs onto
hardware; the simulator (:mod:`repro.sim`) fires them instance-at-a-time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .instructions import (
    ACCUMULATOR_OPS,
    Operation,
    accumulate_combine,
    accumulator_identity,
    get_operation,
    mask_word,
)


@dataclass(frozen=True)
class ValueRef:
    """Reference to one 64-bit word produced inside the DFG.

    ``node`` names either an instruction (lane must be 0) or an input port
    (lane selects which of the port's words).
    """

    node: str
    lane: int = 0

    def __str__(self) -> str:
        return self.node if self.lane == 0 else f"{self.node}.{self.lane}"


@dataclass(frozen=True)
class Constant:
    """An immediate operand stored in the FU configuration."""

    word: int

    def __str__(self) -> str:
        return f"#{self.word}"


Operand = Union[ValueRef, Constant]


@dataclass
class InputPort:
    """Named DFG input with an explicit vector width (words per instance)."""

    name: str
    width: int


@dataclass
class OutputPort:
    """Named DFG output; ``sources`` lists the word producers, lane order."""

    name: str
    width: int
    sources: List[ValueRef] = field(default_factory=list)


@dataclass
class Instruction:
    """One computation node.

    Attributes:
        name: unique value name within the DFG.
        op: the functional-unit operation.
        operands: data inputs, in operation order.
        lane_bits: sub-word lane width (64, 32 or 16).
        is_accumulator: True for ``acc`` nodes, which carry state across
            computation instances (operands are ``(value, reset)``).
    """

    name: str
    op: Operation
    operands: List[Operand]
    lane_bits: int = 64

    @property
    def is_accumulator(self) -> bool:
        return self.op.name in ACCUMULATOR_OPS


class DfgError(ValueError):
    """Raised for malformed dataflow graphs."""


class Dfg:
    """A complete dataflow graph with named vector ports.

    Build one directly, through :class:`~repro.core.dfg.builder.DfgBuilder`,
    or by parsing the text language (:mod:`repro.core.dfg.parser`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: Dict[str, InputPort] = {}
        self.outputs: Dict[str, OutputPort] = {}
        self.instructions: Dict[str, Instruction] = {}
        self._topo_cache: Optional[List[Instruction]] = None
        #: bumped by every ``add_*`` call, the graph's only mutators, so a
        #: result derived from the graph is current while this matches
        self.revision = 0

    # -- construction --------------------------------------------------------

    def add_input(self, name: str, width: int = 1) -> InputPort:
        self._check_fresh_name(name)
        if width < 1 or width > 8:
            raise DfgError(f"port {name!r}: width must be in 1..8, got {width}")
        port = InputPort(name, width)
        self.inputs[name] = port
        self.revision += 1
        return port

    def add_output(self, name: str, sources: Sequence[ValueRef]) -> OutputPort:
        self._check_fresh_name(name)
        sources = list(sources)
        if not 1 <= len(sources) <= 8:
            raise DfgError(f"port {name!r}: width must be in 1..8")
        port = OutputPort(name, len(sources), sources)
        self.outputs[name] = port
        self.revision += 1
        return port

    def add_instruction(
        self,
        name: str,
        op: Union[str, Operation],
        operands: Sequence[Operand],
        lane_bits: int = 64,
    ) -> Instruction:
        self._check_fresh_name(name)
        if isinstance(op, str):
            op = get_operation(op)
        inst = Instruction(name, op, list(operands), lane_bits)
        self.instructions[name] = inst
        self._topo_cache = None
        self.revision += 1
        return inst

    def _check_fresh_name(self, name: str) -> None:
        if name in self.inputs or name in self.outputs or name in self.instructions:
            raise DfgError(f"name {name!r} already used in DFG {self.name!r}")

    # -- introspection --------------------------------------------------------

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def op_histogram(self) -> Dict[str, int]:
        """Count of instructions per operation mnemonic (for provisioning)."""
        histogram: Dict[str, int] = {}
        for inst in self.instructions.values():
            histogram[inst.op.name] = histogram.get(inst.op.name, 0) + 1
        return histogram

    def operand_refs(self, inst: Instruction) -> List[ValueRef]:
        return [o for o in inst.operands if isinstance(o, ValueRef)]

    def consumers(self) -> Dict[str, List[str]]:
        """Map from producer value name to the instruction names that read it."""
        out: Dict[str, List[str]] = {}
        for inst in self.instructions.values():
            for ref in self.operand_refs(inst):
                out.setdefault(ref.node, []).append(inst.name)
        return out

    def topological_order(self) -> List[Instruction]:
        """Instructions in dependence order (accumulator self-state excluded).

        Raises :class:`DfgError` on a true cycle, which the architecture
        forbids (general cyclic dependences must use recurrence streams).
        The result is memoised (the simulator calls this per firing).
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: Dict[str, int] = {n: 0 for n in self.instructions}
        successors: Dict[str, List[str]] = {n: [] for n in self.instructions}
        for inst in self.instructions.values():
            for ref in self.operand_refs(inst):
                if ref.node in self.instructions:
                    successors[ref.node].append(inst.name)
                    indegree[inst.name] += 1
        ready = [n for n in self.instructions if indegree[n] == 0]
        order: List[Instruction] = []
        while ready:
            name = ready.pop(0)
            order.append(self.instructions[name])
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.instructions):
            cyclic = sorted(set(self.instructions) - {i.name for i in order})
            raise DfgError(f"DFG {self.name!r} has a cycle through {cyclic}")
        self._topo_cache = order
        return order

    def depth_by_node(self) -> Dict[str, int]:
        """Pipeline depth (cycles) at which each value is produced.

        Input-port words are available at depth 0; an instruction's result
        appears ``op.latency`` cycles after its deepest operand.  Routing
        delay is added later by the spatial scheduler.
        """
        depth: Dict[str, int] = {name: 0 for name in self.inputs}
        for inst in self.topological_order():
            operand_depth = 0
            for ref in self.operand_refs(inst):
                operand_depth = max(operand_depth, depth[ref.node])
            depth[inst.name] = operand_depth + inst.op.latency
        return depth

    @property
    def latency(self) -> int:
        """Compute latency of one instance, input ports to output ports."""
        depth = self.depth_by_node()
        latest = 0
        for port in self.outputs.values():
            for ref in port.sources:
                latest = max(latest, depth[ref.node])
        return latest

    # -- functional execution -------------------------------------------------

    def make_state(self) -> Dict[str, int]:
        """Fresh accumulator state (value name -> identity word)."""
        return {
            inst.name: accumulator_identity(inst.op.name, inst.lane_bits)
            for inst in self.instructions.values()
            if inst.is_accumulator
        }

    def execute(
        self,
        port_values: Mapping[str, Sequence[int]],
        state: Optional[Dict[str, int]] = None,
    ) -> Dict[str, List[int]]:
        """Run one computation instance.

        Args:
            port_values: words for every input port (list length == width).
            state: accumulator state from :meth:`make_state`; mutated in
                place.  Omit for stateless graphs.

        Returns:
            Words for every output port, by name.
        """
        values: Dict[Tuple[str, int], int] = {}
        for name, port in self.inputs.items():
            try:
                words = port_values[name]
            except KeyError:
                raise DfgError(f"missing input port {name!r}") from None
            if len(words) != port.width:
                raise DfgError(
                    f"port {name!r} expects {port.width} words, got {len(words)}"
                )
            for lane, word in enumerate(words):
                values[(name, lane)] = mask_word(word)

        for inst in self.topological_order():
            operand_words = [
                mask_word(o.word) if isinstance(o, Constant)
                else values[(o.node, o.lane)]
                for o in inst.operands
            ]
            if inst.is_accumulator:
                if state is None:
                    raise DfgError(
                        f"accumulator {inst.name!r} requires explicit state"
                    )
                value, reset = operand_words
                total = accumulate_combine(
                    inst.op.name, state[inst.name], value, inst.lane_bits
                )
                values[(inst.name, 0)] = total
                state[inst.name] = (
                    accumulator_identity(inst.op.name, inst.lane_bits)
                    if reset
                    else total
                )
            else:
                values[(inst.name, 0)] = inst.op.evaluate(
                    operand_words, inst.lane_bits
                )

        return {
            name: [values[(ref.node, ref.lane)] for ref in port.sources]
            for name, port in self.outputs.items()
        }

    def __repr__(self) -> str:
        return (
            f"Dfg({self.name!r}, inputs={list(self.inputs)}, "
            f"outputs={list(self.outputs)}, n_inst={self.num_instructions})"
        )

"""Delay matching for the flow-control-free CGRA mesh.

Softbrain's mesh has no flow control (the paper halved network area by
removing it), so correctness requires that all operands of an instruction
arrive in the *same cycle*, and that all lanes of an output vector port
exit together.  The compiler guarantees this by programming the per-input
delay FIFOs; this module computes the required settings and the resulting
full-pipeline latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ...cgra.pe import MAX_INPUT_DELAY
from ..dfg.graph import Constant, Dfg, ValueRef
from .config import EdgeKey


class DelayMatchError(RuntimeError):
    """A required operand delay exceeds the hardware FIFO depth."""


@dataclass
class DelaySolution:
    """Delay-FIFO settings plus derived timing for a placed DFG.

    Attributes:
        extra_delay: cycles of programmed delay per edge.
        latency: cycles from input-port release to the last output-port word.
    """

    extra_delay: Dict[EdgeKey, int]
    latency: int


def _producer_value(ref: ValueRef) -> str:
    return str(ref)


def compute_delays(dfg: Dfg,
                   edge_hops: Mapping[EdgeKey, int]) -> DelaySolution:
    """Solve delay matching given per-edge hop counts.

    ``edge_hops`` must contain every dataflow edge: operand edges keyed
    ``(str(ref), inst_name, operand_index)`` and output edges keyed
    ``(str(ref), "out:<port>", lane)``.  Edge raw latency is
    ``hops + 1`` (one local-switch traversal).

    Raises :class:`DelayMatchError` if any required delay exceeds
    :data:`~repro.cgra.pe.MAX_INPUT_DELAY`.
    """
    ready: Dict[str, int] = {}  # value name -> cycle the value is produced
    for port_name, port in dfg.inputs.items():
        ready[port_name] = 0  # str() form of a lane-0 ref
        for lane in range(port.width):
            ready[f"{port_name}.{lane}"] = 0

    extra_delay: Dict[EdgeKey, int] = {}

    for inst in dfg.topological_order():
        arrivals: Dict[EdgeKey, int] = {}
        for slot, operand in enumerate(inst.operands):
            if isinstance(operand, Constant):
                continue  # constants live in the PE configuration
            key = (_producer_value(operand), inst.name, slot)
            if key not in edge_hops:
                raise KeyError(f"missing route for edge {key}")
            arrivals[key] = ready[_producer_value(operand)] + edge_hops[key] + 1
        fire = max(arrivals.values(), default=0)
        for key, arrival in arrivals.items():
            needed = fire - arrival
            if needed > MAX_INPUT_DELAY:
                raise DelayMatchError(
                    f"edge {key} needs {needed} delay cycles "
                    f"(max {MAX_INPUT_DELAY})"
                )
            extra_delay[key] = needed
        ready[inst.name] = fire + inst.op.latency

    latency = 0
    for port_name, port in dfg.outputs.items():
        arrivals: Dict[EdgeKey, int] = {}
        for lane, ref in enumerate(port.sources):
            key = (_producer_value(ref), f"out:{port_name}", lane)
            if key not in edge_hops:
                raise KeyError(f"missing route for edge {key}")
            arrivals[key] = ready[_producer_value(ref)] + edge_hops[key] + 1
        port_exit = max(arrivals.values())
        for key, arrival in arrivals.items():
            needed = port_exit - arrival
            if needed > MAX_INPUT_DELAY:
                raise DelayMatchError(
                    f"edge {key} needs {needed} delay cycles "
                    f"(max {MAX_INPUT_DELAY})"
                )
            extra_delay[key] = needed
        latency = max(latency, port_exit)

    return DelaySolution(extra_delay, latency)

"""Resource-constrained scheduling of a DDG under a candidate ASIC design.

Aladdin's core step: given the dynamic dependence graph and a set of
hardware constraints (functional-unit counts from loop unrolling, memory
ports from array partitioning), compute the achievable cycle count.  We use
latency-weighted list scheduling — each op starts at the earliest cycle
where its dependences have finished and a resource slot is free — which is
the same "ideally pipelined, resource limited" assumption Aladdin makes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from .ddg import Ddg


@dataclass(frozen=True)
class AsicDesign:
    """One candidate hardware design point.

    ``unroll`` scales datapath resources (Aladdin's loop-unrolling knob);
    ``partition`` scales memory ports (array-partitioning knob).
    """

    unroll: int = 1
    partition: int = 1
    base_alu: int = 2
    base_mul: int = 1
    base_div: int = 1
    base_special: int = 1
    mem_ports_per_partition: int = 2

    @property
    def resources(self) -> Dict[str, int]:
        return {
            "alu": self.base_alu * self.unroll,
            "mul": self.base_mul * self.unroll,
            "div": max(1, self.base_div * max(1, self.unroll // 2)),
            "special": self.base_special * self.unroll,
            "mem": self.mem_ports_per_partition * self.partition,
        }

    def label(self) -> str:
        return f"u{self.unroll}p{self.partition}"


@dataclass
class ScheduleResult:
    """Outcome of scheduling one DDG on one design point."""

    design: AsicDesign
    cycles: int
    ops: int
    resource_busy: Dict[str, int] = field(default_factory=dict)


def schedule_ddg(ddg: Ddg, design: AsicDesign) -> ScheduleResult:
    """List-schedule the DDG; returns total cycles and busy counters."""
    resources = design.resources
    # usage[resource][cycle] = slots consumed that cycle
    usage: Dict[str, Dict[int, int]] = {name: defaultdict(int) for name in resources}
    finish: List[int] = [0] * ddg.num_ops
    busy: Dict[str, int] = {name: 0 for name in resources}
    last_cycle = 0

    for node in ddg.nodes:
        earliest = 0
        for dep in node.deps:
            if finish[dep] > earliest:
                earliest = finish[dep]
        resource = node.resource
        limit = resources[resource]
        slot_usage = usage[resource]
        cycle = earliest
        while slot_usage[cycle] >= limit:
            cycle += 1
        slot_usage[cycle] += 1
        busy[resource] += 1
        finish[node.node_id] = cycle + node.latency
        if finish[node.node_id] > last_cycle:
            last_cycle = finish[node.node_id]

    return ScheduleResult(design, max(last_cycle, 1), ddg.num_ops, busy)

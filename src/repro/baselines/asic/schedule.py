"""Resource-constrained scheduling of a DDG under a candidate ASIC design.

Aladdin's core step: given the dynamic dependence graph and a set of
hardware constraints (functional-unit counts from loop unrolling, memory
ports from array partitioning), compute the achievable cycle count.  We use
latency-weighted list scheduling — each op starts at the earliest cycle
where its dependences have finished and a resource slot is free — which is
the same "ideally pipelined, resource limited" assumption Aladdin makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .ddg import OP_COSTS, OP_RESOURCE, Ddg

#: the schedulable resource classes, in :attr:`AsicDesign.resources` order
RESOURCES = ("alu", "mul", "div", "special", "mem")

#: op kind -> (index of its resource in ``RESOURCES``, latency cycles)
_OP_SLOT = {
    kind: (RESOURCES.index(OP_RESOURCE[kind]), latency)
    for kind, (latency, _) in OP_COSTS.items()
}


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
    """List-schedule the DDG; returns total cycles and busy counters.

    Each op takes a slot at the first cycle at or after its dependences
    finish where its resource is not full.  Full cycles are found through a
    per-resource "next non-full cycle" map with path compression
    (union-find), so a saturated resource costs amortized logarithmic time
    per op instead of a probe over every full cycle.  Resources are indexed
    as in ``RESOURCES``.
    """
    resources = design.resources
    capacity = [resources[name] for name in RESOURCES]
    # usage[resource][cycle] = slots consumed that cycle
    usage: List[Dict[int, int]] = [{} for _ in RESOURCES]
    # skip[resource][cycle] = a later cycle to try; present only when full
    skip: List[Dict[int, int]] = [{} for _ in RESOURCES]
    finish: List[int] = []
    last_cycle = 0

    for kind, deps in zip(ddg.kinds, ddg.deps):
        earliest = 0
        for dep in deps:
            if finish[dep] > earliest:
                earliest = finish[dep]
        slot, latency = _OP_SLOT[kind]
        slot_skip = skip[slot]
        cycle = earliest
        while cycle in slot_skip:
            cycle = slot_skip[cycle]
        # Path compression: every full cycle passed now points at `cycle`.
        passed = earliest
        while passed != cycle:
            passed_next = slot_skip[passed]
            slot_skip[passed] = cycle
            passed = passed_next
        slot_usage = usage[slot]
        used = slot_usage.get(cycle, 0) + 1
        slot_usage[cycle] = used
        if used >= capacity[slot]:
            slot_skip[cycle] = cycle + 1
        done = cycle + latency
        finish.append(done)
        if done > last_cycle:
            last_cycle = done

    # Every op takes one slot of its resource, so the busy counts are the
    # op histogram summed per resource.
    busy = dict.fromkeys(RESOURCES, 0)
    for kind, count in ddg.op_histogram().items():
        busy[OP_RESOURCE[kind]] += count
    return ScheduleResult(design, max(last_cycle, 1), ddg.num_ops, busy)

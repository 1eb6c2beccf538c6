"""Multi-unit Softbrain: N tiles sharing one memory interface (Figure 1(b)
scaled out, the paper's 8-unit DianNao-comparison configuration).

All units advance in lock-step, each with its own control core, stream
engines, scratchpad and CGRA, but one shared :class:`MemorySystem`:
the shared interface accepts one request per cycle *in total* and the
shared DRAM bandwidth is arbitrated naturally by the per-cycle accept
limit — contention is simulated, not modelled.

Arbitration: units step in index order within a cycle, so when two
units contend for the one accept slot, the lower index wins and the other
waits for a cycle in which the slot is free (``TestUnitArbitration`` in
``tests/test_sim_mechanisms.py``).  Whether the paper's interface
arbitrates this way, round-robin or oldest-first is still open.

The caller hands in that one memory: a DNN layer's per-unit builds carry
one image (the units split the work, not the data), and
:func:`~repro.workloads.common.run_units_and_verify` runs them on one
fresh memory made from it.  Fig 11, ``python -m repro run --units N`` and
the multi-unit example all run the device through that entry.

The units run in the same cycle loop as a single unit,
:func:`~repro.sim.softbrain.run_lockstep`, and fail through the same
crash-dump path; with more than one unit, the dump tags each stuck unit's
entries with its index (``docs/RESILIENCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cgra.fabric import Fabric
from ..core.isa.program import StreamProgram
from ..trace import TraceSink
from .memory import MemorySystem
from .softbrain import RunResult, SoftbrainParams, SoftbrainSim, run_lockstep


@dataclass
class MultiUnitResult:
    """Per-unit results plus the whole-device cycle count."""

    unit_results: List[RunResult]
    cycles: int
    memory: MemorySystem

    @property
    def total_instances(self) -> int:
        return sum(r.stats.instances_fired for r in self.unit_results)


def run_multi_unit(
    programs: List[StreamProgram],
    fabrics: List[Fabric],
    memory: Optional[MemorySystem] = None,
    params: Optional[SoftbrainParams] = None,
    trace: Optional[TraceSink] = None,
) -> MultiUnitResult:
    """Simulate one program per unit on a shared memory interface.

    Unit ``i`` runs ``programs[i]`` on ``fabrics[i]``, the fabric it was
    scheduled for.  Returns when every unit's program has drained; the
    device cycle count is the slowest unit's finish cycle.

    With ``trace``, each unit's events carry its index as ``unit`` and
    the shared memory interface emits device-level events tagged
    :data:`~repro.trace.SHARED_UNIT`.
    """
    if not programs:
        raise ValueError("need at least one unit program")
    if len(fabrics) != len(programs):
        raise ValueError(f"{len(programs)} unit programs but "
                         f"{len(fabrics)} fabrics")
    memory = memory or MemorySystem()
    params = params or SoftbrainParams()
    if trace is not None and trace.enabled:
        memory.attach_trace(trace)  # shared: keep the device-level tag
    sims = [
        SoftbrainSim(program, fabric=fabric, memory=memory,
                     params=params, trace=trace, unit_id=index)
        for index, (program, fabric) in enumerate(zip(programs, fabrics))
    ]
    try:
        results = run_lockstep(sims)
    finally:
        for sim in sims:
            sim.release()
    return MultiUnitResult(results, max(r.cycles for r in results), memory)

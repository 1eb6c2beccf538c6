"""Design-parameter sensitivity sweeps for Softbrain.

Quantifies the hardware parameters Section 3.3/4 leaves as provisioning
choices: vector-port depth (recurrence buffering, latency tolerance),
DRAM bandwidth (the memory-bound workloads' ceiling), and the stream-table
size (concurrent streams per engine).  Each sweep re-simulates a workload
with one knob varied and everything else fixed, each point on a fresh
memory of one build; the port-depth sweep rebuilds per point, because the
fabric, and so the schedule, changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..sim.memory import MemoryParams
from ..sim.softbrain import SoftbrainParams, run_program
from ..workloads.common import BuiltWorkload


@dataclass
class SweepPoint:
    """One (knob value, cycles) sample."""

    value: int
    cycles: int


@dataclass
class SweepResult:
    knob: str
    workload: str
    points: List[SweepPoint]

    @property
    def best(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.cycles)

    @property
    def worst(self) -> SweepPoint:
        return max(self.points, key=lambda p: p.cycles)

    @property
    def spread(self) -> float:
        return self.worst.cycles / max(1, self.best.cycles)


def _rerun(built: BuiltWorkload, params=None, memory_params=None) -> int:
    memory = built.fresh_memory(memory_params)
    result = run_program(built.program, fabric=built.fabric, memory=memory,
                         params=params)
    built.verify(memory)
    return result.cycles


def sweep_port_depth(
    make_workload: Callable[..., BuiltWorkload],
    make_fabric: Callable[[int], object],
    depths: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> SweepResult:
    """Vector-port FIFO depth: latency tolerance of the port interface."""
    points = []
    name = ""
    for depth in depths:
        built = make_workload(fabric=make_fabric(depth))
        name = built.name
        points.append(SweepPoint(depth, _rerun(built)))
    return SweepResult("port_depth", name, points)


def sweep_dram_bandwidth(
    make_workload: Callable[..., BuiltWorkload],
    gaps: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> SweepResult:
    """DRAM line gap (64 B per ``gap`` cycles): the streaming-BW ceiling."""
    built = make_workload()
    points = [
        SweepPoint(gap, _rerun(built, memory_params=MemoryParams(dram_gap_cycles=gap)))
        for gap in gaps
    ]
    return SweepResult("dram_gap_cycles", built.name, points)


def sweep_stream_table(
    make_workload: Callable[..., BuiltWorkload],
    sizes: Sequence[int] = (5, 6, 8, 12, 16),
) -> SweepResult:
    """Stream-table entries per engine: concurrent streams in flight."""
    built = make_workload()
    points = [
        SweepPoint(size, _rerun(built, params=SoftbrainParams(stream_table_size=size)))
        for size in sizes
    ]
    return SweepResult("stream_table_size", built.name, points)


def format_sweep(result: SweepResult) -> str:
    lines = [
        f"sensitivity: {result.knob} on {result.workload} "
        f"(spread {result.spread:.2f}x)",
        f"{result.knob:>18} {'cycles':>10}",
    ]
    for point in result.points:
        marker = "  <- best" if point is result.best else ""
        lines.append(f"{point.value:>18} {point.cycles:>10}{marker}")
    return "\n".join(lines)

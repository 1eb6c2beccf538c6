"""Design-space exploration and iso-performance Pareto selection.

Section 7.3: "for each workload we explore a large ASIC design space by
modifying hardware optimization parameters, and find the set of ASIC
designs within a certain performance threshold of Softbrain (within 10%
where possible).  Within these points, we chose a Pareto-optimal ASIC
design across power, area, and execution time, where power is given
priority over area."  :func:`select_iso_performance` implements exactly
that selection rule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence

from .ddg import Ddg
from .power_area import AsicEstimate, estimate_power_area
from .schedule import AsicDesign, schedule_ddg

#: default sweep axes (Aladdin's unrolling / array-partitioning knobs)
DEFAULT_UNROLL = (1, 2, 4, 8, 16)
DEFAULT_PARTITION = (1, 2, 4, 8)


def explore_design_space(
    ddg: Ddg,
    unroll_factors: Sequence[int] = DEFAULT_UNROLL,
    partition_factors: Sequence[int] = DEFAULT_PARTITION,
    base: Optional[AsicDesign] = None,
) -> List[AsicEstimate]:
    """Schedule the DDG at every (unroll, partition) point."""
    base = base or AsicDesign()
    estimates: List[AsicEstimate] = []
    for unroll in unroll_factors:
        for partition in partition_factors:
            design = replace(base, unroll=unroll, partition=partition)
            result = schedule_ddg(ddg, design)
            estimates.append(estimate_power_area(ddg, result))
    return estimates


def _pareto_front(points: Iterable[AsicEstimate]) -> List[AsicEstimate]:
    """Non-dominated points over (power, area, cycles)."""
    points = list(points)
    front = []
    for p in points:
        dominated = any(
            q.power_mw <= p.power_mw
            and q.area_mm2 <= p.area_mm2
            and q.cycles <= p.cycles
            and (
                q.power_mw < p.power_mw
                or q.area_mm2 < p.area_mm2
                or q.cycles < p.cycles
            )
            for q in points
        )
        if not dominated:
            front.append(p)
    return front


def select_iso_performance(estimates: Sequence[AsicEstimate],
                           target_cycles: float) -> AsicEstimate:
    """The paper's ASIC design-point selection rule.

    Prefer designs within 10% of the Softbrain cycle count; if no design
    lands in the band, fall back to every design at least as fast, else to
    the fastest.  Among candidates, take the Pareto front over
    (power, area, cycles) and order by power first, then area.
    """
    if not estimates:
        raise ValueError("no design points to select from")
    low = target_cycles * 0.9
    high = target_cycles * 1.1
    candidates = [e for e in estimates if low <= e.cycles <= high]
    if not candidates:
        # Best-effort: every at-least-as-fast design goes to the Pareto
        # pick; if there is none, only the fastest designs do.
        fast_enough = [e for e in estimates if e.cycles <= high]
        if fast_enough:
            candidates = fast_enough
        else:
            fastest = min(e.cycles for e in estimates)
            candidates = [e for e in estimates if e.cycles == fastest]
    front = _pareto_front(candidates)
    front.sort(key=lambda e: (e.power_mw, e.area_mm2, e.cycles))
    return front[0]

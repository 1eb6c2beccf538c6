"""Figures 12-15: broadly-provisioned Softbrain vs per-workload ASICs.

Per workload: simulate the stream-dataflow program on the one
broadly-provisioned Softbrain unit; trace the kernel's DDG once; model the
CPU baseline over the scalar census derived from that DDG; sweep the
mini-Aladdin design space over the same DDG and select the iso-performance
Pareto point with power priority (Section 7.3's rule); then derive the four
figures' series — speedup, power efficiency and energy efficiency relative
to the OOO4 core, and ASIC area relative to Softbrain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.asic.dse import explore_design_space, select_iso_performance
from ..baselines.asic.power_area import AsicEstimate
from ..baselines.cpu import CpuParams, estimate_cpu_cycles
from ..power.model import estimate_power, softbrain_area_mm2
from ..workloads.common import run_and_verify
from ..workloads.machsuite import MACHSUITE
from .dnn_comparison import geomean

#: figure order in the paper's plots
WORKLOAD_ORDER = [
    "bfs",
    "spmv-crs",
    "spmv-ellpack",
    "stencil",
    "stencil3d",
    "gemm",
    "md",
    "viterbi",
]


@dataclass
class MachSuiteRow:
    """Everything Figures 12-15 need for one workload."""

    workload: str
    cpu_cycles: float
    cpu_power_mw: float
    softbrain_cycles: int
    softbrain_power_mw: float
    asic: AsicEstimate

    # -- Figure 12: performance relative to the OOO4 core -------------------
    @property
    def softbrain_speedup(self) -> float:
        return self.cpu_cycles / self.softbrain_cycles

    @property
    def asic_speedup(self) -> float:
        return self.cpu_cycles / self.asic.cycles

    # -- Figure 13: power efficiency ------------------------------------------
    @property
    def softbrain_power_eff(self) -> float:
        return self.cpu_power_mw / self.softbrain_power_mw

    @property
    def asic_power_eff(self) -> float:
        return self.cpu_power_mw / self.asic.power_mw

    # -- Figure 14: energy efficiency -------------------------------------------
    @property
    def softbrain_energy_eff(self) -> float:
        cpu_energy = self.cpu_power_mw * self.cpu_cycles
        sb_energy = self.softbrain_power_mw * self.softbrain_cycles
        return cpu_energy / sb_energy

    @property
    def asic_energy_eff(self) -> float:
        cpu_energy = self.cpu_power_mw * self.cpu_cycles
        return cpu_energy / (self.asic.power_mw * self.asic.cycles)

    # -- Figure 15: area relative to Softbrain -----------------------------------
    @property
    def asic_area_ratio(self) -> float:
        return self.asic.area_mm2 / softbrain_area_mm2()


def machsuite_comparison(
    workloads: Optional[List[str]] = None,
) -> List[MachSuiteRow]:
    rows: List[MachSuiteRow] = []
    for name in workloads if workloads is not None else WORKLOAD_ORDER:
        builder, ddg_fn, census_fn, base_fn = MACHSUITE[name]
        built = builder()
        result = run_and_verify(built)
        power = estimate_power(result, built.fabric).total_mw

        ddg = ddg_fn()
        cpu = estimate_cpu_cycles(census_fn(ddg=ddg))
        points = explore_design_space(ddg, base=base_fn())
        asic = select_iso_performance(points, target_cycles=result.cycles)

        rows.append(
            MachSuiteRow(
                workload=name,
                cpu_cycles=cpu.cycles,
                cpu_power_mw=CpuParams().power_mw,
                softbrain_cycles=result.cycles,
                softbrain_power_mw=power,
                asic=asic,
            )
        )
    return rows


def _figure(rows: List[MachSuiteRow], title: str, sb_attr: str, asic_attr: str,
            unit: str = "x") -> str:
    lines = [title, f"{'workload':<14} {'Softbrain':>10} {'ASIC':>10}", "-" * 36]
    for row in rows:
        lines.append(
            f"{row.workload:<14} {getattr(row, sb_attr):>9.1f}{unit} "
            f"{getattr(row, asic_attr):>9.1f}{unit}"
        )
    lines.append("-" * 36)
    lines.append(
        f"{'GM':<14} "
        f"{geomean([getattr(r, sb_attr) for r in rows]):>9.1f}{unit} "
        f"{geomean([getattr(r, asic_attr) for r in rows]):>9.1f}{unit}"
    )
    return "\n".join(lines)


def format_figure12(rows: List[MachSuiteRow]) -> str:
    return _figure(
        rows,
        "Figure 12: speedup relative to OOO4 core",
        "softbrain_speedup",
        "asic_speedup",
    )


def format_figure13(rows: List[MachSuiteRow]) -> str:
    return _figure(
        rows,
        "Figure 13: power efficiency relative to OOO4 core",
        "softbrain_power_eff",
        "asic_power_eff",
    )


def format_figure14(rows: List[MachSuiteRow]) -> str:
    return _figure(
        rows,
        "Figure 14: energy efficiency relative to OOO4 core",
        "softbrain_energy_eff",
        "asic_energy_eff",
    )


def format_figure15(rows: List[MachSuiteRow]) -> str:
    lines = [
        "Figure 15: ASIC area relative to Softbrain (Softbrain = 1.0)",
        f"{'workload':<14} {'ASIC/Softbrain':>15}",
        "-" * 30,
    ]
    for row in rows:
        lines.append(f"{row.workload:<14} {row.asic_area_ratio:>15.3f}")
    ratios = [r.asic_area_ratio for r in rows]
    lines.append("-" * 30)
    lines.append(f"{'GM':<14} {geomean(ratios):>15.3f}")
    total = sum(r.asic.area_mm2 for r in rows)
    lines.append(
        f"all eight ASICs together / one Softbrain: "
        f"{total / softbrain_area_mm2():.2f}x"
    )
    return "\n".join(lines)

"""Area/power model of a Softbrain unit (the paper's Table 3 accounting).

Methodology mirrors the paper: per-component area and peak power come from
synthesis-calibrated constants at 55 nm / 1 GHz; a benchmark's power is
``static + activity x peak_dynamic`` per component, with activity factors
measured by the cycle-level simulator.  The constants are seeded so that at
the maximum DNN activity factors the breakdown reproduces Table 3's
published column (0.47 mm² / 119.3 mW per unit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cgra.fabric import Fabric
from ..sim.softbrain import RunResult


@dataclass(frozen=True)
class ComponentModel:
    """Area plus static/peak-dynamic power of one Softbrain component."""

    name: str
    area_mm2: float
    static_mw: float
    dynamic_peak_mw: float

    def power_mw(self, activity: float) -> float:
        activity = min(max(activity, 0.0), 1.0)
        return self.static_mw + activity * self.dynamic_peak_mw

    @property
    def peak_mw(self) -> float:
        return self.static_mw + self.dynamic_peak_mw


#: 55 nm / 1 GHz component constants.  Peak totals match Table 3:
#: control core 39.1, CGRA network 31.2, FUs 24.4, stream engines 18.3,
#: scratchpad 2.6, vector ports 3.6 -> 119.2 mW; areas sum to 0.47 mm².
SOFTBRAIN_COMPONENTS: Dict[str, ComponentModel] = {
    "control_core": ComponentModel("control_core", 0.16, 15.0, 24.1),
    "cgra_network": ComponentModel("cgra_network", 0.12, 9.4, 21.8),
    "fus": ComponentModel("fus", 0.04, 4.9, 19.5),
    "stream_engines": ComponentModel("stream_engines", 0.02, 5.5, 12.8),
    "scratchpad": ComponentModel("scratchpad", 0.10, 0.8, 1.8),
    "vector_ports": ComponentModel("vector_ports", 0.03, 1.1, 2.5),
}


def softbrain_area_mm2(num_units: int = 1) -> float:
    """Total area of ``num_units`` Softbrain tiles at 55 nm."""
    return num_units * sum(c.area_mm2 for c in SOFTBRAIN_COMPONENTS.values())


def softbrain_peak_power_mw(num_units: int = 1) -> float:
    """Peak (activity = 1) power of ``num_units`` tiles."""
    return num_units * sum(c.peak_mw for c in SOFTBRAIN_COMPONENTS.values())


@dataclass
class PowerBreakdown:
    """Per-component power for one run, in mW (one Softbrain unit)."""

    component_mw: Dict[str, float]
    activity: Dict[str, float]

    @property
    def total_mw(self) -> float:
        return sum(self.component_mw.values())

    def table(self) -> str:
        lines = [f"{'component':<16} {'activity':>8} {'power(mW)':>10}"]
        for name, mw in self.component_mw.items():
            lines.append(f"{name:<16} {self.activity[name]:>8.3f} {mw:>10.2f}")
        lines.append(f"{'TOTAL':<16} {'':>8} {self.total_mw:>10.2f}")
        return "\n".join(lines)


def activity_factors(result: RunResult, fabric: Fabric) -> Dict[str, float]:
    """Derive one activity factor per :data:`SOFTBRAIN_COMPONENTS` entry
    from simulation statistics."""
    stats = result.stats
    cycles = max(1, stats.cycles)
    num_fus = max(1, fabric.num_fus)

    fu = stats.ops_executed / (cycles * num_fus)
    network = stats.cgra_utilization
    engines = sum(stats.engine_busy.values()) / (3.0 * cycles)
    scratch_accesses = (
        result.scratchpad.stats.reads + result.scratchpad.stats.writes
    )
    scratch = scratch_accesses / cycles
    total_port_width = sum(p.width for p in fabric.input_ports) + sum(
        p.width for p in fabric.output_ports
    )
    # words moved per cycle, normalised by aggregate port bandwidth
    words_moved = stats.instances_fired * (
        sum(p.width for p in fabric.input_ports[:2]) or 1
    )
    ports = min(1.0, words_moved / (cycles * max(1, total_port_width // 2)))
    core = min(1.0, stats.control_instructions / cycles)
    return {
        "control_core": core,
        "cgra_network": min(1.0, network),
        "fus": min(1.0, fu),
        "stream_engines": min(1.0, engines),
        "scratchpad": min(1.0, scratch),
        "vector_ports": ports,
    }


def estimate_power(result: RunResult, fabric: Fabric) -> PowerBreakdown:
    """Power of one Softbrain unit during a run, from its measured
    activity factors."""
    activity = activity_factors(result, fabric)
    component_mw = {
        name: model.power_mw(activity[name])
        for name, model in SOFTBRAIN_COMPONENTS.items()
    }
    return PowerBreakdown(component_mw, activity)

"""Figure 11: DNN-layer speedups of GPU, DianNao and Softbrain over a CPU.

Softbrain runs as 8 units (Section 7.1's FU-count-matched configuration):
the workload is partitioned across units, unit 0 is simulated with its
1/8 share of DRAM bandwidth, and the slowest unit's cycles (the partitions
are symmetric, so unit 0's) stand for the whole device.  The CPU, GPU and
DianNao see the full workload through their analytical models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..baselines.cpu import estimate_cpu_cycles
from ..baselines.diannao import estimate_diannao_cycles
from ..baselines.gpu import estimate_gpu_cycles
from ..cgra.fabric import dnn_provisioned
from ..power.model import estimate_power
from ..sim.memory import MemoryParams
from ..sim.softbrain import RunResult, run_program
from ..workloads.dnn import (
    DNN_LAYERS,
    DnnLayer,
    build_dnn_layer,
    gpu_workload,
    layer_cost,
)

NUM_UNITS = 8


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))


@dataclass
class DnnRow:
    """One Figure 11 group: speedups over the CPU baseline."""

    layer: str
    cpu_cycles: float
    gpu_speedup: float
    diannao_speedup: float
    softbrain_speedup: float
    softbrain_cycles: float
    softbrain_power_mw: float  # all 8 units


def run_softbrain_dnn(layer: DnnLayer, num_units: int = NUM_UNITS) -> RunResult:
    """Simulate unit 0's share with its slice of DRAM bandwidth."""
    built = build_dnn_layer(layer, unit_id=0, num_units=num_units)
    base = MemoryParams()
    memory = built.fresh_memory(replace(
        base, dram_gap_cycles=base.dram_gap_cycles * num_units))
    # Regions read by every unit are fetched from DRAM once chip-wide and
    # shared through the cache; unit 0 sees them warm.
    for addr, nbytes in built.meta.get("shared_regions", []):
        memory.warm(addr, nbytes)
    result = run_program(built.program, fabric=built.fabric, memory=memory)
    built.verify(memory)
    return result


def dnn_comparison(layers: Optional[List[DnnLayer]] = None) -> List[DnnRow]:
    """Compute every Figure 11 bar group."""
    rows: List[DnnRow] = []
    for layer in layers if layers is not None else DNN_LAYERS:
        cpu = estimate_cpu_cycles(layer.cpu_census()).cycles
        gpu = estimate_gpu_cycles(gpu_workload(layer))
        diannao = estimate_diannao_cycles(layer_cost(layer))
        result = run_softbrain_dnn(layer)
        power = estimate_power(result, dnn_provisioned()).total_mw * NUM_UNITS
        rows.append(
            DnnRow(
                layer=layer.name,
                cpu_cycles=cpu,
                gpu_speedup=cpu / gpu,
                diannao_speedup=cpu / diannao,
                softbrain_speedup=cpu / result.cycles,
                softbrain_cycles=result.cycles,
                softbrain_power_mw=power,
            )
        )
    return rows


def format_figure11(rows: List[DnnRow]) -> str:
    """Render the Figure 11 series (speedup over CPU, log-scale bars)."""
    lines = [
        f"{'layer':<10} {'GPU':>8} {'DianNao':>9} {'Softbrain':>10}",
        "-" * 40,
    ]
    for row in rows:
        lines.append(
            f"{row.layer:<10} {row.gpu_speedup:>7.1f}x "
            f"{row.diannao_speedup:>8.1f}x {row.softbrain_speedup:>9.1f}x"
        )
    lines.append("-" * 40)
    lines.append(
        f"{'GM':<10} {geomean([r.gpu_speedup for r in rows]):>7.1f}x "
        f"{geomean([r.diannao_speedup for r in rows]):>8.1f}x "
        f"{geomean([r.softbrain_speedup for r in rows]):>9.1f}x"
    )
    return "\n".join(lines)

"""Figure 11: DNN-layer speedups of GPU, DianNao and Softbrain over a CPU.

Softbrain runs as 8 units (Section 7.1's FU-count-matched configuration):
the layer is partitioned across the units, which run as one simulated
device on one shared memory interface, and the device's cycles (its
slowest unit's finish) are Softbrain's.  Every unit's outputs are
verified.  The CPU, GPU and DianNao see the full workload through their
analytical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.cpu import estimate_cpu_cycles
from ..baselines.diannao import estimate_diannao_cycles
from ..baselines.gpu import estimate_gpu_cycles
from ..workloads.common import run_units_and_verify
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


def dnn_comparison(layers: Optional[List[DnnLayer]] = None) -> List[DnnRow]:
    """Compute every Figure 11 bar group."""
    rows: List[DnnRow] = []
    for layer in layers if layers is not None else DNN_LAYERS:
        cpu = estimate_cpu_cycles(layer.cpu_census()).cycles
        gpu = estimate_gpu_cycles(gpu_workload(layer))
        diannao = estimate_diannao_cycles(layer_cost(layer))
        device = run_units_and_verify([
            build_dnn_layer(layer, unit_id=unit, num_units=NUM_UNITS)
            for unit in range(NUM_UNITS)
        ])
        rows.append(
            DnnRow(
                layer=layer.name,
                cpu_cycles=cpu,
                gpu_speedup=cpu / gpu,
                diannao_speedup=cpu / diannao,
                softbrain_speedup=cpu / device.cycles,
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

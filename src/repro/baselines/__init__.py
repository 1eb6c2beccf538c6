"""Comparison baselines: CPU (OOO4), GPU (Kepler), DianNao, and ASICs."""

from .cpu import CpuEstimate, CpuParams, ScalarWorkload, estimate_cpu_cycles
from .diannao import (
    DIANNAO_AREA_MM2,
    DIANNAO_POWER_MW,
    DianNaoParams,
    DnnLayerCost,
    estimate_diannao_cycles,
)
from .gpu import CLASS_UTILIZATION, GpuParams, GpuWorkload, estimate_gpu_cycles

__all__ = [
    "CLASS_UTILIZATION",
    "CpuEstimate",
    "CpuParams",
    "DIANNAO_AREA_MM2",
    "DIANNAO_POWER_MW",
    "DianNaoParams",
    "DnnLayerCost",
    "GpuParams",
    "GpuWorkload",
    "ScalarWorkload",
    "estimate_cpu_cycles",
    "estimate_diannao_cycles",
    "estimate_gpu_cycles",
]

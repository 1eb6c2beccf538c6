"""GPU baseline: a Kepler-class GPGPU (GTX 750: 4 SMs, 512 CUDA cores).

Only the DNN workloads are compared against the GPU (the paper's
Figure 11).  We use a roofline-style model: compute throughput limited by
the CUDA cores at a workload-class utilisation factor, and memory
throughput limited by GDDR bandwidth.  Utilisation factors encode what the
paper observed: convolutions keep the SMs reasonably busy, classifier
layers (GEMV) are bandwidth-bound, and pooling has almost no arithmetic
intensity.  Cycles are 1 GHz-normalised like every other machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class GpuParams:
    """Kepler GTX 750-class machine parameters (1 GHz-normalised)."""

    cuda_cores: int = 512
    #: MACs count as two ops; cores do one fused op per cycle
    ops_per_core_per_cycle: float = 1.0
    mem_bw_bytes_per_cycle: float = 80.0  # ~80 GB/s GDDR5
    #: fixed per-kernel-launch overhead (driver + launch), cycles
    launch_overhead_cycles: float = 8000.0


#: fraction of peak compute each workload class sustains (occupancy,
#: divergence, and instruction-mix effects folded together)
CLASS_UTILIZATION: Dict[str, float] = {
    "classifier": 0.18,
    "conv": 0.35,
    "pool": 0.08,
}


@dataclass(frozen=True)
class GpuWorkload:
    """What the GPU model needs to know about a DNN layer."""

    name: str
    kind: str  # "classifier" | "conv" | "pool"
    mac_ops: int  # multiply-accumulate count (0 for pooling)
    simple_ops: int  # non-MAC arithmetic (pooling adds/max)
    memory_bytes: int  # unique traffic (weights + inputs + outputs)
    kernels: int = 1  # kernel launches


def estimate_gpu_cycles(workload: GpuWorkload) -> float:
    """Roofline estimate of GPU execution time in 1 GHz cycles."""
    params = GpuParams()
    try:
        utilization = CLASS_UTILIZATION[workload.kind]
    except KeyError:
        raise KeyError(
            f"unknown workload kind {workload.kind!r}; "
            f"known: {sorted(CLASS_UTILIZATION)}"
        ) from None
    total_ops = 2 * workload.mac_ops + workload.simple_ops
    compute = total_ops / (
        params.cuda_cores * params.ops_per_core_per_cycle * utilization
    )
    memory = workload.memory_bytes / params.mem_bw_bytes_per_cycle
    return max(compute, memory) + params.launch_overhead_cycles * workload.kernels

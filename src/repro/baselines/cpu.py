"""CPU baseline: a 4-wide out-of-order core ("OOO4", Sandy Bridge class).

The paper normalises every result to a single thread on an i7-2600K.  We
model the core analytically over a *scalar operation census* of each
workload: the bottleneck is the maximum of the issue-throughput bound, the
per-port structural bounds, the dependence (critical-path) bound and the
memory-bandwidth bound — the standard first-order OOO performance model.
All machines are expressed in cycles at a nominal 1 GHz so that speedups
are directly comparable (frequency differences are folded into the model's
effective-throughput constants, as the paper's normalisation does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..power.tech import scale_power


@dataclass(frozen=True)
class ScalarWorkload:
    """Scalar operation census of one workload (per full execution).

    ``critical_path`` is the length in cycles of the longest unavoidable
    serial dependence chain (e.g. a reduction that the compiler cannot
    re-associate); ``memory_bytes`` is the total off-chip traffic assuming a
    cache sized like the CPU's LLC.
    """

    name: str
    int_ops: int = 0
    mul_ops: int = 0
    div_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    critical_path: int = 0
    memory_bytes: int = 0
    #: fraction of branches mispredicted (irregular short loops pay here)
    mispredict_rate: float = 0.02

    @property
    def total_instructions(self) -> int:
        return (
            self.int_ops
            + self.mul_ops
            + self.div_ops
            + self.loads
            + self.stores
            + self.branches
        )


@dataclass(frozen=True)
class CpuParams:
    """OOO4 machine parameters (per cycle, 1 GHz-normalised)."""

    issue_width: float = 4.0
    ipc_efficiency: float = 0.70  # branch misses, scheduling gaps
    load_store_ports: float = 2.0
    mul_throughput: float = 1.0
    div_throughput: float = 1.0 / 20.0
    mem_bw_bytes_per_cycle: float = 12.0
    branch_penalty_cycles: float = 14.0
    #: single-core power (caches included), 55 nm-normalised, mW
    power_mw: float = scale_power(5200.0, 32.0, 55.0)
    area_mm2: float = 18.0  # one SNB core + its LLC slice at 55 nm


@dataclass
class CpuEstimate:
    """Cycle estimate with the contributing bounds, for reporting."""

    workload: str
    cycles: float
    bounds: Dict[str, float] = field(default_factory=dict)

    @property
    def limiting_factor(self) -> str:
        return max(self.bounds, key=self.bounds.get)  # type: ignore[arg-type]


def estimate_cpu_cycles(workload: ScalarWorkload) -> CpuEstimate:
    """First-order OOO model: cycles = max over structural/dependence bounds."""
    params = CpuParams()
    mispredicts = (
        workload.branches * workload.mispredict_rate * params.branch_penalty_cycles
    )
    bounds = {
        "issue": workload.total_instructions
        / (params.issue_width * params.ipc_efficiency),
        "memory_ports": (workload.loads + workload.stores)
        / params.load_store_ports,
        "multiply": workload.mul_ops / params.mul_throughput,
        "divide": workload.div_ops / params.div_throughput,
        "dependences": float(workload.critical_path),
        "bandwidth": workload.memory_bytes / params.mem_bw_bytes_per_cycle,
    }
    # Misprediction flushes serialise with whatever else bounds the run.
    cycles = max(bounds.values()) + mispredicts
    bounds["mispredicts"] = mispredicts
    return CpuEstimate(workload.name, max(cycles, 1.0), bounds)

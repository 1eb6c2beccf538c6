"""DianNao baseline: the domain-specific DNN accelerator (Chen et al.).

The paper compares Softbrain against DianNao "using a simple performance
model [that] optimistically assumes perfect hardware pipelining and
scratchpad reuse; it is only bound by parallelism in the neural network
topology and by memory bandwidth" (Section 6).  That is exactly this model:

    cycles = max(MACs / NFU_throughput,  unique_bytes / memory_bandwidth)

Power and area are the published DianNao figures normalised to 55 nm, as
used in the paper's Table 3 (2.16 mm², 418.3 mW).
"""

from __future__ import annotations

from dataclasses import dataclass

#: published DianNao figures, normalised to 55 nm (paper Table 3)
DIANNAO_AREA_MM2 = 2.16
DIANNAO_POWER_MW = 418.3


@dataclass(frozen=True)
class DianNaoParams:
    """NFU-1/2/3 structural parameters (Tn = 16)."""

    #: 16x16 multipliers feeding adder trees: MACs retired per cycle
    macs_per_cycle: int = 256
    #: pooling/activation path throughput, simple ops per cycle
    simple_ops_per_cycle: int = 256
    #: memory interface bandwidth, bytes per cycle (same DRAM as Softbrain)
    mem_bw_bytes_per_cycle: float = 16.0


@dataclass(frozen=True)
class DnnLayerCost:
    """Topology-derived cost of one layer for the DianNao model."""

    name: str
    mac_ops: int
    simple_ops: int
    #: unique bytes with perfect on-chip reuse (weights + inputs + outputs)
    unique_bytes: int
    #: traffic inflation from partial-sum re-fetching between NBout tiles.
    #: The paper attributes Softbrain's pooling advantage to exactly this:
    #: DianNao re-fetches neighbouring partial sums that Softbrain's more
    #: flexible network keeps on-fabric (Section 7.1).
    refetch_factor: float = 1.0


def estimate_diannao_cycles(layer: DnnLayerCost) -> float:
    """The paper's optimistic DianNao performance model."""
    params = DianNaoParams()
    compute = (
        layer.mac_ops / params.macs_per_cycle
        + layer.simple_ops / params.simple_ops_per_cycle
    )
    memory = (
        layer.unique_bytes * layer.refetch_factor / params.mem_bw_bytes_per_cycle
    )
    return max(compute, memory, 1.0)

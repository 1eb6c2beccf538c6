"""Scheduler output: the configuration image for one DFG on one fabric.

A :class:`CgraConfig` is what ``SD_Config`` loads (Section 3.3): instruction
placement, routed edges, vector-port mapping and delay-FIFO settings.  The
simulator consumes its ``latency`` (full pipeline depth through the fabric)
and ``port_map``; the power model consumes its placement/route statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...cgra.fabric import Fabric
from ...cgra.network import Coord, Link
from ..dfg.graph import Dfg

#: identifies one routed dataflow edge: (producer value, consumer, slot).
#: ``consumer`` is an instruction name or ``"out:<port>"``; slot is the
#: operand index (or output-port lane).
EdgeKey = Tuple[str, str, int]


@dataclass
class RoutedEdge:
    """One routed, delay-matched dataflow edge."""

    key: EdgeKey
    src: Coord
    dst: Coord
    links: List[Link]
    extra_delay: int = 0

    @property
    def hops(self) -> int:
        return len(self.links)


@dataclass
class CgraConfig:
    """A complete, valid mapping of a DFG onto a fabric."""

    dfg: Dfg
    fabric: Fabric
    placement: Dict[str, Coord]
    port_map: Dict[str, int]  # DFG port name -> hw port id (per kind)
    edges: Dict[EdgeKey, RoutedEdge]
    latency: int

    @property
    def config_size_bytes(self) -> int:
        return self.fabric.config_size_bytes

    @property
    def total_hops(self) -> int:
        return sum(edge.hops for edge in self.edges.values())

    def hw_input_port(self, dfg_port: str) -> int:
        if dfg_port not in self.dfg.inputs:
            raise KeyError(f"{dfg_port!r} is not an input port of {self.dfg.name}")
        return self.port_map[dfg_port]

    def hw_output_port(self, dfg_port: str) -> int:
        if dfg_port not in self.dfg.outputs:
            raise KeyError(f"{dfg_port!r} is not an output port of {self.dfg.name}")
        return self.port_map[dfg_port]

    def active_fus(self) -> Dict[str, int]:
        """Ops actually placed, by FU flavour — drives dynamic power."""
        histogram: Dict[str, int] = {}
        for inst_name, coord in self.placement.items():
            fu_name = self.fabric.pes[coord].fu.name
            histogram[fu_name] = histogram.get(fu_name, 0) + 1
        return histogram

    def summary(self) -> str:
        return (
            f"{self.dfg.name} on {self.fabric.name}: "
            f"{len(self.placement)} insts, {len(self.edges)} edges, "
            f"{self.total_hops} hops, latency {self.latency}, II 1"
        )

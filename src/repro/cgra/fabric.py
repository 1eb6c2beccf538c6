"""The complete CGRA fabric: PE grid + mesh network + hardware vector ports.

A :class:`Fabric` is the reconfigurable half of a Softbrain unit.  It is
provisioned once per chip family (FU mix, port widths) and then programmed
per-phase by loading a :class:`~repro.core.compiler.config.CgraConfig`
produced by the spatial scheduler.

Two presets mirror the paper's evaluation:

* :func:`dnn_provisioned` — the DianNao-comparison design (Section 7.1):
  4x5 FU grid with 16-bit four-way sub-word multiply/ALU units and a
  sigmoid unit.
* :func:`broadly_provisioned` — the MachSuite design (Section 7.2): FU mix
  set to the maximum needed across the eight implemented workloads (adds
  dividers for md-knn, keeps 64-bit datapaths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from .fu import fu_for_name
from .network import Coord, MeshNetwork
from .pe import PeSpec

#: maximum words a 512-bit vector port moves per cycle
MAX_PORT_WIDTH = 8


@dataclass(frozen=True)
class HwVectorPort:
    """One hardware vector port (a 512-bit FIFO at the CGRA boundary).

    Attributes:
        port_id: hardware port number (namespace is per kind).
        kind: :class:`~repro.core.isa.commands.PortRef`'s vocabulary:
            ``"in"`` (stream engines -> CGRA), ``"out"`` (CGRA -> stream
            engines) or ``"ind"`` (indirect address buffer, not attached
            to the CGRA — Section 4.1).
        width: words transferable per cycle (1..8).
        depth: FIFO capacity in *instances* (entries of ``width`` words).
        attach: switch coordinates each lane connects to (empty for
            indirect ports).
    """

    port_id: int
    kind: str
    width: int
    depth: int
    attach: Tuple[Coord, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_PORT_WIDTH:
            raise ValueError(f"port width must be 1..{MAX_PORT_WIDTH}")
        if self.kind not in ("in", "out", "ind"):
            raise ValueError(f"bad port kind {self.kind!r}")
        if self.depth < 1:
            raise ValueError("port depth must be positive")

    @property
    def name(self) -> str:
        """The port's one name, as :class:`PortRef` prints it: ``in3``."""
        return f"{self.kind}{self.port_id}"

    @property
    def capacity_words(self) -> int:
        return self.width * self.depth


class FabricError(ValueError):
    """Raised for inconsistent fabric descriptions."""


@dataclass
class Fabric:
    """A provisioned CGRA: grid, network and boundary ports.

    ``ports`` maps ``(kind, port_id)`` to every port: input, then output,
    then indirect.
    """

    name: str
    mesh: MeshNetwork
    pes: Dict[Coord, PeSpec]
    input_ports: List[HwVectorPort]
    output_ports: List[HwVectorPort]
    indirect_ports: List[HwVectorPort] = field(default_factory=list)
    ports: Dict[Tuple[str, int], HwVectorPort] = field(
        init=False, repr=False)

    def __post_init__(self) -> None:
        self.ports = {
            (port.kind, port.port_id): port
            for port in (self.input_ports + self.output_ports
                         + self.indirect_ports)
        }
        for coord in self.mesh.coords():
            if coord not in self.pes:
                raise FabricError(f"no PE at {coord}")
        for port in self.input_ports + self.output_ports:
            for coord in port.attach:
                if not self.mesh.in_bounds(coord):
                    raise FabricError(
                        f"port {port.port_id} attaches out of bounds at {coord}"
                    )

    # -- capability queries ---------------------------------------------------

    @property
    def num_fus(self) -> int:
        return len(self.pes)

    def fu_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for pe in self.pes.values():
            histogram[pe.fu.name] = histogram.get(pe.fu.name, 0) + 1
        return histogram

    def pes_supporting(self, mnemonic: str) -> List[PeSpec]:
        return [pe for pe in self.pes.values() if pe.supports(mnemonic)]

    @cached_property
    def ids_supporting(self) -> Dict[str, Tuple[int, ...]]:
        """``op -> mesh ids of the PEs supporting it``, in :attr:`pes` order.

        Ids index ``mesh.tables``.  Lists every op some FU supports; an op
        none supports is absent.  Built on first use; a fabric's PEs never
        change after construction.
        """
        ids = self.mesh.tables.ids
        supporting: Dict[str, List[int]] = {}
        for coord, pe in self.pes.items():
            for op in pe.fu.ops:
                supporting.setdefault(op, []).append(ids[coord])
        return {op: tuple(op_ids) for op, op_ids in supporting.items()}

    @cached_property
    def fu_richness(self) -> List[int]:
        """``fu_richness[id]`` is the number of ops the FU at mesh id
        ``id`` supports; built on first use."""
        return [len(self.pes[coord].fu.ops) for coord in self.mesh.tables.coords]

    def find_port(self, kind: str, port_id: int) -> HwVectorPort:
        try:
            return self.ports[kind, port_id]
        except KeyError:
            raise FabricError(
                f"no port {kind}{port_id} in fabric {self.name!r}") from None

    @property
    def config_size_bytes(self) -> int:
        """Size of a full configuration image (PEs, switches, ports).

        Each PE needs opcode + operand routing + constants (8 B), each
        switch a channel map (8 B) and each port a lane map (4 B); this
        lands the DNN design near the paper's <10-cycle cached reconfig.
        """
        n_tiles = self.mesh.cols * self.mesh.rows
        n_ports = len(self.input_ports) + len(self.output_ports)
        return 8 * n_tiles + 8 * n_tiles + 4 * n_ports


def _spread_attach(
    columns: int, width: int, row: int, offset: int
) -> Tuple[Coord, ...]:
    """Spread a port's lanes across the grid edge to minimise contention."""
    return tuple(((offset + i) % columns, row) for i in range(width))


def build_fabric(
    name: str,
    cols: int,
    rows: int,
    fu_grid: List[List[str]],
    input_widths: List[int],
    output_widths: List[int],
    num_indirect: int = 2,
    port_depth: int = 16,
    channels: int = 4,
) -> Fabric:
    """Assemble a fabric from an FU-name grid and port width lists.

    ``fu_grid[y][x]`` names the FU flavour at column ``x``, row ``y``.
    Input ports attach along the top edge, output ports along the bottom,
    with lanes spread across columns.
    """
    if len(fu_grid) != rows or any(len(r) != cols for r in fu_grid):
        raise FabricError(f"fu_grid must be {rows} rows x {cols} cols")
    mesh = MeshNetwork(cols, rows, channels=channels)
    pes = {
        (x, y): PeSpec(x, y, fu_for_name(fu_grid[y][x]))
        for y in range(rows)
        for x in range(cols)
    }
    input_ports = [
        HwVectorPort(i, "in", w, port_depth, _spread_attach(cols, w, 0, i))
        for i, w in enumerate(input_widths)
    ]
    output_ports = [
        HwVectorPort(i, "out", w, port_depth, _spread_attach(cols, w, rows - 1, i))
        for i, w in enumerate(output_widths)
    ]
    indirect_ports = [
        HwVectorPort(i, "ind", MAX_PORT_WIDTH, port_depth)
        for i in range(num_indirect)
    ]
    return Fabric(name, mesh, pes, input_ports, output_ports, indirect_ports)


def dnn_provisioned(port_depth: int = 16) -> Fabric:
    """The DianNao-comparison Softbrain tile: 5x4 grid, mul/alu/sigmoid mix."""
    fu_grid = [
        ["mul", "alu", "mul", "alu", "sigmoid"],
        ["mul", "alu", "mul", "alu", "alu"],
        ["mul", "alu", "mul", "alu", "alu"],
        ["mul", "alu", "mul", "alu", "alu"],
    ]
    return build_fabric(
        "dnn-provisioned",
        cols=5,
        rows=4,
        fu_grid=fu_grid,
        input_widths=[8, 8, 4, 4, 2, 1, 1, 1],
        output_widths=[8, 4, 4, 2, 1, 1],
        port_depth=port_depth,
    )


def broadly_provisioned(port_depth: int = 16) -> Fabric:
    """The MachSuite Softbrain tile: adds dividers, keeps 64-bit lanes."""
    fu_grid = [
        ["mul", "alu", "mul", "div", "sigmoid"],
        ["mul", "alu", "mul", "alu", "alu"],
        ["mul", "alu", "mul", "div", "alu"],
        ["mul", "alu", "mul", "alu", "alu"],
    ]
    return build_fabric(
        "broadly-provisioned",
        cols=5,
        rows=4,
        fu_grid=fu_grid,
        input_widths=[8, 4, 4, 2, 2, 2, 2, 2],
        output_widths=[8, 4, 4, 2, 1, 1],
        num_indirect=4,
        port_depth=port_depth,
    )

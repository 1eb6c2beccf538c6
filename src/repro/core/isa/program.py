"""Stream coordination programs: the paper's intrinsics API.

A :class:`StreamProgram` is the software side of a stream-dataflow phase —
an ordered list of stream/barrier commands exactly as the control core would
generate them (compare the paper's Figure 6 classifier listing).  Programs
are written against a scheduled :class:`~repro.core.compiler.config.CgraConfig`
so that DFG port *names* can be used instead of raw hardware port numbers.

``host(cycles)`` models work the control core does between commands
(address arithmetic, loop control); the simulator charges those cycles to
command generation, which is how the paper accounts for the control core's
residual role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..compiler.config import CgraConfig
from .commands import (
    Command,
    PortRef,
    SDBarrierAll,
    SDBarrierScratchRd,
    SDBarrierScratchWr,
    SDCleanPort,
    SDConfig,
    SDConstPort,
    SDIndPortMem,
    SDIndPortPort,
    SDMemPort,
    SDMemScratch,
    SDPortMem,
    SDPortPort,
    SDPortScratch,
    SDScratchPort,
    in_port,
    ind_port,
    out_port,
)
from .patterns import Affine2D, WORD_BYTES

#: synthetic memory region where configuration images are linked
CONFIG_BASE_ADDR = 0xC000_0000


@dataclass(frozen=True)
class HostCompute:
    """Control-core work between commands, in cycles.

    Not a stream command, but it declares ``OPCODE``/``LAYOUT``/``PORTS``
    like one (see :class:`Command`), so whole programs encode.
    """

    OPCODE = 0x00
    LAYOUT = (("cycles", "u32"),)
    PORTS = ()

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("host cycles must be non-negative")


ProgramItem = Union[Command, HostCompute]
PortLike = Union[str, PortRef]


class ProgramError(ValueError):
    """Raised for malformed stream programs."""


class StreamProgram:
    """Ordered stream-command program bound to a CGRA configuration."""

    def __init__(self, name: str, cgra_config: Optional[CgraConfig] = None) -> None:
        self.name = name
        self.items: List[ProgramItem] = []
        self.config_images: Dict[int, CgraConfig] = {}
        self._bound = cgra_config
        if cgra_config is not None:
            self.config(cgra_config)

    # -- port resolution ------------------------------------------------------

    def _resolve(self, port: PortLike, expected_kind: str) -> PortRef:
        if isinstance(port, PortRef):
            if port.kind != expected_kind:
                raise ProgramError(
                    f"expected a {expected_kind!r} port, got {port}"
                )
            return port
        if self._bound is None:
            raise ProgramError(
                f"port name {port!r} used but no CGRA config is bound"
            )
        dfg = self._bound.dfg
        if expected_kind == "in" and port in dfg.inputs:
            return in_port(self._bound.hw_input_port(port))
        if expected_kind == "out" and port in dfg.outputs:
            return out_port(self._bound.hw_output_port(port))
        raise ProgramError(
            f"{port!r} is not a DFG {expected_kind}put port of "
            f"{dfg.name!r} (inputs={list(dfg.inputs)}, outputs={list(dfg.outputs)})"
        )

    def _append(self, item: ProgramItem) -> None:
        self.items.append(item)

    # -- intrinsics (Table 2) ---------------------------------------------------

    def config(self, cgra_config: CgraConfig) -> None:
        """``SD_Config``: switch the fabric to a configuration image."""
        address = CONFIG_BASE_ADDR + 4096 * len(self.config_images)
        self.config_images[address] = cgra_config
        self._bound = cgra_config
        self._append(SDConfig(address, cgra_config.config_size_bytes))

    def mem_port(
        self,
        addr: int,
        stride: int,
        access_size: int,
        num_strides: int,
        port: PortLike,
        elem_bytes: int = WORD_BYTES,
        signed: bool = False,
    ) -> None:
        """``SD_Mem_Port``: memory -> input port with an affine pattern."""
        dest = port if isinstance(port, PortRef) else self._resolve(port, "in")
        pattern = Affine2D(addr, access_size, stride, num_strides, elem_bytes, signed)
        self._append(SDMemPort(pattern, dest))

    def mem_scratch(
        self,
        addr: int,
        stride: int,
        access_size: int,
        num_strides: int,
        scratch_addr: int,
        elem_bytes: int = WORD_BYTES,
    ) -> None:
        """``SD_Mem_Scratch``: memory -> scratchpad."""
        pattern = Affine2D(addr, access_size, stride, num_strides, elem_bytes)
        self._append(SDMemScratch(pattern, scratch_addr))

    def scratch_port(
        self,
        scratch_addr: int,
        stride: int,
        access_size: int,
        num_strides: int,
        port: PortLike,
        elem_bytes: int = WORD_BYTES,
        signed: bool = False,
    ) -> None:
        """``SD_Scratch_Port``: scratchpad -> input port."""
        dest = port if isinstance(port, PortRef) else self._resolve(port, "in")
        pattern = Affine2D(
            scratch_addr, access_size, stride, num_strides, elem_bytes, signed
        )
        self._append(SDScratchPort(pattern, dest))

    def mem_to_indirect(
        self,
        addr: int,
        num_elements: int,
        index_port: int,
        elem_bytes: int = WORD_BYTES,
    ) -> None:
        """``SD_Mem_Port`` targeting an indirect port: fill it with indices."""
        nbytes = num_elements * elem_bytes
        pattern = Affine2D(addr, nbytes, nbytes, 1, elem_bytes)
        self._append(SDMemPort(pattern, ind_port(index_port)))

    def const_port(self, value: int, num_elements: int, port: PortLike) -> None:
        """``SD_Const_Port``: send a constant word N times."""
        self._append(SDConstPort(value, num_elements, self._resolve(port, "in")))

    def clean_port(self, num_elements: int, port: PortLike) -> None:
        """``SD_Clean_Port``: discard N words from an output port."""
        self._append(SDCleanPort(num_elements, self._resolve(port, "out")))

    def port_port(self, src: PortLike, num_elements: int, dst: PortLike) -> None:
        """``SD_Port_Port``: recurrence stream output -> input."""
        dest = dst if isinstance(dst, PortRef) else self._resolve(dst, "in")
        self._append(SDPortPort(self._resolve(src, "out"), num_elements, dest))

    def port_scratch(
        self,
        src: PortLike,
        num_elements: int,
        scratch_addr: int,
        elem_bytes: int = WORD_BYTES,
    ) -> None:
        """``SD_Port_Scratch``: output port -> scratchpad."""
        self._append(
            SDPortScratch(
                self._resolve(src, "out"), num_elements, scratch_addr, elem_bytes
            )
        )

    def port_mem(
        self,
        src: PortLike,
        stride: int,
        access_size: int,
        num_strides: int,
        addr: int,
        elem_bytes: int = WORD_BYTES,
    ) -> None:
        """``SD_Port_Mem``: output port -> memory with an affine pattern."""
        pattern = Affine2D(addr, access_size, stride, num_strides, elem_bytes)
        self._append(SDPortMem(self._resolve(src, "out"), pattern))

    def ind_port_port(
        self,
        index_port: int,
        offset_addr: int,
        dest: PortLike,
        num_elements: int,
        elem_bytes: int = WORD_BYTES,
        index_scale: int = WORD_BYTES,
        signed: bool = False,
    ) -> None:
        """``SD_IndPort_Port``: indirect gather into an input port."""
        dest_ref = dest if isinstance(dest, PortRef) else self._resolve(dest, "in")
        self._append(
            SDIndPortPort(
                ind_port(index_port),
                offset_addr,
                dest_ref,
                num_elements,
                elem_bytes,
                index_scale,
                signed,
            )
        )

    def ind_port_mem(
        self,
        index_port: int,
        src: PortLike,
        offset_addr: int,
        num_elements: int,
        elem_bytes: int = WORD_BYTES,
        index_scale: int = WORD_BYTES,
    ) -> None:
        """``SD_IndPort_Mem``: indirect scatter from an output port."""
        self._append(
            SDIndPortMem(
                ind_port(index_port),
                self._resolve(src, "out"),
                offset_addr,
                num_elements,
                elem_bytes,
                index_scale,
            )
        )

    def barrier_scratch_rd(self) -> None:
        self._append(SDBarrierScratchRd())

    def barrier_scratch_wr(self) -> None:
        self._append(SDBarrierScratchWr())

    def barrier_all(self) -> None:
        self._append(SDBarrierAll())

    def host(self, cycles: int) -> None:
        """Model control-core work (loop/address arithmetic) in cycles."""
        self._append(HostCompute(cycles))

    # -- introspection ------------------------------------------------------------

    @property
    def commands(self) -> List[Command]:
        return [item for item in self.items if isinstance(item, Command)]

    @property
    def num_commands(self) -> int:
        return len(self.commands)

    @property
    def control_instructions(self) -> int:
        """Total control-core instructions: command encodings + host work."""
        total = 0
        for item in self.items:
            if isinstance(item, HostCompute):
                total += item.cycles
            else:
                total += item.instruction_count
        return total

    def __repr__(self) -> str:
        return f"StreamProgram({self.name!r}, {self.num_commands} commands)"

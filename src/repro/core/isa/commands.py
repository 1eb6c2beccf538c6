"""The stream-dataflow command set (Table 2 of the paper).

Commands are issued in program order by the control core, dispatched by the
stream dispatcher once their resources (vector ports, stream-engine table
entries) are free, and executed concurrently by the stream engines.  Each
command class documents its Table 2 row.

Ports are referenced through :class:`PortRef`, which namespaces the three
port kinds: CGRA input ports (``in``), CGRA output ports (``out``) and
indirect ports (``ind`` — address buffers not connected to the CGRA).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar, Tuple

from .patterns import Affine2D, WORD_BYTES


@dataclass(frozen=True)
class PortRef:
    """A namespaced vector-port reference."""

    kind: str  # "in" | "out" | "ind"
    port_id: int

    def __post_init__(self) -> None:
        if self.kind not in ("in", "out", "ind"):
            raise ValueError(f"bad port kind {self.kind!r}")
        if self.port_id < 0:
            raise ValueError("port id must be non-negative")

    def __str__(self) -> str:
        return f"{self.kind}{self.port_id}"


# A program names each port many times, so each constructor returns one
# interned PortRef per id.
@functools.lru_cache(maxsize=None)
def in_port(port_id: int) -> PortRef:
    return PortRef("in", port_id)


@functools.lru_cache(maxsize=None)
def out_port(port_id: int) -> PortRef:
    return PortRef("out", port_id)


@functools.lru_cache(maxsize=None)
def ind_port(port_id: int) -> PortRef:
    return PortRef("ind", port_id)


@dataclass(frozen=True)
class Command:
    """Base class: every stream-dataflow command.

    Each class states its decode facts as class attributes:

    * ``engine`` names the unit that executes the command: ``mse_read``,
      ``mse_write``, ``sse`` (scratchpad), ``rse`` (recurrence/const) or
      ``dispatch`` (barriers, handled by the dispatcher itself);
    * ``dispatch_class`` names the dispatcher's issue rule for it:
      ``stream`` (issues once its ports and engine table entry are free),
      ``barrier`` (releases at the queue head once its condition holds)
      or ``config`` (issues once the unit has quiesced);
    * ``instruction_count`` counts the control-core instructions that encode
      and issue the command (1-3);
    * ``scratch_counter`` names the outstanding-scratchpad counter
      (``scratch_rd`` / ``scratch_wr``) the command holds while it runs;
      on a scratch barrier it names the counter the barrier waits to
      drain; ``""`` elsewhere;
    * ``OPCODE`` is the command's opcode byte and ``LAYOUT`` its
      ``(field, codec)`` pairs in field order, which
      :mod:`repro.core.isa.encoding` reads to encode and decode it;
    * ``PORTS`` lists ``(field, role)`` for each port the command uses
      (see :func:`port_uses`).
    """

    engine: ClassVar[str]
    dispatch_class: ClassVar[str] = "stream"
    instruction_count: ClassVar[int] = 2
    scratch_counter: ClassVar[str] = ""
    OPCODE: ClassVar[int]
    LAYOUT: ClassVar[Tuple[Tuple[str, str], ...]] = ()
    PORTS: ClassVar[Tuple[Tuple[str, str], ...]] = ()


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class SDConfig(Command):
    """``SD_Config``: load a CGRA configuration image from memory."""

    engine = "mse_read"
    dispatch_class = "config"
    instruction_count = 1
    OPCODE = 0x01
    LAYOUT = (("address", "u64"), ("size", "u32"))

    address: int
    size: int


# -- memory / scratchpad reads -------------------------------------------------

@dataclass(frozen=True)
class SDMemPort(Command):
    """``SD_Mem_Port``: read memory with an affine pattern into a port."""

    engine = "mse_read"
    OPCODE = 0x02
    LAYOUT = (("pattern", "pattern"), ("dest", "port"))
    PORTS = (("dest", "w"),)

    pattern: Affine2D
    dest: PortRef

    def __post_init__(self) -> None:
        if self.dest.kind not in ("in", "ind"):
            raise ValueError("SD_Mem_Port destination must be an input/indirect port")


@dataclass(frozen=True)
class SDMemScratch(Command):
    """``SD_Mem_Scratch``: read memory with a pattern into the scratchpad."""

    engine = "mse_read"
    instruction_count = 3
    scratch_counter = "scratch_wr"
    OPCODE = 0x03
    LAYOUT = (("pattern", "pattern"), ("scratch_addr", "u32"))

    pattern: Affine2D
    scratch_addr: int


@dataclass(frozen=True)
class SDScratchPort(Command):
    """``SD_Scratch_Port``: read scratchpad with a pattern into a port."""

    engine = "sse"
    scratch_counter = "scratch_rd"
    OPCODE = 0x04
    LAYOUT = (("pattern", "pattern"), ("dest", "port"))
    PORTS = (("dest", "w"),)

    pattern: Affine2D
    dest: PortRef

    def __post_init__(self) -> None:
        if self.dest.kind not in ("in", "ind"):
            raise ValueError(
                "SD_Scratch_Port destination must be an input/indirect port"
            )


# -- constants and recurrences --------------------------------------------------

@dataclass(frozen=True)
class SDConstPort(Command):
    """``SD_Const_Port``: send a constant word N times to an input port."""

    engine = "rse"
    instruction_count = 1
    OPCODE = 0x05
    LAYOUT = (("value", "u64"), ("num_elements", "u32"), ("dest", "port"))
    PORTS = (("dest", "w"),)

    value: int
    num_elements: int
    dest: PortRef

    def __post_init__(self) -> None:
        if self.dest.kind != "in":
            raise ValueError("SD_Const_Port destination must be an input port")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


@dataclass(frozen=True)
class SDCleanPort(Command):
    """``SD_Clean_Port``: discard N words from an output port."""

    engine = "rse"
    instruction_count = 1
    OPCODE = 0x06
    LAYOUT = (("num_elements", "u32"), ("source", "port"))
    PORTS = (("source", "r"),)

    num_elements: int
    source: PortRef

    def __post_init__(self) -> None:
        if self.source.kind != "out":
            raise ValueError("SD_Clean_Port source must be an output port")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


@dataclass(frozen=True)
class SDPortPort(Command):
    """``SD_Port_Port``: recurrence stream, output port -> input port."""

    engine = "rse"
    OPCODE = 0x07
    LAYOUT = (("source", "port"), ("num_elements", "u32"), ("dest", "port"))
    PORTS = (("source", "r"), ("dest", "w"))

    source: PortRef
    num_elements: int
    dest: PortRef

    def __post_init__(self) -> None:
        if self.source.kind != "out" or self.dest.kind not in ("in", "ind"):
            raise ValueError("SD_Port_Port is output port -> input/indirect port")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


# -- writes ---------------------------------------------------------------------

@dataclass(frozen=True)
class SDPortScratch(Command):
    """``SD_Port_Scratch``: write words from an output port to scratchpad."""

    engine = "sse"
    scratch_counter = "scratch_wr"
    OPCODE = 0x08
    LAYOUT = (("source", "port"), ("num_elements", "u32"),
              ("scratch_addr", "u32"), ("elem_bytes", "u8"))
    PORTS = (("source", "r"),)

    source: PortRef
    num_elements: int
    scratch_addr: int
    elem_bytes: int = WORD_BYTES

    def __post_init__(self) -> None:
        if self.source.kind != "out":
            raise ValueError("SD_Port_Scratch source must be an output port")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


@dataclass(frozen=True)
class SDPortMem(Command):
    """``SD_Port_Mem``: write from an output port to memory with a pattern."""

    engine = "mse_write"
    instruction_count = 3
    OPCODE = 0x09
    LAYOUT = (("source", "port"), ("pattern", "pattern"))
    PORTS = (("source", "r"),)

    source: PortRef
    pattern: Affine2D

    def __post_init__(self) -> None:
        if self.source.kind != "out":
            raise ValueError("SD_Port_Mem source must be an output port")


# -- indirect access --------------------------------------------------------------

@dataclass(frozen=True)
class SDIndPortPort(Command):
    """``SD_IndPort_Port``: indirect load.

    Addresses (or offsets from ``offset_addr``) stream out of an indirect
    port; loaded values go to ``dest``.
    """

    engine = "mse_read"
    instruction_count = 3
    OPCODE = 0x0A
    LAYOUT = (("index_port", "port"), ("offset_addr", "u64"), ("dest", "port"),
              ("num_elements", "u32"), ("elem_bytes", "u8"),
              ("index_scale", "u8"), ("signed", "bool"))
    PORTS = (("index_port", "r"), ("dest", "w"))

    index_port: PortRef
    offset_addr: int
    dest: PortRef
    num_elements: int
    elem_bytes: int = WORD_BYTES
    index_scale: int = WORD_BYTES  # bytes per index unit (1 => raw pointers)
    signed: bool = False  # sign-extend narrow gathered elements

    def __post_init__(self) -> None:
        if self.index_port.kind != "ind":
            raise ValueError("index port must be an indirect port")
        if self.dest.kind not in ("in", "ind"):
            raise ValueError("SD_IndPort_Port destination must be input/indirect")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


@dataclass(frozen=True)
class SDIndPortMem(Command):
    """``SD_IndPort_Mem``: indirect store.

    Addresses stream from the indirect port; data words stream from
    ``source`` (an output port) and are scattered to memory.
    """

    engine = "mse_write"
    instruction_count = 3
    OPCODE = 0x0B
    LAYOUT = (("index_port", "port"), ("source", "port"),
              ("offset_addr", "u64"), ("num_elements", "u32"),
              ("elem_bytes", "u8"), ("index_scale", "u8"))
    PORTS = (("index_port", "r"), ("source", "r"))

    index_port: PortRef
    source: PortRef
    offset_addr: int
    num_elements: int
    elem_bytes: int = WORD_BYTES
    index_scale: int = WORD_BYTES

    def __post_init__(self) -> None:
        if self.index_port.kind != "ind":
            raise ValueError("index port must be an indirect port")
        if self.source.kind != "out":
            raise ValueError("SD_IndPort_Mem source must be an output port")
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")


# -- barriers ---------------------------------------------------------------------

@dataclass(frozen=True)
class SDBarrierScratchRd(Command):
    """``SD_Barrier_Scratch_Rd``: later commands wait for scratch reads."""

    engine = "dispatch"
    dispatch_class = "barrier"
    instruction_count = 1
    scratch_counter = "scratch_rd"
    OPCODE = 0x0C


@dataclass(frozen=True)
class SDBarrierScratchWr(Command):
    """``SD_Barrier_Scratch_Wr``: later commands wait for scratch writes."""

    engine = "dispatch"
    dispatch_class = "barrier"
    instruction_count = 1
    scratch_counter = "scratch_wr"
    OPCODE = 0x0D


@dataclass(frozen=True)
class SDBarrierAll(Command):
    """``SD_Barrier_All``: wait for every outstanding command; syncs core."""

    engine = "dispatch"
    dispatch_class = "barrier"
    instruction_count = 1
    OPCODE = 0x0E


BARRIER_TYPES = (SDBarrierScratchRd, SDBarrierScratchWr, SDBarrierAll)


def is_barrier(command: Command) -> bool:
    return isinstance(command, BARRIER_TYPES)


def port_uses(command: Command) -> Tuple[Tuple[PortRef, str], ...]:
    """Each port a command uses, tagged ``"w"`` (writes data into the port)
    or ``"r"`` (drains data from it).

    Ordering is enforced per (port, role): two writers of a port serialise,
    but a writer and a reader pipeline — that is what makes an indirect
    port's fill stream and its gather stream a working producer/consumer
    pair, and what lets ``SD_Clean`` drain an output port while the CGRA
    fills it.
    """
    return tuple([(getattr(command, name), role)
                  for name, role in command.PORTS])

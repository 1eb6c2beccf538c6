"""Binary encoding of stream-dataflow commands.

A storage and bit-flip format: programs are stored, hashed and
round-tripped through it, and ``cmd.illegal`` faults flip its bits.  An
item encodes as its ``OPCODE`` byte followed by each field of its
``LAYOUT`` (see :class:`~repro.core.isa.commands.Command`) in order,
little-endian with no padding.  The byte length is not an instruction
count: the 1-3 control-core instructions per command
(``Command.instruction_count``) come from Table 2 of the paper.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .commands import Command, PortRef
from .patterns import Affine2D
from .program import HostCompute, ProgramItem


class EncodingError(ValueError):
    """Raised on malformed byte streams, unknown opcodes and field values
    the encoding cannot hold."""


_PORT_KINDS = ("in", "out", "ind")


def _decode_port(kind: int, port_id: int) -> PortRef:
    if kind >= len(_PORT_KINDS):
        raise EncodingError(f"bad port kind byte {kind}")
    return PortRef(_PORT_KINDS[kind], port_id)


def _decode_bool(byte: int) -> bool:
    """Only 0 and 1 decode, so every flag has one encoding."""
    if byte > 1:
        raise EncodingError(f"bad bool byte {byte}")
    return bool(byte)


def _scalar(fmt: str):
    return struct.Struct(fmt), lambda value: (value,), lambda value: value


#: codec -> (struct, field value -> packed values, unpacked values -> value)
_CODECS = {
    "u8": _scalar("<B"),
    "u32": _scalar("<I"),
    "u64": _scalar("<Q"),
    "bool": (struct.Struct("<B"), lambda flag: (int(flag),), _decode_bool),
    "port": (
        struct.Struct("<BB"),
        lambda port: (_PORT_KINDS.index(port.kind), port.port_id),
        _decode_port,
    ),
    "pattern": (
        # start, access_size, stride, num_strides, elem_bytes, signed
        struct.Struct("<QIIIBB"),
        lambda p: (p.start, p.access_size, p.stride, p.num_strides,
                   p.elem_bytes, int(p.signed)),
        lambda *values: Affine2D(*values[:5], _decode_bool(values[5])),
    ),
}

_BY_OPCODE = {cls.OPCODE: cls for cls in (HostCompute, *Command.__subclasses__())}


def encode_item(item: ProgramItem) -> bytes:
    """Encode one command (or host-compute marker) to bytes."""
    name = type(item).__name__
    if getattr(item, "OPCODE", None) is None:
        raise EncodingError(f"cannot encode {name}")
    parts = [bytes([item.OPCODE])]
    for field, codec in item.LAYOUT:
        fmt, pack, _ = _CODECS[codec]
        try:
            parts.append(fmt.pack(*pack(getattr(item, field))))
        except struct.error as exc:
            raise EncodingError(f"cannot encode {name}.{field}: {exc}") from None
    return b"".join(parts)


def decode_item(data: bytes, offset: int = 0) -> Tuple[ProgramItem, int]:
    """Decode one item starting at ``offset``; returns (item, next offset)."""
    if offset >= len(data):
        raise EncodingError("decode past end of buffer")
    cls = _BY_OPCODE.get(data[offset])
    if cls is None:
        raise EncodingError(f"unknown opcode 0x{data[offset]:02x}")
    offset += 1
    values = []
    for field, codec in cls.LAYOUT:
        fmt, _, unpack = _CODECS[codec]
        if offset + fmt.size > len(data):
            raise EncodingError(
                f"truncated {cls.__name__}: field {field} needs {fmt.size} "
                f"bytes at offset {offset}, buffer has {len(data)}")
        values.append(unpack(*fmt.unpack_from(data, offset)))
        offset += fmt.size
    return cls(*values), offset


def encode_items(items: List[ProgramItem]) -> bytes:
    """Encode a whole program body."""
    return b"".join(encode_item(item) for item in items)


def decode_items(data: bytes) -> List[ProgramItem]:
    """Decode a whole program body (inverse of :func:`encode_items`)."""
    items: List[ProgramItem] = []
    offset = 0
    while offset < len(data):
        item, offset = decode_item(data, offset)
        items.append(item)
    return items

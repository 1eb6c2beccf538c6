"""Programmable scratchpad: the private address space for data reuse.

A single-read-, single-write-ported SRAM (Section 4.3), 64 bytes wide —
sized proportional to the CGRA's maximum consumption rate.  The scratchpad
stream engine may perform one read-stream access and one write-stream
access per cycle; the dispatcher's scratch barriers order readers against
writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.isa.patterns import SCRATCH_BYTES
from ..trace import NULL_SINK, TraceEvent, TraceSink
from .errors import ScratchpadError
from .memory import WORD_MASK, unpack_words

__all__ = ["Scratchpad", "ScratchpadError", "ScratchpadStats"]


@dataclass
class ScratchpadStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class Scratchpad:
    """Functional contents and access counters of the scratchpad SRAM."""

    #: bytes one access may move
    width_bytes = 64

    def __init__(self) -> None:
        self._data = bytearray(SCRATCH_BYTES)
        self.stats = ScratchpadStats()
        self.trace: TraceSink = NULL_SINK
        self._trace_unit = 0
        self._clock: Optional[Callable[[], int]] = None

    def attach_trace(self, sink: TraceSink, unit: int,
                     clock: Callable[[], int]) -> None:
        """Emit ``scratch.read`` / ``scratch.write`` events into ``sink``.

        ``clock`` supplies the current cycle (the scratchpad itself is
        unclocked; the owning :class:`~repro.sim.softbrain.SoftbrainSim`
        passes its own cycle counter).
        """
        self.trace = sink
        self._trace_unit = unit
        self._clock = clock

    def _trace_access(self, kind: str, addr: int, size: int) -> None:
        self.trace.emit(TraceEvent(
            kind, self._clock() if self._clock else 0, self._trace_unit,
            "scratchpad", {"addr": addr, "bytes": size},
        ))

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > SCRATCH_BYTES:
            raise ScratchpadError(
                f"scratch access [{addr}, {addr + size}) outside "
                f"0..{SCRATCH_BYTES}"
            )

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        self.stats.reads += 1
        self.stats.bytes_read += size
        if self.trace.enabled:
            self._trace_access("scratch.read", addr, size)
        return bytes(self._data[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        if self.trace.enabled:
            self._trace_access("scratch.write", addr, len(data))
        self._data[addr : addr + len(data)] = data

    def read_elements(self, addrs: Sequence[int], size: int, signed: bool,
                      contiguous: bool = False) -> List[int]:
        """Read same-size elements, each as a raw 64-bit word (zero- or
        sign-extended).

        Counts, traces and range-checks each element exactly as one
        :meth:`read` of it would (one ``scratch.read`` event per element),
        so a read that raises has counted the elements before the bad one.
        ``contiguous`` says each element starts where the previous one
        ends (:attr:`LineRequest.contiguous`); such a run inside the
        scratchpad is read with one ``struct`` unpack.
        """
        stats = self.stats
        tracing = self.trace.enabled
        count = len(addrs)
        if (contiguous and addrs[0] >= 0
                and addrs[0] + count * size <= SCRATCH_BYTES):
            stats.reads += count
            stats.bytes_read += count * size
            if tracing:
                for addr in addrs:
                    self._trace_access("scratch.read", addr, size)
            return unpack_words(self._data, addrs[0], count, size, signed)
        data = self._data
        out = []
        for addr in addrs:
            self._check(addr, size)
            stats.reads += 1
            stats.bytes_read += size
            if tracing:
                self._trace_access("scratch.read", addr, size)
            out.append(
                int.from_bytes(data[addr:addr + size], "little", signed=signed)
                & WORD_MASK
            )
        return out

    def snapshot(self) -> bytes:
        """The full scratchpad image, without touching the access stats
        (used for end-state comparison by tests and the fuzz oracle)."""
        return bytes(self._data)

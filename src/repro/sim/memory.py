"""Memory substrate: functional backing store + cache timing model.

Softbrain's memory stream engine talks to a wide-interface L2-class cache
(Section 4.3): 64-byte requests, one accepted per cycle, with misses served
by a DRAM model with its own latency and bandwidth.  The same object holds
the *functional* byte-addressable contents (a sparse page store, since
stream programs use scattered address regions) and the *timing* model that
tells the stream engines when a request's data is available.
"""

from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.isa.patterns import LINE_BYTES
from ..trace import NULL_SINK, SHARED_UNIT, TraceEvent, TraceSink
from .errors import MemoryProtocolError

_PAGE_BITS = 12
PAGE_BYTES = 1 << _PAGE_BITS
#: one vector-port word
WORD_MASK = 0xFFFF_FFFF_FFFF_FFFF
#: ``struct`` codes of the unsigned element sizes
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: initial memory contents: ``(address, bytes)`` segments, written in order
MemoryImage = Tuple[Tuple[int, bytes], ...]


@functools.lru_cache(maxsize=256)
def _run_struct(count: int, size: int, signed: bool) -> struct.Struct:
    code = _CODES[size]
    return struct.Struct(f"<{count}{code.lower() if signed else code}")


def unpack_words(buffer, offset: int, count: int, size: int,
                 signed: bool) -> List[int]:
    """``count`` back-to-back ``size``-byte elements at ``offset`` of
    ``buffer``, each as a raw 64-bit word (zero- or sign-extended)."""
    if signed and size < 8:
        return [value & WORD_MASK for value in
                _run_struct(count, size, True).unpack_from(buffer, offset)]
    return list(_run_struct(count, size, False).unpack_from(buffer, offset))


def pack_words(values: Sequence[int], elem_bytes: int = 8) -> bytes:
    """Integers as ``elem_bytes``-byte two's-complement little-endian words."""
    mask = (1 << (8 * elem_bytes)) - 1
    return struct.pack(f"<{len(values)}{_CODES[elem_bytes]}",
                       *[value & mask for value in values])


@dataclass
class MemoryParams:
    """Timing knobs for the cache/memory hierarchy.

    Defaults model the paper's standalone-device setup: an L2-class cache
    with a 64 B/cycle interface, and DRAM sustaining one line per
    ``dram_gap_cycles`` (4 -> 16 B/cycle, roughly half a DDR3 channel at
    1 GHz, matching the memory-bandwidth-sensitivity the DNN results show).
    """

    l2_size_bytes: int = 2 * 1024 * 1024
    l2_hit_latency: int = 12
    dram_latency: int = 90
    dram_gap_cycles: int = 4
    accepts_per_cycle: int = 1


class BackingStore:
    """Sparse byte-addressable functional memory."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        page_id = addr >> _PAGE_BITS
        page = self._pages.get(page_id)
        if page is None:
            page = bytearray(PAGE_BYTES)
            self._pages[page_id] = page
        return page

    def read(self, addr: int, size: int) -> bytes:
        """``size`` bytes at ``addr``, materialising every page they touch
        (absent bytes read as zeros); an access inside one page is one
        slice, a longer one walks the pages."""
        offset = addr & (PAGE_BYTES - 1)
        if 0 < size <= PAGE_BYTES - offset:
            return bytes(self._page(addr)[offset:offset + size])
        out = bytearray(size)
        pos = 0
        while pos < size:
            page = self._page(addr + pos)
            offset = (addr + pos) & (PAGE_BYTES - 1)
            chunk = min(size - pos, PAGE_BYTES - offset)
            out[pos : pos + chunk] = page[offset : offset + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr``; one slice inside a page, as
        :meth:`read`."""
        size = len(data)
        offset = addr & (PAGE_BYTES - 1)
        if 0 < size <= PAGE_BYTES - offset:
            self._page(addr)[offset:offset + size] = data
            return
        pos = 0
        while pos < size:
            page = self._page(addr + pos)
            offset = (addr + pos) & (PAGE_BYTES - 1)
            chunk = min(size - pos, PAGE_BYTES - offset)
            page[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read_word(self, addr: int, size: int = 8, signed: bool = False) -> int:
        return int.from_bytes(self.read(addr, size), "little", signed=signed)

    def write_word(self, addr: int, value: int, size: int = 8) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_elements(self, addrs: Sequence[int], size: int, signed: bool,
                      contiguous: bool = False) -> List[int]:
        """Read same-size elements, each as a raw 64-bit word (zero- or
        sign-extended), materialising every page an element touches.

        ``contiguous`` says each element starts where the previous one
        ends (:attr:`LineRequest.contiguous`); such a run inside one page
        is read with one ``struct`` unpack.  Other elements are read one
        by one, and one that straddles a page boundary goes through
        :meth:`read`.
        """
        page_mask = PAGE_BYTES - 1
        if contiguous:
            offset = addrs[0] & page_mask
            if offset + len(addrs) * size <= PAGE_BYTES:
                return unpack_words(self._page(addrs[0]), offset,
                                    len(addrs), size, signed)
        out = []
        for addr in addrs:
            offset = addr & page_mask
            if offset + size <= PAGE_BYTES:
                page = self._page(addr)
                value = int.from_bytes(
                    page[offset:offset + size], "little", signed=signed
                )
            else:  # element straddles a page boundary: take the slow route
                value = int.from_bytes(
                    self.read(addr, size), "little", signed=signed
                )
            out.append(value & WORD_MASK)
        return out

    def snapshot_pages(self) -> Dict[int, bytes]:
        """Immutable copy of all touched pages (page id -> bytes).

        Absent pages read as zeros, so two stores are equal iff their
        snapshots agree on the union of their page ids with zero-fill —
        the comparison the differential oracle performs.
        """
        return {pid: bytes(page) for pid, page in self._pages.items()}


@dataclass
class MemoryStats:
    """Traffic counters for the power model and reports."""

    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def requests(self) -> int:
        return self.reads + self.writes


class MemorySystem:
    """Functional contents + request timing for the memory interface.

    Timing contract: :meth:`issue` is called with the current cycle and a
    line address; it returns the cycle at which the request's data is
    available (read) or globally visible (write).  The interface accepts at
    most ``accepts_per_cycle`` requests per cycle; callers must not call
    :meth:`issue` unless :meth:`can_accept` said yes this cycle.
    """

    def __init__(self, params: Optional[MemoryParams] = None) -> None:
        self.params = params or MemoryParams()
        self.store = BackingStore()
        self.stats = MemoryStats()
        self._cached_lines: "OrderedDict[int, None]" = OrderedDict()
        self._capacity_lines = self.params.l2_size_bytes // LINE_BYTES
        self._accepted_at: int = -1
        self._accepted_count: int = 0
        self._dram_free_at: int = 0
        self.trace: TraceSink = NULL_SINK
        self._trace_unit = SHARED_UNIT
        #: optional fault injector (``mem.delay`` faults); None = no cost
        self._faults = None

    def attach_trace(self, sink: TraceSink, unit: int = SHARED_UNIT) -> None:
        """Emit one ``mem.access`` event per accepted line request.

        ``unit`` tags the events; a memory shared by several units keeps
        the default :data:`~repro.trace.SHARED_UNIT`.
        """
        self.trace = sink
        self._trace_unit = unit

    def attach_faults(self, injector) -> None:
        """Let a :class:`repro.resilience.FaultInjector` stretch response
        latencies (``mem.delay`` faults)."""
        self._faults = injector

    # -- functional -----------------------------------------------------------

    def preload(self, addr: int, data: bytes) -> None:
        """Initialise memory contents before simulation."""
        self.store.write(addr, data)

    # -- timing -----------------------------------------------------------------

    def can_accept(self, cycle: int) -> bool:
        if cycle != self._accepted_at:
            return True
        return self._accepted_count < self.params.accepts_per_cycle

    def _note_accept(self, cycle: int) -> None:
        if cycle != self._accepted_at:
            self._accepted_at = cycle
            self._accepted_count = 0
        self._accepted_count += 1

    def _touch_line(self, line_addr: int) -> bool:
        """LRU lookup/fill; returns True on hit."""
        hit = line_addr in self._cached_lines
        if hit:
            self._cached_lines.move_to_end(line_addr)
        else:
            self._cached_lines[line_addr] = None
            if len(self._cached_lines) > self._capacity_lines:
                self._cached_lines.popitem(last=False)
        return hit

    def issue(self, cycle: int, line_addr: int, is_write: bool, nbytes: int) -> int:
        """Issue one line request; returns the data-ready cycle."""
        if not self.can_accept(cycle):
            raise MemoryProtocolError(
                "memory interface over-subscribed this cycle"
            )
        self._note_accept(cycle)
        hit = self._touch_line(line_addr)
        if is_write:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        if hit:
            self.stats.hits += 1
            ready = cycle + self.params.l2_hit_latency
        else:
            self.stats.misses += 1
            start = max(cycle, self._dram_free_at)
            self._dram_free_at = start + self.params.dram_gap_cycles
            ready = start + self.params.dram_latency
        if self._faults is not None and cycle >= self._faults.mem_delay_at:
            ready += self._faults.mem_delay(cycle, line_addr, is_write)
        if self.trace.enabled:
            self.trace.emit(TraceEvent(
                "mem.access", cycle, self._trace_unit, "memory",
                {"line_addr": line_addr, "write": is_write,
                 "bytes": nbytes, "hit": hit, "ready": ready},
            ))
        return ready

    def warm(self, addr: int, nbytes: int) -> None:
        """Mark an address range as L2-resident (for warm-cache runs)."""
        first = (addr // LINE_BYTES) * LINE_BYTES
        last = addr + nbytes
        for line in range(first, last, LINE_BYTES):
            self._touch_line(line)


def load_image(image: MemoryImage, params: Optional[MemoryParams] = None) -> MemorySystem:
    """A cold memory with ``params`` timing whose store holds ``image``:
    where every run of a built workload or fuzz case starts."""
    memory = MemorySystem(params)
    for addr, data in image:
        memory.store.write(addr, data)
    return memory

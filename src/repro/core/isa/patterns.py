"""Stream access patterns: two-dimensional affine and indirect.

The stream half of stream-dataflow supports exactly the patterns of the
paper's Figure 5 — accesses of the form ``a[C*i + j]``: an *access size*
(bytes per contiguous access), a *stride* (bytes between access starts) and
a *number of strides*.  Setting ``stride == access_size`` gives linear
streams, ``stride > access_size`` strided, ``stride < access_size``
overlapped, and ``stride == 0`` repeating.

Address generation units (Section 4.3) turn a pattern into the minimal
sequence of 64-byte-aligned line requests; :func:`affine_requests` is that
coalescing, shared by the memory and scratchpad stream engines.
:func:`coalesce_indirect` is the indirect AGU the memory engines use for
gathers and scatters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

#: memory interface width — one request covers one 64-byte line
LINE_BYTES = 64
#: the CGRA datapath word
WORD_BYTES = 8
#: most elements one line request carries
MAX_REQUEST_ELEMENTS = LINE_BYTES // 2
#: scratchpad capacity, the paper's 4 KB design point; the simulator and
#: the functional interpreter both reject accesses outside it
SCRATCH_BYTES = 4096


class PatternError(ValueError):
    """Raised for degenerate access patterns."""


@dataclass(frozen=True)
class Affine2D:
    """A 2D affine access pattern (Figure 5).

    Attributes:
        start: base byte address.
        access_size: bytes per contiguous access (the inner dimension).
        stride: bytes between consecutive access starts (0 repeats).
        num_strides: number of accesses (the outer dimension).
        elem_bytes: element granularity (1, 2, 4 or 8) — each element
            occupies one 64-bit word at a vector port; narrow elements are
            zero- or sign-extended on load and truncated on store.
        signed: sign-extend narrow loads (ignored when elem_bytes == 8).
    """

    start: int
    access_size: int
    stride: int
    num_strides: int
    elem_bytes: int = WORD_BYTES
    signed: bool = False

    def __post_init__(self) -> None:
        if self.access_size <= 0:
            raise PatternError(f"access_size must be positive: {self.access_size}")
        if self.num_strides <= 0:
            raise PatternError(f"num_strides must be positive: {self.num_strides}")
        if self.stride < 0:
            raise PatternError(f"stride must be non-negative: {self.stride}")
        if self.elem_bytes not in (1, 2, 4, 8):
            raise PatternError(f"elem_bytes must be 1/2/4/8: {self.elem_bytes}")
        if self.access_size % self.elem_bytes:
            raise PatternError(
                f"access_size {self.access_size} not a multiple of "
                f"elem_bytes {self.elem_bytes}"
            )
        if self.start < 0:
            raise PatternError("start address must be non-negative")

    @classmethod
    def linear(cls, start: int, length_bytes: int, elem_bytes: int = WORD_BYTES
               ) -> "Affine2D":
        """A purely sequential stream of ``length_bytes`` from ``start``."""
        return cls(start, length_bytes, length_bytes, 1, elem_bytes)

    @property
    def total_bytes(self) -> int:
        return self.access_size * self.num_strides

    @property
    def num_elements(self) -> int:
        return self.total_bytes // self.elem_bytes

    @property
    def extent(self) -> int:
        """One past the highest byte address the pattern touches."""
        return self.start + self.stride * (self.num_strides - 1) + self.access_size

    def element_addresses(self) -> Iterator[int]:
        """Byte address of each element, in stream order."""
        per_access = self.access_size // self.elem_bytes
        for i in range(self.num_strides):
            base = self.start + i * self.stride
            for j in range(per_access):
                yield base + j * self.elem_bytes

    def classify(self) -> str:
        """Pattern family name as used in Figure 5 / Table 4."""
        if self.num_strides == 1 or self.stride == self.access_size:
            return "linear"
        if self.stride == 0:
            return "repeating"
        if self.stride < self.access_size:
            return "overlapped"
        return "strided"


class LineRequest(NamedTuple):
    """One 64-byte-aligned memory request carrying whole elements.

    Attributes:
        line_addr: byte address of the line (multiple of LINE_BYTES).
        element_addrs: addresses of the stream elements served, stream order.
        elem_bytes: element size.
        contiguous: each element starts where the previous one ends
            (``element_addrs == range(first, first + bytes_used,
            elem_bytes)``), so one read of ``bytes_used`` bytes from the
            first address returns them all.
    """

    line_addr: int
    element_addrs: Tuple[int, ...]
    elem_bytes: int
    contiguous: bool

    @property
    def num_elements(self) -> int:
        return len(self.element_addrs)

    @property
    def bytes_used(self) -> int:
        return len(self.element_addrs) * self.elem_bytes


def affine_requests(pattern: Affine2D) -> Tuple[LineRequest, ...]:
    """The affine AGU: minimal line requests for a 2D affine pattern.

    Elements must be delivered in stream order, so a request closes as
    soon as the next element falls outside the current line, or once it
    holds ``MAX_REQUEST_ELEMENTS`` (linear patterns produce one request
    per line, large strides one request per access).  An element belongs
    to the line its first byte is in.
    """
    elem_bytes = pattern.elem_bytes
    requests: List[LineRequest] = []
    line = -1  # line of the open request
    batch: List[int] = []
    contiguous = True
    for addr in pattern.element_addresses():
        addr_line = addr - addr % LINE_BYTES
        if addr_line == line and len(batch) < MAX_REQUEST_ELEMENTS:
            contiguous = contiguous and addr == batch[-1] + elem_bytes
        else:
            if batch:
                requests.append(LineRequest(line, tuple(batch), elem_bytes,
                                            contiguous))
            line, batch, contiguous = addr_line, [], True
        batch.append(addr)
    requests.append(LineRequest(line, tuple(batch), elem_bytes, contiguous))
    return tuple(requests)


def coalesce_indirect(indices: Sequence[int], offset_addr: int,
                      index_scale: int, limit: int) -> Tuple[List[int], int]:
    """The indirect AGU (Section 4.3): the addresses
    ``offset_addr + index * index_scale`` of up to ``limit`` leading
    ``indices`` that do not decrease and share one 64-byte line, and that
    line.  The stream engines pass a ``limit`` of 1 to 4."""
    addrs: List[int] = []
    line = -1
    for i in range(limit):
        addr = offset_addr + indices[i] * index_scale
        addr_line = (addr // LINE_BYTES) * LINE_BYTES
        if not addrs:
            line = addr_line
        elif addr_line != line or addr < addrs[-1]:
            break
        addrs.append(addr)
    assert addrs
    return addrs, line

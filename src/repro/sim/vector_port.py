"""Vector-port runtime state: the FIFOs between stream engines and CGRA.

Each hardware vector port is a 512-bit-wide FIFO (Section 4.4).  We model
it as a word FIFO with *reservation*: a stream engine reserves space when it
issues a memory request so that in-flight data always has a landing slot
(the paper's backpressure contract — "a buffer is allocated on a request to
memory to ensure space exists").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..cgra.fabric import HwVectorPort
from .errors import PortRuntimeError

__all__ = ["PortRuntimeError", "VectorPortState"]


class VectorPortState:
    """Runtime FIFO for one hardware vector port.

    Words enter via :meth:`push` (after :meth:`reserve`), leave via
    :meth:`pop_words`.  ``reserved`` counts reserved-but-unarrived words so
    producers never overrun the FIFO.  ``writers`` holds the active
    streams writing this port in program order (appended when a stream is
    accepted, removed when it retires); only the first may deliver.
    """

    def __init__(self, spec: HwVectorPort) -> None:
        self.spec = spec
        self.capacity_words = spec.capacity_words
        self.fifo: Deque[int] = deque()
        self.reserved = 0
        self.total_pushed = 0
        self.total_popped = 0
        self.writers: Deque = deque()

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def free_words(self) -> int:
        return self.capacity_words - len(self.fifo) - self.reserved

    def reserve(self, nwords: int) -> None:
        if nwords > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: reserve "
                f"{nwords} > free {self.free_words}"
            )
        self.reserved += nwords

    def push(self, words: List[int], reserved: bool = True) -> None:
        if reserved:
            if len(words) > self.reserved:
                raise PortRuntimeError(
                    f"port {self.spec.name}: push "
                    f"{len(words)} exceeds reservation {self.reserved}"
                )
            self.reserved -= len(words)
        elif len(words) > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: push "
                f"{len(words)} > free {self.free_words}"
            )
        self.fifo.extend(words)
        self.total_pushed += len(words)

    def pop_words(self, nwords: int) -> List[int]:
        fifo = self.fifo
        if len(fifo) < nwords:
            raise PortRuntimeError(
                f"port {self.spec.name}: pop "
                f"{nwords} > occupancy {len(fifo)}"
            )
        self.total_popped += nwords
        if nwords == len(fifo):  # common full-drain case: one bulk copy
            words = list(fifo)
            fifo.clear()
            return words
        popleft = fifo.popleft
        return [popleft() for _ in range(nwords)]

    def __repr__(self) -> str:
        return (
            f"VectorPortState({self.spec.name}, "
            f"occ={self.occupancy}/{self.capacity_words}, "
            f"reserved={self.reserved})"
        )

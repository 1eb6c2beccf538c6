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

__all__ = ["COMPACT_WORDS", "PortRuntimeError", "VectorPortState"]

#: popped words a port's list may hold before a pop drops them
COMPACT_WORDS = 64


class VectorPortState:
    """Runtime FIFO for one hardware vector port.

    Words enter via :meth:`push` (after :meth:`reserve`), leave via
    :meth:`pop_words`.  The resident words are ``words[head:]``; a pop
    moves ``head`` and drops the popped words once ``head`` passes
    :data:`COMPACT_WORDS` or the FIFO empties.  ``reserved`` counts
    reserved-but-unarrived words so producers never overrun the FIFO.
    ``occupancy``, ``reserved`` and ``free_words`` are plain counts that
    every operation keeps up to date: ``occupancy + reserved + free_words
    == capacity_words``.  ``writers`` holds the active streams writing
    this port in program order (appended when a stream is accepted,
    removed when it retires); only the first may deliver.
    """

    def __init__(self, spec: HwVectorPort) -> None:
        self.spec = spec
        self.capacity_words = spec.capacity_words
        self.words: List[int] = []
        self.head = 0
        self.occupancy = 0
        self.reserved = 0
        self.free_words = self.capacity_words
        self.writers: Deque = deque()

    def peek(self, nwords: int) -> List[int]:
        """The first ``nwords`` resident words (fewer if fewer are)."""
        head = self.head
        return self.words[head:head + nwords]

    def reserve(self, nwords: int) -> None:
        if nwords > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: reserve "
                f"{nwords} > free {self.free_words}"
            )
        self.reserved += nwords
        self.free_words -= nwords

    def push(self, words: List[int], reserved: bool = True) -> None:
        count = len(words)
        if reserved:
            if count > self.reserved:
                raise PortRuntimeError(
                    f"port {self.spec.name}: push "
                    f"{count} exceeds reservation {self.reserved}"
                )
            self.reserved -= count
        elif count > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: push "
                f"{count} > free {self.free_words}"
            )
        else:
            self.free_words -= count
        self.words += words
        self.occupancy += count

    def pop_words(self, nwords: int) -> List[int]:
        occupancy = self.occupancy
        if nwords > occupancy:
            raise PortRuntimeError(
                f"port {self.spec.name}: pop "
                f"{nwords} > occupancy {occupancy}"
            )
        head = self.head
        end = head + nwords
        words = self.words[head:end]
        self.occupancy = occupancy - nwords
        self.free_words += nwords
        if nwords == occupancy:
            self.words = []
            self.head = 0
        elif end > COMPACT_WORDS:
            del self.words[:end]
            self.head = 0
        else:
            self.head = end
        return words

    def __repr__(self) -> str:
        return (
            f"VectorPortState({self.spec.name}, "
            f"occ={self.occupancy}/{self.capacity_words}, "
            f"reserved={self.reserved})"
        )

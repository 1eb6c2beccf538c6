"""Processing elements: one grid tile of the CGRA.

Each PE couples a circuit-switched switch with one functional unit, a small
constant/accumulator register, and a configurable *delay FIFO* on each
operand input.  The mesh has no flow control (the paper removed it and
halved network area), so the compiler must delay-match all operand paths;
the per-input delay FIFOs are the mechanism that makes matching always
possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .fu import FuType, fu_for_name

#: deepest configurable operand-delay FIFO, in cycles.  Must cover the
#: worst operand skew of any supported DFG; long-latency units (divide)
#: on one path with a direct operand on the other need deep matching
#: (md-knn's Lennard-Jones datapath needs ~40 cycles).
MAX_INPUT_DELAY = 64


@dataclass(frozen=True)
class PeSpec:
    """Static description of one processing element.

    Attributes:
        x, y: grid coordinates (column, row).
        fu: the functional-unit flavour placed at this tile.
    """

    x: int
    y: int
    fu: FuType

    @property
    def coord(self) -> Tuple[int, int]:
        return (self.x, self.y)

    def supports(self, mnemonic: str) -> bool:
        return self.fu.supports(mnemonic)

    def __str__(self) -> str:
        return f"PE({self.x},{self.y}:{self.fu.name})"


def make_pe(x: int, y: int, fu_name: str) -> PeSpec:
    """Convenience constructor from an FU-type name."""
    return PeSpec(x, y, fu_for_name(fu_name))

"""Control core: the low-power in-order scalar core that generates commands.

The core's only job in an accelerated phase is to run the stream
coordination program — a handful of instructions per command (Table 2
encodes each as 1-3 RISC instructions) plus whatever address arithmetic the
program models with ``host()`` items.  The core is single-issue: generating
a command that Table 2 encodes as *k* instructions takes *k* cycles,
after which the command enters the dispatcher queue (unless the queue is
stalled by ``SD_Barrier_All`` or full, in which case the core stalls too —
Section 4.2's core interface).
"""

from __future__ import annotations

from typing import List

from ..core.isa.commands import Command
from ..core.isa.program import HostCompute, ProgramItem


class ControlCore:
    """Single-issue in-order command generator."""

    def __init__(self, sim: "SoftbrainSim", items: List[ProgramItem]) -> None:  # noqa: F821
        self.sim = sim
        self.items = items
        self.pc = 0
        self._cycles_into_item = 0
        self.stall_cycles = 0
        self.instructions_executed = 0

    @property
    def finished(self) -> bool:
        return self.pc >= len(self.items)

    def tick(self, cycle: int) -> bool:
        """Advance one cycle; returns True if the core made progress."""
        if self.finished:
            return False
        item = self.items[self.pc]
        if isinstance(item, HostCompute):
            self._cycles_into_item += 1
            self.instructions_executed += 1
            if self._cycles_into_item >= item.cycles:
                self.pc += 1
                self._cycles_into_item = 0
            return True
        assert isinstance(item, Command)
        cost = item.instruction_count
        if self._cycles_into_item + 1 < cost:
            self._cycles_into_item += 1
            self.instructions_executed += 1
            return True
        # Final cycle of generation: hand the command to the dispatcher.
        if not self.sim.dispatcher.can_enqueue():
            self.stall_cycles += 1
            return False
        injector = self.sim.faults
        if injector is not None and self.pc >= injector.cmd_at:
            # cmd.illegal faults mangle the encoded command word here, at
            # the core/dispatcher boundary (may raise IllegalCommandError)
            item = injector.mangle_command(self.pc, item)
        # decode at enqueue may reject it (IllegalCommandError) uncounted
        self.sim.dispatcher.enqueue(item, cycle)
        self.instructions_executed += 1
        self.pc += 1
        self._cycles_into_item = 0
        return True

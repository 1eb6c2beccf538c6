"""Control core: the low-power in-order scalar core that generates commands.

The core's only job in an accelerated phase is to run the stream
coordination program — a handful of instructions per command (Table 2
encodes each as 1-3 RISC instructions) plus whatever address arithmetic the
program models with ``host()`` items.  The core is single-issue: generating
a command that Table 2 encodes as *k* instructions takes *k* cycles,
after which the command enters the dispatcher queue (unless the queue is
stalled by ``SD_Barrier_All`` or full, in which case the core stalls too —
Section 4.2's core interface).

At construction the core lays the program out as two tables, one entry
per item: its cost in cycles (a command's instruction count, a host
item's cycles) and the command to enqueue on its last cycle (``None``
for a host item), so a tick tests no item's type.
"""

from __future__ import annotations

from typing import List

from ..core.isa.commands import Command
from ..core.isa.program import HostCompute, ProgramItem


class ControlCore:
    """Single-issue in-order command generator.

    ``finished`` is a plain flag, set once the last item has issued.
    """

    def __init__(self, sim: "SoftbrainSim", items: List[ProgramItem]) -> None:  # noqa: F821
        self.sim = sim
        self._costs = [item.cycles if isinstance(item, HostCompute)
                       else item.instruction_count for item in items]
        self._commands = [item if isinstance(item, Command) else None
                          for item in items]
        self.pc = 0
        self.finished = not items
        self._cycles_into_item = 0
        self.stall_cycles = 0
        self.instructions_executed = 0

    def tick(self, cycle: int) -> bool:
        """Advance one cycle; returns True if the core made progress.

        Each cycle of an item before its last executes one instruction.
        On its last cycle a host item completes, and a command enters the
        dispatcher queue, or stalls the core while the queue is not ready.
        """
        if self.finished:
            return False
        pc = self.pc
        into = self._cycles_into_item + 1
        if into < self._costs[pc]:
            self._cycles_into_item = into
            self.instructions_executed += 1
            return True
        command = self._commands[pc]
        if command is not None:
            dispatcher = self.sim.dispatcher
            if not dispatcher.can_enqueue():
                self.stall_cycles += 1
                return False
            injector = self.sim.faults
            if injector is not None and pc >= injector.cmd_at:
                # cmd.illegal faults mangle the encoded command word here,
                # at the core/dispatcher boundary (may raise
                # IllegalCommandError)
                command = injector.mangle_command(pc, command)
            # decode at enqueue may reject it (IllegalCommandError) uncounted
            dispatcher.enqueue(command, cycle)
        self.instructions_executed += 1
        self.pc = pc = pc + 1
        self.finished = pc >= len(self._costs)
        self._cycles_into_item = 0
        return True

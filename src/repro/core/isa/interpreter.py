"""Functional (untimed) golden-model interpreter for stream programs.

Real accelerator stacks pair a cycle-level simulator with a functional
reference (spike vs gem5, for RISC-V); this is ours.  It executes a
:class:`~repro.core.isa.program.StreamProgram` against a plain byte store
with *unbounded* port FIFOs and no timing — only the architecture's
ordering rules:

* commands touching the same (port, role) execute in program order;
* otherwise commands may interleave (implemented as a fixpoint over the
  program with resumable per-command progress, which realises one legal
  concurrent interleaving);
* the CGRA fires greedily whenever every DFG input port holds a full
  instance.

``tests/test_golden_model.py`` cross-validates the cycle-level simulator
against this interpreter on every workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from .commands import (
    Command,
    PortRef,
    SDCleanPort,
    SDConfig,
    SDConstPort,
    SDIndPortMem,
    SDIndPortPort,
    SDMemPort,
    SDMemScratch,
    SDPortMem,
    SDPortPort,
    SDPortScratch,
    SDScratchPort,
    is_barrier,
    port_uses,
)
from .patterns import SCRATCH_BYTES
from .program import HostCompute, StreamProgram

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.memory import BackingStore

WORD_MASK = (1 << 64) - 1


class FunctionalDeadlock(RuntimeError):
    """The program cannot make progress (a genuine program bug).

    The message names every unfinished command with the ports it is
    blocked on (``kind+id:role``, progress so far) and, when a
    configuration is loaded, which CGRA input ports are starved — enough
    to localise the bug without re-running anything.
    """


@dataclass
class FunctionalRunState:
    """Final functional state, for differential comparison against the
    cycle-level simulator (see :mod:`repro.fuzz.oracle`)."""

    scratch: bytearray
    queues: Dict[Tuple[str, int], Deque[int]]


class _State:
    """Interpreter state: port queues, scratch bytes, CGRA binding."""

    def __init__(self, program: StreamProgram, store: "BackingStore") -> None:
        self.program = program
        self.store = store
        self.scratch = bytearray(SCRATCH_BYTES)
        self.queues: Dict[Tuple[str, int], Deque[int]] = {}
        self.compiled = None  # CompiledDfg, bound at SD_Config
        self.acc_state: List[int] = []
        self.config = None

    def queue(self, ref: PortRef) -> Deque[int]:
        return self.queues.setdefault((ref.kind, ref.port_id), deque())

    def apply_config(self, command: SDConfig) -> None:
        # Local import: CompiledDfg is purely functional, but it lives in
        # the simulator package and importing it at module scope would make
        # the core layer depend on sim at import time.
        from ...sim.cgra_exec import CompiledDfg

        self.config = self.program.config_images[command.address]
        self.compiled = CompiledDfg(self.config.dfg)
        self.acc_state = self.compiled.make_state()

    def drain_cgra(self) -> bool:
        """Fire instances while every input port holds a full instance."""
        if self.compiled is None:
            return False
        dfg = self.config.dfg
        in_ports = [
            (port.width,
             self.queue(PortRef("in", self.config.hw_input_port(name))))
            for name, port in dfg.inputs.items()
        ]
        out_ports = [
            self.queue(PortRef("out", self.config.hw_output_port(name)))
            for name in dfg.outputs
        ]
        fired = False
        while all(len(q) >= width for width, q in in_ports):
            words = [q.popleft() for width, q in in_ports
                     for _ in range(width)]
            results = self.compiled.run(words, self.acc_state)
            for q, out in zip(out_ports, results):
                q.extend(out)
            fired = True
        return fired

    def starved_inputs(self) -> List[str]:
        """CGRA input ports lacking a full instance of data (for deadlock
        diagnostics)."""
        if self.compiled is None:
            return []
        out = []
        for name, port in self.config.dfg.inputs.items():
            hw_id = self.config.hw_input_port(name)
            queue = self.queue(PortRef("in", hw_id))
            if len(queue) < port.width:
                out.append(f"in{hw_id} ({name}): {len(queue)}/{port.width} words")
        return out

    # -- element access helpers ---------------------------------------------------

    @staticmethod
    def scratch_range(addr: int, size: int) -> slice:
        """The scratch bytes ``[addr, addr + size)``; raises
        :class:`IndexError` for an access the simulator's scratchpad
        would reject."""
        if addr < 0 or addr + size > SCRATCH_BYTES:
            raise IndexError(f"scratch access [{addr}, {addr + size}) "
                             f"outside 0..{SCRATCH_BYTES}")
        return slice(addr, addr + size)

    def read_elem(self, from_scratch: bool, addr: int, size: int,
                  signed: bool) -> int:
        data = (
            bytes(self.scratch[self.scratch_range(addr, size)])
            if from_scratch
            else self.store.read(addr, size)
        )
        return int.from_bytes(data, "little", signed=signed) & WORD_MASK

    def write_elem(self, to_scratch: bool, addr: int, word: int,
                   size: int) -> None:
        data = (word & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if to_scratch:
            self.scratch[self.scratch_range(addr, size)] = data
        else:
            self.store.write(addr, data)


class _Executor:
    """Resumable execution of one command; ``step`` returns (progress, done)."""

    def __init__(self, state: _State, command: Command) -> None:
        self.state = state
        self.command = command
        self.position = 0  # elements completed so far

    def step(self) -> Tuple[bool, bool]:
        state, command = self.state, self.command
        if is_barrier(command) or isinstance(command, HostCompute):
            return True, True
        if isinstance(command, SDConfig):
            state.apply_config(command)
            return True, True
        if isinstance(command, (SDMemPort, SDScratchPort)):
            pattern = command.pattern
            queue = state.queue(command.dest)
            from_scratch = isinstance(command, SDScratchPort)
            for addr in pattern.element_addresses():
                queue.append(
                    state.read_elem(
                        from_scratch, addr, pattern.elem_bytes, pattern.signed
                    )
                )
            return True, True
        if isinstance(command, SDMemScratch):
            pattern = command.pattern
            for index, addr in enumerate(pattern.element_addresses()):
                data = state.store.read(addr, pattern.elem_bytes)
                offset = command.scratch_addr + index * pattern.elem_bytes
                state.scratch[state.scratch_range(offset, len(data))] = data
            return True, True
        if isinstance(command, SDConstPort):
            state.queue(command.dest).extend(
                [command.value & WORD_MASK] * command.num_elements
            )
            return True, True

        # The remaining commands consume port data and may need the CGRA
        # to produce it: drain first, consume what is available.
        drained = state.drain_cgra()
        progressed = drained

        if isinstance(command, SDCleanPort):
            queue = state.queue(command.source)
            take = min(len(queue), command.num_elements - self.position)
            for _ in range(take):
                queue.popleft()
        elif isinstance(command, SDPortPort):
            src, dst = state.queue(command.source), state.queue(command.dest)
            take = min(len(src), command.num_elements - self.position)
            for _ in range(take):
                dst.append(src.popleft())
        elif isinstance(command, SDPortScratch):
            queue = state.queue(command.source)
            take = min(len(queue), command.num_elements - self.position)
            for k in range(take):
                addr = command.scratch_addr + (self.position + k) * command.elem_bytes
                state.write_elem(True, addr, queue.popleft(), command.elem_bytes)
        elif isinstance(command, SDPortMem):
            queue = state.queue(command.source)
            addrs = list(command.pattern.element_addresses())
            take = min(len(queue), len(addrs) - self.position)
            for k in range(take):
                state.write_elem(
                    False,
                    addrs[self.position + k],
                    queue.popleft(),
                    command.pattern.elem_bytes,
                )
        elif isinstance(command, SDIndPortPort):
            indices = state.queue(command.index_port)
            dest = state.queue(command.dest)
            take = min(len(indices), command.num_elements - self.position)
            for _ in range(take):
                addr = command.offset_addr + indices.popleft() * command.index_scale
                dest.append(
                    state.read_elem(
                        False, addr, command.elem_bytes, command.signed
                    )
                )
        elif isinstance(command, SDIndPortMem):
            indices = state.queue(command.index_port)
            values = state.queue(command.source)
            take = min(
                len(indices), len(values), command.num_elements - self.position
            )
            for _ in range(take):
                addr = command.offset_addr + indices.popleft() * command.index_scale
                state.write_elem(False, addr, values.popleft(), command.elem_bytes)
        else:
            raise TypeError(f"cannot interpret {type(command).__name__}")

        self.position += take
        progressed = progressed or take > 0
        done = self.position >= self._total()
        if done:
            state.drain_cgra()
        return progressed, done

    def _total(self) -> int:
        command = self.command
        if isinstance(command, SDPortMem):
            return command.pattern.num_elements
        return command.num_elements  # type: ignore[attr-defined]

    def describe(self) -> str:
        """Human-readable blockage report: command, ports (with role) and
        element progress."""
        command = self.command
        name = type(command).__name__
        if is_barrier(command) or isinstance(command, (SDConfig, HostCompute)):
            return name
        ports = ", ".join(f"{p}:{role}" for p, role in port_uses(command))
        return f"{name}({ports}; {self.position}/{self._total()} elements)"


def interpret_program(program: StreamProgram,
                      store: BackingStore) -> FunctionalRunState:
    """Execute a stream program functionally, mutating ``store`` in place.

    Returns the final :class:`FunctionalRunState` (scratchpad image and
    residual port queues) so callers can compare end states across
    implementations.  Raises :class:`FunctionalDeadlock` if no legal
    interleaving lets the program finish (missing data, starved ports),
    and :class:`IndexError` for a scratch access outside
    ``[0, SCRATCH_BYTES)``.
    """
    state = _State(program, store)
    executors = [_Executor(state, item) for item in program.items]
    done = [False] * len(executors)

    while not all(done):
        any_progress = False
        busy: set = set()  # (kind, id, role) held by an earlier unfinished cmd
        for index, executor in enumerate(executors):
            if done[index]:
                continue
            command = executor.command
            # Barriers and reconfiguration order *everything*: they retire
            # only once all earlier commands have, and nothing passes them.
            # (Treating the scratch barriers as full barriers is a legal,
            # conservative implementation of their happens-before rule.)
            if is_barrier(command) or isinstance(command, SDConfig):
                if all(done[:index]):
                    _, finished = executor.step()
                    done[index] = finished
                    any_progress = True
                break
            keys = {
                (p.kind, p.port_id, role)
                for p, role in port_uses(command)
            }
            if keys & busy:
                busy |= keys  # program order per (port, role)
                continue
            progressed, finished = executor.step()
            any_progress = any_progress or progressed or finished
            done[index] = finished
            if not finished:
                busy |= keys
        if not any_progress:
            stuck = [
                executor.describe()
                for index, executor in enumerate(executors)
                if not done[index]
            ]
            starved = state.starved_inputs()
            extra = f"; starved CGRA inputs: {starved}" if starved else ""
            raise FunctionalDeadlock(
                f"functional model stuck; unfinished commands: {stuck}{extra}"
            )
    return FunctionalRunState(state.scratch, state.queues)

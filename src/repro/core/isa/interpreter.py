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
    BARRIER_TYPES,
    Command,
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
        # The CGRA's port queues, bound at SD_Config: (width, queue) per
        # DFG input and one queue per DFG output, in DFG port order.
        self.cgra_inputs: List[Tuple[int, Deque[int]]] = []
        self.cgra_outputs: List[Deque[int]] = []

    def queue(self, kind: str, port_id: int) -> Deque[int]:
        return self.queues.setdefault((kind, port_id), deque())

    def apply_config(self, command: SDConfig) -> None:
        # Local import: CompiledDfg is purely functional, but it lives in
        # the simulator package and importing it at module scope would make
        # the core layer depend on sim at import time.
        from ...sim.cgra_exec import compile_dfg

        config = self.config = self.program.config_images[command.address]
        self.compiled = compile_dfg(config.dfg)
        self.acc_state = self.compiled.make_state()
        self.cgra_inputs = [
            (port.width, self.queue("in", config.hw_input_port(name)))
            for name, port in config.dfg.inputs.items()
        ]
        self.cgra_outputs = [
            self.queue("out", config.hw_output_port(name))
            for name in config.dfg.outputs
        ]

    def drain_cgra(self) -> bool:
        """Fire instances while every input port holds a full instance."""
        if self.compiled is None:
            return False
        in_ports, out_ports = self.cgra_inputs, self.cgra_outputs
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
            queue = self.queue("in", hw_id)
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
    """Resumable execution of one command; ``step`` returns (progress, done).

    Decoded once, at construction: ``run`` is the handler for the
    command's class (``step`` calls it; a port-data consumer's ``run`` is
    ``_consume``, which calls its ``take``), ``orders_all`` marks a barrier
    or reconfiguration, ``ports`` holds the queue of each port the command
    names and ``keys`` its (kind, id, role) keys, both in ``PORTS`` order.
    """

    def __init__(self, state: _State, command: Command) -> None:
        self.state = state
        self.command = command
        self.position = 0  # elements completed so far
        self.orders_all = isinstance(command, _ORDERS_ALL)
        ports, keys = [], []
        for field_name, role in command.PORTS:
            ref = getattr(command, field_name)
            ports.append(state.queue(ref.kind, ref.port_id))
            keys.append((ref.kind, ref.port_id, role))
        self.ports = ports
        self.keys = frozenset(keys)
        # Handlers are held as plain functions: a bound method stored on
        # the executor would make a reference cycle, and every executor
        # (with the state it holds) would then wait for the cyclic GC.
        self.take = _TAKES.get(type(command))
        if self.take is None:
            self.run = _STEPS.get(type(command), _Executor._unknown)
        else:
            self.run = _Executor._consume
            self.total = self._total()
            if isinstance(command, SDPortMem):
                self.addrs = list(command.pattern.element_addresses())

    def step(self) -> Tuple[bool, bool]:
        return self.run(self)

    # -- commands that finish in one step -----------------------------------------

    def _finish(self) -> Tuple[bool, bool]:
        return True, True

    def _config(self) -> Tuple[bool, bool]:
        self.state.apply_config(self.command)
        return True, True

    def _fill(self) -> Tuple[bool, bool]:
        state, pattern = self.state, self.command.pattern
        (queue,) = self.ports
        from_scratch = isinstance(self.command, SDScratchPort)
        for addr in pattern.element_addresses():
            queue.append(
                state.read_elem(
                    from_scratch, addr, pattern.elem_bytes, pattern.signed
                )
            )
        return True, True

    def _mem_scratch(self) -> Tuple[bool, bool]:
        state, command = self.state, self.command
        pattern = command.pattern
        for index, addr in enumerate(pattern.element_addresses()):
            data = state.store.read(addr, pattern.elem_bytes)
            offset = command.scratch_addr + index * pattern.elem_bytes
            state.scratch[state.scratch_range(offset, len(data))] = data
        return True, True

    def _const(self) -> Tuple[bool, bool]:
        command = self.command
        (queue,) = self.ports
        queue.extend([command.value & WORD_MASK] * command.num_elements)
        return True, True

    def _unknown(self) -> Tuple[bool, bool]:
        raise TypeError(f"cannot interpret {type(self.command).__name__}")

    # -- commands that consume port data ------------------------------------------

    def _consume(self) -> Tuple[bool, bool]:
        """These commands may need the CGRA to produce their data: drain
        first, take what is available, drain again once done."""
        state = self.state
        drained = state.drain_cgra()
        take = self.take(self)
        self.position += take
        done = self.position >= self.total
        if done:
            state.drain_cgra()
        return drained or take > 0, done

    def _take_clean(self) -> int:
        (source,) = self.ports
        take = min(len(source), self.total - self.position)
        for _ in range(take):
            source.popleft()
        return take

    def _take_port_port(self) -> int:
        source, dest = self.ports
        take = min(len(source), self.total - self.position)
        for _ in range(take):
            dest.append(source.popleft())
        return take

    def _take_port_scratch(self) -> int:
        state, command = self.state, self.command
        (source,) = self.ports
        take = min(len(source), self.total - self.position)
        for k in range(take):
            addr = command.scratch_addr + (self.position + k) * command.elem_bytes
            state.write_elem(True, addr, source.popleft(), command.elem_bytes)
        return take

    def _take_port_mem(self) -> int:
        state, addrs = self.state, self.addrs
        (source,) = self.ports
        elem_bytes = self.command.pattern.elem_bytes
        take = min(len(source), len(addrs) - self.position)
        for k in range(take):
            state.write_elem(
                False, addrs[self.position + k], source.popleft(), elem_bytes
            )
        return take

    def _take_ind_port_port(self) -> int:
        state, command = self.state, self.command
        indices, dest = self.ports
        take = min(len(indices), self.total - self.position)
        for _ in range(take):
            addr = command.offset_addr + indices.popleft() * command.index_scale
            dest.append(
                state.read_elem(False, addr, command.elem_bytes, command.signed)
            )
        return take

    def _take_ind_port_mem(self) -> int:
        state, command = self.state, self.command
        indices, values = self.ports
        take = min(len(indices), len(values), self.total - self.position)
        for _ in range(take):
            addr = command.offset_addr + indices.popleft() * command.index_scale
            state.write_elem(False, addr, values.popleft(), command.elem_bytes)
        return take

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


#: commands that retire only after every earlier one, and that nothing passes
_ORDERS_ALL = BARRIER_TYPES + (SDConfig,)

#: command class -> the ``_Executor`` method that runs it in one step
_STEPS = {
    **dict.fromkeys(BARRIER_TYPES, _Executor._finish),
    HostCompute: _Executor._finish,
    SDConfig: _Executor._config,
    SDMemPort: _Executor._fill,
    SDScratchPort: _Executor._fill,
    SDMemScratch: _Executor._mem_scratch,
    SDConstPort: _Executor._const,
}

#: command class -> the ``_Executor`` method that takes its port data
#: (``_Executor._consume`` drives it)
_TAKES = {
    SDCleanPort: _Executor._take_clean,
    SDPortPort: _Executor._take_port_port,
    SDPortScratch: _Executor._take_port_scratch,
    SDPortMem: _Executor._take_port_mem,
    SDIndPortPort: _Executor._take_ind_port_port,
    SDIndPortMem: _Executor._take_ind_port_mem,
}


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
    pending = [_Executor(state, item) for item in program.items]

    while pending:
        any_progress = False
        busy: set = set()  # (kind, id, role) held by an earlier unfinished cmd
        waiting: List[_Executor] = []  # unfinished, in program order
        for index, executor in enumerate(pending):
            # Barriers and reconfiguration order *everything*: they retire
            # only once all earlier commands have, and nothing passes them.
            # (Treating the scratch barriers as full barriers is a legal,
            # conservative implementation of their happens-before rule.)
            if executor.orders_all:
                finished = False
                if not waiting:
                    _, finished = executor.step()
                    any_progress = True
                if not finished:
                    waiting.append(executor)
                waiting.extend(pending[index + 1:])
                break
            keys = executor.keys
            if keys & busy:
                busy |= keys  # program order per (port, role)
                waiting.append(executor)
                continue
            progressed, finished = executor.step()
            any_progress = any_progress or progressed or finished
            if not finished:
                busy |= keys
                waiting.append(executor)
        pending = waiting
        if not any_progress:
            stuck = [executor.describe() for executor in pending]
            starved = state.starved_inputs()
            extra = f"; starved CGRA inputs: {starved}" if starved else ""
            raise FunctionalDeadlock(
                f"functional model stuck; unfinished commands: {stuck}{extra}"
            )
    return FunctionalRunState(state.scratch, state.queues)

"""Stream engines: concurrent executors of stream commands (Section 4.3).

Four engines mirror the paper's microarchitecture:

* :class:`MemReadEngine` — memory -> ports/scratchpad, config loads and
  indirect gathers; contains the *balance unit* that de-prioritises
  heavily-unbalanced vector ports to avoid deadlock (Section 4.5).
* :class:`MemWriteEngine` — ports -> memory, including indirect scatter.
* :class:`ScratchEngine` — the scratchpad's one read + one write port.
* :class:`RecurrenceEngine` — port-to-port recurrences, constants, cleans.

Each engine owns a small *stream table* of active streams; per cycle it
selects one ready stream per resource (a stream-request-pipeline slot) and
advances it by at most one line request / eight words.

Data convention: one stream element always occupies one 64-bit word at a
vector port.  ``elem_bytes < 8`` means narrow memory traffic (zero-extended
on load, truncated on store); packed sub-word SIMD data (e.g. 16-bit DNN
arrays) should be streamed with ``elem_bytes=8`` so each word carries four
16-bit lanes, exactly as the hardware's 512-bit buses do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional, Tuple

from ..core.isa.commands import (
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
    port_uses,
)
from ..core.isa.patterns import LINE_BYTES, LineRequest, affine_requests
from ..trace import TraceEvent
from .errors import StreamTableError
from .stats import CommandTrace
from .vector_port import VectorPortState

#: max words an engine moves between ports per cycle (512-bit bus)
WORDS_PER_CYCLE = 8
#: scratchpad SRAM read latency, cycles
SCRATCH_READ_LATENCY = 2


@dataclass
class ActiveStream:
    """One stream-table entry."""

    command: Command
    trace: CommandTrace
    requests: Optional[Iterator[LineRequest]] = None
    next_request: Optional[LineRequest] = None
    elements_left: int = 0
    elements_done: int = 0
    #: in-order delivery queue: (ready_cycle, words, dest or None)
    pending: Deque[Tuple[int, List[int], Optional[VectorPortState]]] = field(
        default_factory=deque
    )
    issued_all: bool = False
    #: ports already released to the dispatcher (all-requests-in-flight)
    early_released: bool = False

    def advance_request(self) -> None:
        """Pop the next line request from the pattern iterator."""
        assert self.requests is not None
        try:
            self.next_request = next(self.requests)
        except StopIteration:
            self.next_request = None
            self.issued_all = True


class StreamEngineBase:
    """Common stream-table behaviour; subclasses implement ``tick``."""

    name = "engine"

    def __init__(self, sim: "SoftbrainSim", table_size: int = 8) -> None:  # noqa: F821
        self.sim = sim
        self.table_size = table_size
        self.streams: List[ActiveStream] = []
        self._rr = 0  # round-robin pointer for fair selection

    def has_free_slot(self) -> bool:
        return len(self.streams) < self.table_size

    def accept(self, command: Command, trace: CommandTrace) -> None:
        if not self.has_free_slot():
            raise StreamTableError(f"{self.name}: stream table full")
        self.streams.append(self._make_stream(command, trace))

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        return ActiveStream(command, trace)

    def idle(self) -> bool:
        return not self.streams

    def _retire(self, stream: ActiveStream, cycle: int) -> None:
        self.streams.remove(stream)
        self.sim.stream_completed(stream, cycle)

    def _note_busy(self, cycle: int, stream: ActiveStream) -> None:
        """Account one busy cycle (stats counter + the trace's
        ``engine.busy`` / ``stream.issue`` pair — kept in lock-step so the
        two accountings reconcile exactly)."""
        self.sim.stats.note_engine_busy(self.name)
        sink = self.sim.trace
        if sink.enabled:
            unit = self.sim.unit
            sink.emit(TraceEvent("engine.busy", cycle, unit, self.name, {}))
            sink.emit(TraceEvent(
                "stream.issue", cycle, unit, self.name,
                {"index": stream.trace.index, "command": stream.trace.label},
            ))

    def _fault_stalled(self, cycle: int) -> bool:
        """True while an injected ``engine.stall`` fault freezes this
        engine; schedules a wake-up so fast-forward still works."""
        injector = self.sim.faults
        if injector is None or cycle < injector.engine_stall_at:
            return False
        until = injector.engine_stall_until(self.name, cycle)
        if until > cycle:
            self.sim.schedule(until, None)
            return True
        return False

    def _drain_pending(self, stream: ActiveStream, cycle: int) -> bool:
        """Push in-order deliveries whose data has arrived.  True if any.

        Arrived data waits in the engine's request buffer until the
        destination port has room (the paper's "buffering for outstanding
        requests"), decoupling port depth from memory latency.
        """
        progressed = False
        injector = self.sim.faults
        while stream.pending and stream.pending[0][0] <= cycle:
            ready_at, words, dest = stream.pending[0]
            if dest is not None:
                if (injector is not None and words
                        and cycle >= injector.port_drop_at):
                    port_name = (f"{dest.spec.direction}"
                                 f"{dest.spec.port_id}")
                    dropped = injector.drop_port_words(
                        cycle, port_name, words)
                    if dropped is not words:
                        # persist the loss: the retried delivery must not
                        # resurrect the dropped word
                        words = dropped
                        stream.pending[0] = (ready_at, words, dest)
                if dest.free_words < len(words):
                    break
                dest.push(words, reserved=False)
                sink = self.sim.trace
                if sink.enabled and words:
                    sink.emit(TraceEvent(
                        "stream.drain", cycle, self.sim.unit, self.name,
                        {
                            "index": stream.trace.index,
                            "command": stream.trace.label,
                            "port": f"{dest.spec.direction}"
                                    f"{dest.spec.port_id}",
                            "words": len(words),
                        },
                    ))
            stream.pending.popleft()
            progressed = True
        return progressed

    def _pending_lines(self) -> int:
        """Outstanding request-buffer entries across this engine's streams."""
        return sum(len(s.pending) for s in self.streams)

    def _maybe_early_release(self, stream: ActiveStream) -> None:
        """All-requests-in-flight (Section 4.2): once every request of a
        stream is in the memory system, release its ports for issue so the
        next same-port stream can overlap its requests with this stream's
        remaining deliveries."""
        if not self.sim.params.all_requests_in_flight:
            return
        if stream.issued_all and not stream.early_released:
            stream.early_released = True
            for port, role in port_uses(stream.command):
                self.sim.dispatcher.release_port(port.kind, port.port_id, role)

    def _delivery_owners(self) -> dict:
        """Earliest stream per written port — only it may deliver,
        preserving program order across overlapped same-port streams."""
        owners: dict = {}
        for stream in self.streams:
            for port, role in port_uses(stream.command):
                if role != "w":
                    continue
                key = (port.kind, port.port_id)
                if key not in owners:
                    owners[key] = stream
        return owners

    def _may_deliver(self, owners: dict, stream: ActiveStream) -> bool:
        return all(
            owners[(p.kind, p.port_id)] is stream
            for p, role in port_uses(stream.command)
            if role == "w"
        )

    def _rotate(self, candidates: List[ActiveStream]) -> List[ActiveStream]:
        """Round-robin rotation for fair stream selection."""
        if not candidates:
            return candidates
        self._rr = (self._rr + 1) % len(candidates)
        return candidates[self._rr :] + candidates[: self._rr]

    def tick(self, cycle: int) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Memory read engine (+ balance unit, config loads, indirect gather)
# ---------------------------------------------------------------------------

class MemReadEngine(StreamEngineBase):
    name = "mse_read"

    #: outstanding-request buffer capacity (64-byte entries)
    BUFFER_LINES = 32

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDMemPort):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDMemScratch):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDIndPortPort):
            stream.elements_left = command.num_elements
        elif isinstance(command, SDConfig):
            stream.elements_left = 1
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def _balance_score(self, stream: ActiveStream) -> int:
        """Balance unit: fewest queued+in-flight words at the target first."""
        command = stream.command
        dest: Optional[PortRef]
        if isinstance(command, (SDMemPort, SDIndPortPort)):
            dest = command.dest
        else:
            return 0  # scratch/config streams have no port to unbalance
        port = self.sim.port_state(dest)
        return port.occupancy + port.reserved

    def tick(self, cycle: int) -> bool:
        if self._fault_stalled(cycle):
            return False
        progressed = False
        owners = self._delivery_owners()
        for stream in list(self.streams):
            if self._may_deliver(owners, stream) and self._drain_pending(
                stream, cycle
            ):
                progressed = True
            if stream.issued_all and not stream.pending:
                self._retire(stream, cycle)
                progressed = True
            else:
                self._maybe_early_release(stream)

        if not self.sim.memory.can_accept(cycle):
            return progressed

        ready = [s for s in self.streams if self._can_issue(s)]
        if not ready:
            return progressed
        if self.sim.params.balance_unit:
            ready.sort(key=self._balance_score)
        else:
            ready = self._rotate(ready)
        self._issue(ready[0], cycle)
        self._note_busy(cycle, ready[0])
        return True

    def _can_issue(self, stream: ActiveStream) -> bool:
        command = stream.command
        if self._pending_lines() >= self.BUFFER_LINES:
            return False
        if isinstance(command, (SDMemPort, SDMemScratch)):
            return stream.next_request is not None
        if isinstance(command, SDIndPortPort):
            if stream.elements_left <= 0:
                return False
            index_port = self.sim.port_state(command.index_port)
            return index_port.occupancy > 0
        if isinstance(command, SDConfig):
            return stream.elements_left > 0
        return False

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        if isinstance(command, SDMemPort):
            request = stream.next_request
            assert request is not None
            port = self.sim.port_state(command.dest)
            ready = memory.issue(cycle, request.line_addr, False, request.bytes_used)
            words = memory.store.read_elements(
                request.element_addrs, request.elem_bytes,
                command.pattern.signed,
            )
            injector = self.sim.faults
            if injector is not None and cycle >= injector.mem_corrupt_at:
                words = injector.corrupt_read(cycle, words)
            stream.pending.append((ready, words, port))
            self.sim.schedule(ready, None)
            stream.advance_request()
        elif isinstance(command, SDMemScratch):
            request = stream.next_request
            assert request is not None
            ready = memory.issue(cycle, request.line_addr, False, request.bytes_used)
            data = b"".join(
                memory.store.read(addr, request.elem_bytes)
                for addr in request.element_addrs
            )
            base = command.scratch_addr + stream.elements_done * request.elem_bytes
            stream.elements_done += request.num_elements
            scratchpad = self.sim.scratchpad
            self.sim.schedule(ready, lambda: scratchpad.write(base, data))
            stream.pending.append((ready, [], None))
            stream.advance_request()
        elif isinstance(command, SDIndPortPort):
            index_port = self.sim.port_state(command.index_port)
            dest = self.sim.port_state(command.dest)
            # Indirect AGU: coalesce up to 4 increasing same-line addresses.
            addrs: List[int] = []
            limit = min(4, index_port.occupancy, stream.elements_left)
            line = None
            while len(addrs) < limit and index_port.occupancy:
                index = index_port.fifo[0]
                addr = command.offset_addr + index * command.index_scale
                addr_line = (addr // LINE_BYTES) * LINE_BYTES
                if line is None:
                    line = addr_line
                elif addr_line != line or addr < addrs[-1]:
                    break
                addrs.append(addr)
                index_port.pop_words(1)
            assert addrs and line is not None
            ready = memory.issue(
                cycle, line, False, len(addrs) * command.elem_bytes
            )
            words = memory.store.read_elements(
                addrs, command.elem_bytes, command.signed
            )
            injector = self.sim.faults
            if injector is not None and cycle >= injector.mem_corrupt_at:
                words = injector.corrupt_read(cycle, words)
            stream.pending.append((ready, words, dest))
            self.sim.schedule(ready, None)
            stream.elements_left -= len(addrs)
            if stream.elements_left == 0:
                stream.issued_all = True
        elif isinstance(command, SDConfig):
            lines = (command.size + LINE_BYTES - 1) // LINE_BYTES
            ready = memory.issue(cycle, command.address, False, command.size)
            done = ready + max(0, lines - 1)
            self.sim.schedule(done, lambda: self.sim.apply_config(command.address))
            stream.pending.append((done, [], None))
            stream.elements_left = 0
            stream.issued_all = True
            self.sim.stats.config_loads += 1

# ---------------------------------------------------------------------------
# Memory write engine
# ---------------------------------------------------------------------------

class MemWriteEngine(StreamEngineBase):
    name = "mse_write"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDPortMem):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDIndPortMem):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            if self._drain_pending(stream, cycle):
                progressed = True
            if stream.issued_all and not stream.pending:
                self._retire(stream, cycle)
                progressed = True
            else:
                self._maybe_early_release(stream)

        if not self.sim.memory.can_accept(cycle):
            return progressed

        ready = [s for s in self.streams if self._can_issue(s)]
        if not ready:
            return progressed
        chosen = self._rotate(ready)[0]
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _can_issue(self, stream: ActiveStream) -> bool:
        command = stream.command
        if isinstance(command, SDPortMem):
            request = stream.next_request
            if request is None:
                return False
            source = self.sim.port_state(command.source)
            return source.occupancy >= request.num_elements
        if isinstance(command, SDIndPortMem):
            if stream.elements_left <= 0:
                return False
            index_port = self.sim.port_state(command.index_port)
            source = self.sim.port_state(command.source)
            return index_port.occupancy >= 1 and source.occupancy >= 1
        return False

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        if isinstance(command, SDPortMem):
            request = stream.next_request
            assert request is not None
            source = self.sim.port_state(command.source)
            words = source.pop_words(request.num_elements)
            ready = memory.issue(cycle, request.line_addr, True, request.bytes_used)
            writes = list(zip(request.element_addrs, words))
            elem_bytes = request.elem_bytes

            def apply(writes=writes, elem_bytes=elem_bytes) -> None:
                for addr, word in writes:
                    memory.store.write_word(addr, word, elem_bytes)

            self.sim.schedule(ready, apply)
            stream.pending.append((ready, [], None))
            stream.advance_request()
        else:
            assert isinstance(command, SDIndPortMem)
            index_port = self.sim.port_state(command.index_port)
            source = self.sim.port_state(command.source)
            count = min(
                4, index_port.occupancy, source.occupancy, stream.elements_left
            )
            # Coalesce same-line increasing addresses like the indirect AGU.
            addrs: List[int] = []
            line = None
            for i in range(count):
                index = index_port.fifo[i]
                addr = command.offset_addr + index * command.index_scale
                addr_line = (addr // LINE_BYTES) * LINE_BYTES
                if line is None:
                    line = addr_line
                elif addr_line != line or addr < addrs[-1]:
                    break
                addrs.append(addr)
            take = len(addrs)
            assert take >= 1 and line is not None
            index_port.pop_words(take)
            words = source.pop_words(take)
            ready = memory.issue(cycle, line, True, take * command.elem_bytes)
            writes = list(zip(addrs, words))
            elem_bytes = command.elem_bytes

            def apply(writes=writes, elem_bytes=elem_bytes) -> None:
                for addr, word in writes:
                    memory.store.write_word(addr, word, elem_bytes)

            self.sim.schedule(ready, apply)
            stream.pending.append((ready, [], None))
            stream.elements_left -= take
            if stream.elements_left == 0:
                stream.issued_all = True


# ---------------------------------------------------------------------------
# Scratchpad engine (one read port + one write port per cycle)
# ---------------------------------------------------------------------------

class ScratchEngine(StreamEngineBase):
    name = "sse"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDScratchPort):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDPortScratch):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            if self._drain_pending(stream, cycle):
                progressed = True
            if stream.issued_all and not stream.pending:
                self._retire(stream, cycle)
                progressed = True

        # One read-stream action per cycle.
        reads = [
            s
            for s in self.streams
            if isinstance(s.command, SDScratchPort) and self._read_ready(s)
        ]
        if reads:
            chosen = self._rotate(reads)[0]
            self._issue_read(chosen, cycle)
            self._note_busy(cycle, chosen)
            progressed = True

        # One write-stream action per cycle.
        writes = [
            s
            for s in self.streams
            if isinstance(s.command, SDPortScratch) and self._write_ready(s)
        ]
        if writes:
            self._issue_write(writes[0], cycle)
            self._note_busy(cycle, writes[0])
            progressed = True
        return progressed

    def _read_ready(self, stream: ActiveStream) -> bool:
        if stream.next_request is None:
            return False
        # A short request buffer covers the 2-cycle SRAM latency.
        return len(stream.pending) < 4

    def _issue_read(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        assert isinstance(command, SDScratchPort)
        request = stream.next_request
        assert request is not None
        port = self.sim.port_state(command.dest)
        words = self.sim.scratchpad.read_elements(
            request.element_addrs, request.elem_bytes, command.pattern.signed
        )
        stream.pending.append((cycle + SCRATCH_READ_LATENCY, words, port))
        self.sim.schedule(cycle + SCRATCH_READ_LATENCY, None)
        stream.advance_request()

    def _write_ready(self, stream: ActiveStream) -> bool:
        if stream.elements_left <= 0:
            return False
        source = self.sim.port_state(stream.command.source)  # type: ignore[attr-defined]
        return source.occupancy >= 1

    def _issue_write(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        assert isinstance(command, SDPortScratch)
        source = self.sim.port_state(command.source)
        max_elems = self.sim.scratchpad.width_bytes // command.elem_bytes
        count = min(max_elems, source.occupancy, stream.elements_left)
        words = source.pop_words(count)
        done = command.num_elements - stream.elements_left
        addr = command.scratch_addr + done * command.elem_bytes
        data = b"".join(
            (w & ((1 << (8 * command.elem_bytes)) - 1)).to_bytes(
                command.elem_bytes, "little"
            )
            for w in words
        )
        self.sim.scratchpad.write(addr, data)
        stream.elements_left -= count
        if stream.elements_left == 0:
            stream.issued_all = True


# ---------------------------------------------------------------------------
# Recurrence / constant engine
# ---------------------------------------------------------------------------

class RecurrenceEngine(StreamEngineBase):
    name = "rse"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, (SDConstPort, SDCleanPort, SDPortPort)):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            if stream.elements_left == 0:
                self._retire(stream, cycle)
                progressed = True

        ready = [s for s in self.streams if self._ready(s)]
        if not ready:
            return progressed
        chosen = self._rotate(ready)[0]
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _ready(self, stream: ActiveStream) -> bool:
        command = stream.command
        if stream.elements_left <= 0:
            return False
        if isinstance(command, SDConstPort):
            return self.sim.port_state(command.dest).free_words >= 1
        if isinstance(command, SDCleanPort):
            return self.sim.port_state(command.source).occupancy >= 1
        assert isinstance(command, SDPortPort)
        source = self.sim.port_state(command.source)
        dest = self.sim.port_state(command.dest)
        return source.occupancy >= 1 and dest.free_words >= 1

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        if isinstance(command, SDConstPort):
            dest = self.sim.port_state(command.dest)
            count = min(WORDS_PER_CYCLE, dest.free_words, stream.elements_left)
            dest.push([command.value] * count, reserved=False)
        elif isinstance(command, SDCleanPort):
            source = self.sim.port_state(command.source)
            count = min(WORDS_PER_CYCLE, source.occupancy, stream.elements_left)
            source.pop_words(count)
        else:
            assert isinstance(command, SDPortPort)
            source = self.sim.port_state(command.source)
            dest = self.sim.port_state(command.dest)
            count = min(
                WORDS_PER_CYCLE,
                source.occupancy,
                dest.free_words,
                stream.elements_left,
            )
            words = source.pop_words(count)
            dest.push(words, reserved=False)
        stream.elements_left -= count

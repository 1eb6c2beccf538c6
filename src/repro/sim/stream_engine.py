"""Stream engines: concurrent executors of stream commands (Section 4.3).

Four engines mirror the paper's microarchitecture:

* :class:`MemReadEngine` — memory -> ports/scratchpad, config loads and
  indirect gathers; contains the *balance unit* that de-prioritises
  heavily-unbalanced vector ports to avoid deadlock (Section 4.5).
* :class:`MemWriteEngine` — ports -> memory, including indirect scatter.
* :class:`ScratchEngine` — the scratchpad's one read + one write port.
* :class:`RecurrenceEngine` — port-to-port recurrences, constants, cleans.

Each engine owns a small *stream table* of active streams and runs one
skeleton, :meth:`StreamEngineBase.tick`, every cycle:

1. skip the engine while an injected ``engine.stall`` fault freezes it;
2. push arrived data into destination ports;
3. in one walk, retire finished streams and, in the memory engines,
   release the ports of streams whose requests are all in flight
   (all-requests-in-flight, Section 4.2) — only when an issue or a drain
   has finished a stream since the last walk;
4. issue one ready stream: one line request or up to eight words.

Each subclass's ``_issue_step`` walks the table once with its issue
predicate written inline and issues through ``_issue``: the round-robin
engines pick with :meth:`StreamEngineBase._choose` (listing the ready
streams only when there are two or more), :class:`MemReadEngine` picks by
its balance unit, and :class:`ScratchEngine` issues one read and one
write.
:meth:`StreamEngineBase.accept` resolves a stream's static facts once — the
:class:`VectorPortState` of its ``dest``, ``source`` and ``index`` ports,
and its line requests (:meth:`SoftbrainSim.pattern_requests`) or element
count — so no per-cycle code looks at the command's type.  The dispatcher
keys it holds were decoded at enqueue (``CommandTrace.ports``).  A
memory or scratchpad read of a request whose elements sit back to back
(``LineRequest.contiguous``) is one call that unpacks them all.

Write order belongs to the port.  Streams writing one vector port must
deliver in program order, yet all-requests-in-flight lets the next
same-port stream issue while the previous one's data is still arriving.
Each port therefore keeps ``writers``, its active writer streams in accept
(= program) order, and a stream pushes into its ``dest`` only while it is
``dest.writers[0]``.  The rule holds across engines: a constant or
scratchpad stream cannot overtake a memory stream's in-flight data.

Data convention: one stream element always occupies one 64-bit word at a
vector port.  ``elem_bytes < 8`` means narrow memory traffic (zero-extended
on load, truncated on store); packed sub-word SIMD data (e.g. 16-bit DNN
arrays) should be streamed with ``elem_bytes=8`` so each word carries four
16-bit lanes, exactly as the hardware's 512-bit buses do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

from ..core.isa.commands import Command
from ..core.isa.patterns import (
    LINE_BYTES,
    LineRequest,
    coalesce_indirect,
)
from ..trace import TraceEvent
from .errors import StreamTableError
from .stats import CommandTrace
from .vector_port import VectorPortState

#: max words an engine moves between ports per cycle (512-bit bus)
WORDS_PER_CYCLE = 8
#: scratchpad SRAM read latency, cycles
SCRATCH_READ_LATENCY = 2


@dataclass(eq=False)
class ActiveStream:
    """One stream-table entry; the port facts are resolved at accept.

    The ``(kind, port_id, role)`` keys the dispatcher holds for the stream
    are ``trace.ports``, decoded at enqueue.  A pattern stream steps
    through ``requests``, its line requests, by index: ``next_request``
    is ``requests[request_index]``, or ``None`` once all have issued.
    """

    command: Command
    trace: CommandTrace
    dest: Optional[VectorPortState] = None
    source: Optional[VectorPortState] = None
    index: Optional[VectorPortState] = None
    requests: Optional[Tuple[LineRequest, ...]] = None
    request_index: int = 0
    next_request: Optional[LineRequest] = None
    elements_left: int = 0
    elements_done: int = 0
    #: in-order delivery queue: (ready_cycle, words for ``dest``)
    pending: Deque[Tuple[int, List[int]]] = field(default_factory=deque)
    issued_all: bool = False
    #: ports already released to the dispatcher (all-requests-in-flight)
    early_released: bool = False

    def advance_request(self) -> None:
        """Step to the next line request."""
        index = self.request_index + 1
        self.request_index = index
        if index < len(self.requests):
            self.next_request = self.requests[index]
        else:
            self.next_request = None
            self.issued_all = True

    def consume(self, count: int) -> None:
        """Count ``count`` elements of a counted stream as issued."""
        self.elements_left -= count
        if self.elements_left == 0:
            self.issued_all = True


class StreamEngineBase:
    """The stream table and the per-cycle skeleton shared by all engines;
    subclasses define ``_issue_step(cycle)``."""

    name = "engine"
    #: issue takes a memory-system request slot, and a stream releases its
    #: ports once all its requests are in flight (Section 4.2)
    MEMORY_ENGINE = False

    def __init__(self, sim: "SoftbrainSim", table_size: int = 8) -> None:  # noqa: F821
        self.sim = sim
        self.table_size = table_size
        self.streams: List[ActiveStream] = []
        self._rr = 0  # round-robin pointer for fair selection
        #: entries across all streams' ``pending`` queues
        self.buffered = 0
        #: a stream has issued everything since the last retire walk, or
        #: drained the last delivery after doing so
        self._may_retire = False

    def has_free_slot(self) -> bool:
        return len(self.streams) < self.table_size

    def accept(self, command: Command, trace: CommandTrace) -> None:
        if not self.has_free_slot():
            raise StreamTableError(f"{self.name}: stream table full")
        port_state = self.sim.port_state
        stream = ActiveStream(command, trace)
        # ``dest`` is the one port a command writes (role "w").
        ref = getattr(command, "dest", None)
        if ref is not None:
            stream.dest = port_state(ref)
            stream.dest.writers.append(stream)
        ref = getattr(command, "source", None)
        if ref is not None:
            stream.source = port_state(ref)
        ref = getattr(command, "index_port", None)
        if ref is not None:
            stream.index = port_state(ref)
        pattern = getattr(command, "pattern", None)
        if pattern is not None:
            requests = stream.requests = self.sim.pattern_requests(pattern)
            stream.next_request = requests[0]
        else:  # counted stream; SD_Config is one load
            stream.elements_left = getattr(command, "num_elements", 1)
        self.streams.append(stream)

    def tick(self, cycle: int) -> bool:
        """Advance this engine one cycle; True if anything progressed."""
        if self.sim.faults is not None and self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in self.streams:
            pending = stream.pending
            if (pending and pending[0][0] <= cycle
                    and self._drain(stream, cycle)):
                progressed = True
        # A stream finishes when its last request issues or its last
        # delivery drains.  Retire only after every drain, so a port's
        # next writer cannot deliver in the cycle its predecessor retires.
        if self._may_retire:
            self._may_retire = False
            if self._retire_and_release(cycle):
                progressed = True
        return self._issue_step(cycle) or progressed

    def _retire_and_release(self, cycle: int) -> bool:
        """Retire the streams that issued everything and drained it all;
        in a memory engine, release the ports of the others that issued
        everything (all-requests-in-flight, Section 4.2), so the next
        same-port stream overlaps its requests with this stream's
        remaining deliveries, which ``dest.writers`` keeps in order.
        True if any stream retired or released: the dispatcher may issue
        next cycle."""
        release = self.MEMORY_ENGINE and self.sim.params.all_requests_in_flight
        changed = False
        finished = None
        for stream in self.streams:
            if not stream.issued_all:
                continue
            if not stream.pending:
                if finished is None:
                    finished = [stream]
                else:
                    finished.append(stream)
            elif release and not stream.early_released:
                stream.early_released = changed = True
                for key in stream.trace.ports:
                    self.sim.dispatcher.release_port(*key)
        if finished is not None:
            for stream in finished:
                self._retire(stream, cycle)
            changed = True
        return changed

    def _issue_step(self, cycle: int) -> bool:
        """Issue the chosen ready stream, if any; True if one issued."""
        raise NotImplementedError

    def _choose(self, ready: Sequence[ActiveStream]) -> ActiveStream:
        """Round-robin selection for fairness."""
        self._rr = (self._rr + 1) % len(ready)
        return ready[self._rr]

    def _retire(self, stream: ActiveStream, cycle: int) -> None:
        self.streams.remove(stream)
        if stream.dest is not None:
            stream.dest.writers.remove(stream)
        self.sim.stream_completed(stream, cycle)

    def _note_busy(self, cycle: int, stream: ActiveStream) -> None:
        """Account one busy cycle (stats counter + the trace's
        ``engine.busy`` / ``stream.issue`` pair — kept in lock-step so the
        two accountings reconcile exactly) after ``stream`` issued, and
        flag the next tick's retire walk if that was its last issue."""
        if stream.issued_all:
            self._may_retire = True
        busy = self.sim.stats.engine_busy
        busy[self.name] = busy.get(self.name, 0) + 1
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
        engine; schedules a wake-up so fast-forward still works.  Called
        only when an injector is attached."""
        injector = self.sim.faults
        if cycle < injector.engine_stall_at:
            return False
        until = injector.engine_stall_until(self.name, cycle)
        if until > cycle:
            self.sim.schedule(until, None)
            return True
        return False

    def _drain(self, stream: ActiveStream, cycle: int) -> bool:
        """Push in-order deliveries whose data has arrived.  True if any.

        Arrived data waits in the engine's request buffer until the
        destination port has room (the paper's "buffering for outstanding
        requests"), decoupling port depth from memory latency — and until
        every earlier writer of that port has retired.
        """
        dest = stream.dest
        if dest is not None and dest.writers[0] is not stream:
            return False
        pending = stream.pending
        progressed = False
        injector = self.sim.faults
        while pending and pending[0][0] <= cycle:
            if dest is not None:
                ready_at, words = pending[0]
                if (injector is not None and words
                        and cycle >= injector.port_drop_at):
                    dropped = injector.drop_port_words(
                        cycle, dest.spec.name, words)
                    if dropped is not words:
                        # persist the loss: the retried delivery must not
                        # resurrect the dropped word
                        words = dropped
                        pending[0] = (ready_at, words)
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
                            "port": dest.spec.name,
                            "words": len(words),
                        },
                    ))
            pending.popleft()
            self.buffered -= 1
            progressed = True
        if not pending and stream.issued_all:
            self._may_retire = True
        return progressed

    def _buffer(self, stream: ActiveStream, ready: int,
                words: List[int]) -> None:
        """Queue a delivery of ``words`` (``[]`` for none) at ``ready``."""
        stream.pending.append((ready, words))
        self.buffered += 1


# ---------------------------------------------------------------------------
# Memory read engine (+ balance unit, config loads, indirect gather)
# ---------------------------------------------------------------------------

class MemReadEngine(StreamEngineBase):
    name = "mse_read"
    MEMORY_ENGINE = True

    #: outstanding-request buffer capacity (64-byte entries)
    BUFFER_LINES = 32

    def _issue_step(self, cycle: int) -> bool:
        if (self.buffered >= self.BUFFER_LINES
                or not self.sim.memory.can_accept(cycle)):
            return False
        # A stream is ready with a line request left, or, counted (an
        # indirect gather or a config load), with elements left and an
        # index word, if it reads an index port.
        balance = self.sim.params.balance_unit
        chosen = ready = None
        best = 0
        for stream in self.streams:
            if stream.next_request is None and (
                    stream.elements_left <= 0 or (
                        stream.index is not None
                        and not stream.index.occupancy)):
                continue
            if balance:
                # Balance unit: the ready stream with the fewest words
                # queued at and reserved for its port issues, the first
                # in table order on a tie; a scratch or config stream has
                # no port and scores 0.
                dest = stream.dest
                score = 0 if dest is None else dest.occupancy + dest.reserved
                if chosen is None or score < best:
                    chosen, best = stream, score
            elif chosen is None:
                chosen = stream
            elif ready is None:
                ready = [chosen, stream]
            else:
                ready.append(stream)
        if chosen is None:
            return False
        if not balance:
            chosen = self._choose(ready or (chosen,))
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _corrupt(self, cycle: int, words: List[int]) -> List[int]:
        """Apply a due ``mem.corrupt`` fault to words read from memory."""
        injector = self.sim.faults
        if injector is not None and cycle >= injector.mem_corrupt_at:
            return injector.corrupt_read(cycle, words)
        return words

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        request = stream.next_request
        if request is not None:
            ready = memory.issue(cycle, request.line_addr, False,
                                 request.bytes_used)
            if stream.dest is not None:  # SD_Mem_Port
                words = memory.store.read_elements(
                    request.element_addrs, request.elem_bytes,
                    command.pattern.signed, request.contiguous,
                )
                self._buffer(stream, ready, self._corrupt(cycle, words))
                self.sim.schedule(ready, None)
            else:  # SD_Mem_Scratch
                if request.contiguous:
                    data = memory.store.read(request.element_addrs[0],
                                             request.bytes_used)
                else:
                    data = b"".join(
                        memory.store.read(addr, request.elem_bytes)
                        for addr in request.element_addrs
                    )
                base = (command.scratch_addr
                        + stream.elements_done * request.elem_bytes)
                stream.elements_done += request.num_elements
                scratchpad = self.sim.scratchpad
                self.sim.schedule(ready, lambda: scratchpad.write(base, data))
                self._buffer(stream, ready, [])
            stream.advance_request()
        elif stream.index is not None:  # SD_IndPort_Port
            index_port = stream.index
            indices = index_port.peek(min(4, stream.elements_left))
            addrs, line = coalesce_indirect(
                indices, command.offset_addr, command.index_scale,
                len(indices))
            index_port.pop_words(len(addrs))
            ready = memory.issue(
                cycle, line, False, len(addrs) * command.elem_bytes
            )
            words = memory.store.read_elements(
                addrs, command.elem_bytes, command.signed
            )
            self._buffer(stream, ready, self._corrupt(cycle, words))
            self.sim.schedule(ready, None)
            stream.consume(len(addrs))
        else:  # SD_Config
            lines = (command.size + LINE_BYTES - 1) // LINE_BYTES
            ready = memory.issue(cycle, command.address, False, command.size)
            done = ready + max(0, lines - 1)
            self.sim.schedule(done, lambda: self.sim.apply_config(command.address))
            self._buffer(stream, done, [])
            stream.consume(1)
            self.sim.stats.config_loads += 1


# ---------------------------------------------------------------------------
# Memory write engine
# ---------------------------------------------------------------------------

class MemWriteEngine(StreamEngineBase):
    name = "mse_write"
    MEMORY_ENGINE = True

    def _issue_step(self, cycle: int) -> bool:
        if not self.sim.memory.can_accept(cycle):
            return False
        # Ready: the next line request's words are at the source port; an
        # indirect scatter needs one index word and one data word.
        chosen = ready = None
        for stream in self.streams:
            request = stream.next_request
            if request is not None:
                if stream.source.occupancy < len(request.element_addrs):
                    continue
            elif (stream.elements_left <= 0 or not stream.index.occupancy
                  or not stream.source.occupancy):
                continue
            if chosen is None:
                chosen = stream
            elif ready is None:
                ready = [chosen, stream]
            else:
                ready.append(stream)
        if chosen is None:
            return False
        chosen = self._choose(ready or (chosen,))
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        source = stream.source
        request = stream.next_request
        if request is not None:  # SD_Port_Mem
            words = source.pop_words(request.num_elements)
            ready = memory.issue(cycle, request.line_addr, True,
                                 request.bytes_used)
            addrs, elem_bytes = request.element_addrs, request.elem_bytes
            stream.advance_request()
        else:  # SD_IndPort_Mem: coalesce like the indirect AGU
            index_port = stream.index
            indices = index_port.peek(min(4, source.occupancy,
                                          stream.elements_left))
            addrs, line = coalesce_indirect(
                indices, command.offset_addr, command.index_scale,
                len(indices))
            take = len(addrs)
            index_port.pop_words(take)
            words = source.pop_words(take)
            elem_bytes = command.elem_bytes
            ready = memory.issue(cycle, line, True, take * elem_bytes)
            stream.consume(take)
        writes = list(zip(addrs, words))

        def apply() -> None:
            for addr, word in writes:
                memory.store.write_word(addr, word, elem_bytes)

        self.sim.schedule(ready, apply)
        self._buffer(stream, ready, [])


# ---------------------------------------------------------------------------
# Scratchpad engine (one read port + one write port per cycle)
# ---------------------------------------------------------------------------

class ScratchEngine(StreamEngineBase):
    name = "sse"

    def _issue_step(self, cycle: int) -> bool:
        """One read-stream and one write-stream action per cycle: the read
        round robin, the write the first ready in table order."""
        read = reads = write = None
        for stream in self.streams:
            if stream.next_request is not None:
                # A short request buffer covers the 2-cycle SRAM latency.
                if len(stream.pending) >= 4:
                    continue
                if read is None:
                    read = stream
                elif reads is None:
                    reads = [read, stream]
                else:
                    reads.append(stream)
            elif (write is None and stream.elements_left > 0
                  and stream.source.occupancy):
                write = stream
        if read is not None:
            read = self._choose(reads or (read,))
            self._issue_read(read, cycle)
            self._note_busy(cycle, read)
        if write is not None:
            self._issue_write(write, cycle)
            self._note_busy(cycle, write)
        return read is not None or write is not None

    def _issue_read(self, stream: ActiveStream, cycle: int) -> None:
        request = stream.next_request
        words = self.sim.scratchpad.read_elements(
            request.element_addrs, request.elem_bytes,
            stream.command.pattern.signed, request.contiguous,
        )
        self._buffer(stream, cycle + SCRATCH_READ_LATENCY, words)
        self.sim.schedule(cycle + SCRATCH_READ_LATENCY, None)
        stream.advance_request()

    def _issue_write(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        max_elems = self.sim.scratchpad.width_bytes // command.elem_bytes
        count = min(max_elems, stream.source.occupancy, stream.elements_left)
        words = stream.source.pop_words(count)
        done = command.num_elements - stream.elements_left
        addr = command.scratch_addr + done * command.elem_bytes
        data = b"".join(
            (w & ((1 << (8 * command.elem_bytes)) - 1)).to_bytes(
                command.elem_bytes, "little"
            )
            for w in words
        )
        self.sim.scratchpad.write(addr, data)
        stream.consume(count)


# ---------------------------------------------------------------------------
# Recurrence / constant engine
# ---------------------------------------------------------------------------

class RecurrenceEngine(StreamEngineBase):
    """``SD_Const_Port`` (dest only), ``SD_Clean_Port`` (source only) and
    ``SD_Port_Port`` (both), pushing straight into their destination."""

    name = "rse"

    def _issue_step(self, cycle: int) -> bool:
        # Ready: elements left, a source word if it reads a port, and
        # room at the head of its destination's writers if it writes one.
        chosen = ready = None
        for stream in self.streams:
            if stream.elements_left <= 0:
                continue
            source, dest = stream.source, stream.dest
            if source is not None and not source.occupancy:
                continue
            if dest is not None and (dest.writers[0] is not stream
                                     or not dest.free_words):
                continue
            if chosen is None:
                chosen = stream
            elif ready is None:
                ready = [chosen, stream]
            else:
                ready.append(stream)
        if chosen is None:
            return False
        chosen = self._choose(ready or (chosen,))
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        source, dest = stream.source, stream.dest
        count = min(
            WORDS_PER_CYCLE, stream.elements_left,
            WORDS_PER_CYCLE if source is None else source.occupancy,
            WORDS_PER_CYCLE if dest is None else dest.free_words,
        )
        words = ([stream.command.value] * count if source is None
                 else source.pop_words(count))
        if dest is not None:
            dest.push(words, reserved=False)
        stream.consume(count)

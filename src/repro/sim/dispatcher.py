"""Stream dispatcher: scoreboards, program-order port rules and barriers.

The dispatcher (Section 4.2) sits between the control core and the stream
engines.  It issues at most one command per cycle, in program order, once:

* every vector port the command uses is *free* (streams touching the same
  port must execute in program order),
* the target stream engine has a free stream-table entry, and
* no pending barrier forbids it.

Barriers block the head of the queue until their condition holds; other
already-issued streams keep running, which is how forward progress is
guaranteed.  ``SD_Barrier_All`` additionally stalls the control core while
it is in the queue.

:meth:`Dispatcher.enqueue` is the decode stage: it rejects a command that
names a port or engine this unit lacks, and resolves the command's
``(kind, port_id, role)`` scoreboard keys once, onto ``CommandTrace.ports``,
for the issue logic, the stream engines and the watchdog to read.  It
also records the command's dispatch class (``Command.dispatch_class``) on
``CommandTrace.kind`` and its stream engine on ``CommandTrace.engine``,
so the issue logic never tests a command's type or looks up its engine.

Program order per port is kept by *waiting lists*: one per scoreboard
key, holding the queued commands that use it.  A command can issue only
once it heads every list it is on, and those commands are kept, in
program order, in ``heads``; so a tick looks only at them, never at the
commands queued behind a port's first user.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import DefaultDict, Deque, Dict, List, Optional, Tuple

from ..core.isa.commands import Command, SDBarrierAll
from ..trace import TraceEvent
from .errors import IllegalCommandError
from .stats import CommandTrace

#: command-queue capacity between core and dispatcher
COMMAND_QUEUE_DEPTH = 16


class Dispatcher:
    """Issue logic with vector-port and stream-engine scoreboards.

    ``busy_ports`` is a counter per port rather than a set: the
    all-requests-in-flight optimisation (Section 4.2) lets a memory stream
    release its port for *issue* while its data is still in flight, so two
    streams can transiently own the same port — one draining, one issuing.
    """

    def __init__(self, sim: "SoftbrainSim") -> None:  # noqa: F821
        self.sim = sim
        self.queue: Deque[CommandTrace] = deque()
        self.busy_ports: Dict[Tuple[str, int, str], int] = {}
        #: per scoreboard key, the queued commands that use it, in order
        self.waiting: DefaultDict[Tuple[str, int, str],
                                  Deque[CommandTrace]] = defaultdict(deque)
        #: the queued commands at the head of every waiting list they are
        #: on, in program order; a barrier or config, which uses no port,
        #: is always one
        self.heads: List[CommandTrace] = []
        #: (timeline index, first cycle) of the barrier blocking the head
        self._barrier_blocked: Tuple[int, int] = (-1, 0)

    # -- core-facing interface ---------------------------------------------------

    def can_enqueue(self) -> bool:
        queue = self.queue
        if len(queue) >= COMMAND_QUEUE_DEPTH:
            return False
        # Nothing enqueues behind a queued SD_Barrier_All, so it is the tail.
        return not queue or not isinstance(queue[-1].command, SDBarrierAll)

    def enqueue(self, command: Command, cycle: int) -> Optional[CommandTrace]:
        """Enqueue ``command``; returns ``None`` when the queue is not
        ready this cycle (full, or an ``SD_Barrier_All`` is queued) — the
        core must hold the command and retry, exactly as the hardware
        stalls the issue stage.  A command naming a port or engine this
        unit lacks raises :class:`IllegalCommandError` before it gets a
        timeline row."""
        if not self.can_enqueue():
            return None
        ports, engine = self._decode(command)
        trace = self.sim.timeline.note_enqueue(command, cycle, ports, engine)
        self.queue.append(trace)
        head = True
        for key in trace.ports:
            line = self.waiting[key]
            head = head and not line
            line.append(trace)
        if head:
            self.heads.append(trace)
        sink = self.sim.trace
        if sink.enabled:
            sink.emit(TraceEvent(
                "command.enqueue", cycle, self.sim.unit, "dispatcher",
                {"index": trace.index, "command": trace.label,
                 "queue_depth": len(self.queue)},
            ))
        return trace

    def _decode(self, command: Command):
        """The command's scoreboard keys and stream engine (``None`` for a
        barrier); raises :class:`IllegalCommandError` if it names hardware
        this unit lacks."""
        sim = self.sim
        ports = sim.ports
        keys = []
        for name, role in command.PORTS:
            ref = getattr(command, name)
            kind, port_id = ref.kind, ref.port_id
            if (kind, port_id) not in ports:
                raise IllegalCommandError(
                    f"illegal command at program index {sim.core.pc}: "
                    f"{type(command).__name__} references nonexistent "
                    f"port {kind}{port_id}")
            keys.append((kind, port_id, role))
        engine = sim.engines.get(command.engine)
        if engine is None and command.engine != "dispatch":
            raise IllegalCommandError(
                f"illegal command at program index {sim.core.pc}: unknown "
                f"engine {command.engine!r}")
        return tuple(keys), engine

    # -- issue logic ----------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        """Issue at most one command per cycle.

        The rule preserves the architecture's ordering: streams that touch
        the *same* port issue in program order, but a stream whose ports
        are free may issue past an earlier stalled stream on other ports
        (Section 4.2's scoreboard — without this, the paper's own Figure 6
        command sequence would deadlock on the reset-constant / clean
        pair).  Barriers and configs order everything behind them.

        So the command that issues is the first of ``heads`` whose engine
        has a free stream-table entry and whose ports are all free, unless
        a barrier or config comes first: a barrier releases only at the
        queue head, and a config only once the unit has quiesced.  A
        command behind a queued command that shares a port key is never a
        candidate, exactly as a full scan of the queue would skip it.
        """
        queue = self.queue
        if not queue:
            return False
        if self.sim.config_pending:
            return False  # reconfiguration in flight orders everything

        heads = self.heads
        busy_ports = self.busy_ports.keys()  # holds only counts >= 1
        for position, trace in enumerate(heads):
            kind = trace.kind
            if kind == "barrier":
                if queue[0] is trace:
                    if self._barrier_met(trace.command):
                        queue.popleft()
                        del heads[position]
                        trace.dispatched = cycle
                        trace.completed = cycle
                        sink = self.sim.trace
                        if sink.enabled:
                            self._trace_barrier_release(sink, trace, cycle)
                        return True
                    if self._barrier_blocked[0] != trace.index:
                        self._barrier_blocked = (trace.index, cycle)
                return False  # nothing may pass a pending barrier
            if kind == "config":
                # Reconfiguration waits until the whole unit quiesces (the
                # port mapping and datapath are about to change), which
                # frees every stream-table entry; a config uses no port.
                if not self.sim.quiesced():
                    return False  # nothing passes a reconfiguration
            else:
                engine = trace.engine
                if (len(engine.streams) >= engine.table_size
                        or not busy_ports.isdisjoint(trace.ports)):
                    continue
            del heads[position]
            if queue[0] is trace:
                queue.popleft()
            else:
                queue.remove(trace)
            self._promote(trace)
            self._dispatch(trace, cycle)
            return True
        return False

    def _promote(self, trace: CommandTrace) -> None:
        """Take the issued ``trace`` off its waiting lists, and add to
        ``heads`` each command that now heads all of its lists."""
        waiting = self.waiting
        heads = self.heads
        for key in trace.ports:
            line = waiting[key]
            line.popleft()
            if not line:
                continue
            successor = line[0]
            if all(waiting[other][0] is successor for other in successor.ports):
                position = len(heads)
                while position and heads[position - 1].index > successor.index:
                    position -= 1
                heads.insert(position, successor)

    def _dispatch(self, trace: CommandTrace, cycle: int) -> None:
        """Issue the stream or config ``trace`` to its engine."""
        trace.dispatched = cycle
        busy_ports = self.busy_ports
        for key in trace.ports:
            busy_ports[key] = busy_ports.get(key, 0) + 1
        command = trace.command
        sink = self.sim.trace
        if sink.enabled:
            sink.emit(TraceEvent(
                "command.dispatch", cycle, self.sim.unit, "dispatcher",
                {"index": trace.index, "command": trace.label,
                 "engine": command.engine,
                 "wait_cycles": cycle - trace.enqueued},
            ))
        self.sim.issue_to_engine(command, trace)
        self.sim.stats.commands_issued += 1

    def _trace_barrier_release(self, sink, trace: CommandTrace,
                               cycle: int) -> None:
        """Barriers dispatch and complete in the same cycle — emit both
        lifetime events so every timeline index appears in the trace,
        preceded by one ``barrier.wait`` carrying the cycles the barrier
        blocked at the queue head (0 if it released on arrival)."""
        index, since = self._barrier_blocked
        sink.emit(TraceEvent(
            "barrier.wait", cycle, self.sim.unit, "dispatcher",
            {"index": trace.index, "command": trace.label,
             "cycles": cycle - since if index == trace.index else 0},
        ))
        common = {"index": trace.index, "command": trace.label,
                  "engine": "barrier"}
        sink.emit(TraceEvent(
            "command.dispatch", cycle, self.sim.unit, "dispatcher",
            dict(common, wait_cycles=cycle - trace.enqueued),
        ))
        sink.emit(TraceEvent(
            "command.complete", cycle, self.sim.unit, "dispatcher",
            dict(common, latency=0),
        ))

    def _barrier_met(self, command: Command) -> bool:
        if command.scratch_counter:
            return self.sim.outstanding[command.scratch_counter] == 0
        return self.sim.quiesced()  # SD_Barrier_All

    # -- completion callbacks ---------------------------------------------------------

    def release_port(self, kind: str, port_id: int, role: str) -> None:
        key = (kind, port_id, role)
        count = self.busy_ports.get(key, 0)
        if count <= 1:
            self.busy_ports.pop(key, None)
        else:
            self.busy_ports[key] = count - 1

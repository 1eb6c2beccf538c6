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
for the scan, the stream engines and the watchdog to read.  It also
records the command's dispatch class on ``CommandTrace.kind``, so the scan
never tests a command's type.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from ..core.isa.commands import (
    Command,
    SDBarrierAll,
    SDConfig,
    is_barrier,
    port_uses,
)
from ..trace import TraceEvent
from .errors import IllegalCommandError
from .stats import CommandTrace

#: command-queue capacity between core and dispatcher
COMMAND_QUEUE_DEPTH = 16


def _dispatch_kind(command: Command) -> str:
    """The dispatch class the scan branches on (``CommandTrace.kind``)."""
    if is_barrier(command):
        return "barrier"
    if isinstance(command, SDConfig):
        return "config"
    return "stream"


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
        self.busy_ports: Dict[Tuple[str, int], int] = {}
        # Scan cache: a full scan that issued nothing is valid until
        # sim.dispatch_version changes (enqueue / port release / stream
        # completion / config apply).  "quiesce" verdicts also depend on
        # sim.quiesced(), which changes without a version bump, so they
        # re-check only that predicate per cycle.
        self._cache_version = -1
        self._cache_kind = ""  # "hard" | "quiesce"
        self._used_quiesce = False
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
        trace = self.sim.timeline.note_enqueue(
            command, cycle, self._decode(command), _dispatch_kind(command))
        self.queue.append(trace)
        self.sim.dispatch_version += 1
        sink = self.sim.trace
        if sink.enabled:
            sink.emit(TraceEvent(
                "command.enqueue", cycle, self.sim.unit, "dispatcher",
                {"index": trace.index, "command": trace.label,
                 "queue_depth": len(self.queue)},
            ))
        return trace

    def _decode(self, command: Command) -> Tuple[Tuple[str, int, str], ...]:
        """The command's scoreboard keys; raises
        :class:`IllegalCommandError` if it names hardware this unit lacks."""
        sim = self.sim
        keys = tuple(
            (port.kind, port.port_id, role) for port, role in port_uses(command)
        )
        for kind, port_id, _role in keys:
            if (kind, port_id) not in sim.ports:
                raise IllegalCommandError(
                    f"illegal command at program index {sim.core.pc}: "
                    f"{type(command).__name__} references nonexistent "
                    f"port {kind}{port_id}")
        if command.engine != "dispatch" and command.engine not in sim.engines:
            raise IllegalCommandError(
                f"illegal command at program index {sim.core.pc}: unknown "
                f"engine {command.engine!r}")
        return keys

    @property
    def drained(self) -> bool:
        return not self.queue

    # -- issue logic ----------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        """Issue at most one command per cycle.

        The scan preserves the architecture's ordering rules: streams that
        touch the *same* port issue in program order, but a stream whose
        ports are free may issue past an earlier stalled stream on other
        ports (Section 4.2's scoreboard — without this, the paper's own
        Figure 6 command sequence would deadlock on the reset-constant /
        clean pair).  Barriers order everything behind them.
        """
        if not self.queue:
            return False
        if self.sim.config_pending:
            return False  # reconfiguration in flight orders everything

        if self._cache_version == self.sim.dispatch_version:
            # Nothing the scan depends on changed since it last came up
            # empty; "quiesce" verdicts must still watch the one predicate
            # that moves without a version bump.
            if self._cache_kind == "hard" or not self.sim.quiesced():
                return False

        self._used_quiesce = False
        blocked: Set[Tuple[str, int]] = set()
        for position, trace in enumerate(self.queue):
            kind = trace.kind
            if kind == "barrier":
                if position == 0 and self._barrier_met(trace.command):
                    self.queue.popleft()
                    trace.dispatched = cycle
                    trace.completed = cycle
                    sink = self.sim.trace
                    if sink.enabled:
                        self._trace_barrier_release(sink, trace, cycle)
                    return True
                if position == 0 and self._barrier_blocked[0] != trace.index:
                    self._barrier_blocked = (trace.index, cycle)
                return self._blocked()  # nothing may pass a pending barrier

            if kind == "config" and not self._resources_free(trace):
                return self._blocked()  # nothing passes a reconfiguration

            ports = trace.ports
            if not blocked.isdisjoint(ports):
                blocked.update(ports)  # later same-port streams must also wait
                continue
            if not self._resources_free(trace):
                blocked.update(ports)
                continue
            blocked.update(ports)  # even if issued, later same-port cmds wait

            del self.queue[position]
            trace.dispatched = cycle
            for key in ports:
                self.busy_ports[key] = self.busy_ports.get(key, 0) + 1
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
            return True
        return self._blocked()

    def _blocked(self) -> bool:
        """Record that a full scan issued nothing (scan cache)."""
        self._cache_version = self.sim.dispatch_version
        self._cache_kind = "quiesce" if self._used_quiesce else "hard"
        return False

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

    def _resources_free(self, trace: CommandTrace) -> bool:
        if not self.sim.engines[trace.command.engine].has_free_slot():
            return False
        busy_ports = self.busy_ports  # holds only counts >= 1
        for key in trace.ports:
            if key in busy_ports:
                return False
        if trace.kind == "config":
            # Reconfiguration must wait until the whole unit quiesces: the
            # port mapping and datapath are about to change.
            self._used_quiesce = True
            return self.sim.quiesced()
        return True

    def _barrier_met(self, command: Command) -> bool:
        if command.scratch_counter:
            return self.sim.outstanding[command.scratch_counter] == 0
        self._used_quiesce = True  # SD_Barrier_All
        return self.sim.quiesced()

    # -- completion callbacks ---------------------------------------------------------

    def release_port(self, kind: str, port_id: int, role: str) -> None:
        self.sim.dispatch_version += 1
        key = (kind, port_id, role)
        count = self.busy_ports.get(key, 0)
        if count <= 1:
            self.busy_ports.pop(key, None)
        else:
            self.busy_ports[key] = count - 1

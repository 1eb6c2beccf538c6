"""Softbrain: the top-level cycle-level simulator (Figure 7).

One Softbrain unit = control core + stream dispatcher + three stream-engine
groups + vector ports + CGRA, attached to a scratchpad and the memory
hierarchy.  :func:`run_program` is the main entry point::

    result = run_program(program, fabric=dnn_provisioned())
    print(result.stats.cycles)

The main loop, :func:`run_lockstep`, runs one unit or N units sharing one
memory interface (:mod:`repro.sim.multi_unit`).  It is cycle-stepped with
event-driven fast-forward: when no component can make progress in a cycle,
the clock jumps to the next pending event (a memory completion on the event
heap, or the next CGRA pipeline exit at the head of its in-order
``deliveries`` queue).  A cycle with no progress *and* no pending events is
a deadlock and raises :class:`SimulationDeadlock` — the situation the
paper's balance unit and buffering rules exist to prevent.  Every
:class:`~repro.sim.errors.SimError` escaping the loop carries a structured
:class:`repro.resilience.FailureReport` (wait-for graph with root-cause
chains, per-component snapshots, trace tail) on ``exc.report``; see
``docs/RESILIENCE.md``.

Fault injection: pass a :class:`repro.resilience.FaultInjector` as
``faults`` and the thin hooks in the memory system, stream engines, CGRA
executor and control core inject the planned faults.  Zero-fault runs pay
one ``is None`` test per hook site.

Observability: pass a :class:`repro.trace.TraceSink` as ``trace`` and
every component emits structured :class:`repro.trace.TraceEvent` records
— ``command.enqueue`` / ``command.dispatch`` / ``command.complete``
lifetimes (the machine-readable form of the
:class:`repro.sim.stats.Timeline`), ``engine.busy``, ``cgra.fire`` /
``cgra.stall``, ``mem.access``, ``scratch.read`` / ``scratch.write``,
``barrier.wait`` and periodic ``port.sample`` depth probes.  The default
:data:`repro.trace.NULL_SINK` keeps every hot path a single boolean test;
see ``docs/TRACING.md`` for the full vocabulary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cgra.fabric import Fabric, dnn_provisioned
from ..core.isa.commands import Command, PortRef
from ..core.isa.patterns import Affine2D, LineRequest, affine_requests
from ..core.isa.program import StreamProgram
from ..trace import NULL_SINK, TraceEvent, TraceSink
from .cgra_exec import CgraExecutor
from .control_core import ControlCore
from .dispatcher import Dispatcher
from .errors import ConfigError, SimError, SimulationDeadlock, SimulationLimit
from .memory import MemorySystem
from .scratchpad import Scratchpad
from .stats import SimStats, Timeline
from .stream_engine import (
    ActiveStream,
    MemReadEngine,
    MemWriteEngine,
    RecurrenceEngine,
    ScratchEngine,
    StreamEngineBase,
)

#: stepped cycles between ``port.sample`` trace events (traced runs only)
PORT_SAMPLE_INTERVAL = 64


@dataclass
class SoftbrainParams:
    """Per-unit structural parameters.

    The two boolean flags ablate the microarchitectural mechanisms of
    Section 4: the memory read engine's *balance unit* (deadlock avoidance
    and fairness across vector ports) and the dispatcher's
    *all-requests-in-flight* port state (overlapping same-port streams).
    """

    stream_table_size: int = 8
    max_cycles: int = 50_000_000
    balance_unit: bool = True
    all_requests_in_flight: bool = True


@dataclass
class RunResult:
    """Everything one simulation produced."""

    stats: SimStats
    timeline: Timeline
    memory: MemorySystem
    scratchpad: Scratchpad

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class SoftbrainSim:
    """One Softbrain unit plus its memory interface."""

    def __init__(
        self,
        program: StreamProgram,
        fabric: Optional[Fabric] = None,
        memory: Optional[MemorySystem] = None,
        params: Optional[SoftbrainParams] = None,
        trace: Optional[TraceSink] = None,
        unit_id: int = 0,
        faults: Optional["FaultInjector"] = None,  # noqa: F821
    ) -> None:
        self.program = program
        self.fabric = fabric or dnn_provisioned()
        self.params = params or SoftbrainParams()
        self.memory = memory or MemorySystem()
        self.scratchpad = Scratchpad()
        self.stats = SimStats()
        self.timeline = Timeline()
        self.trace = trace or NULL_SINK
        self.unit = unit_id
        if self.trace.enabled:
            self.scratchpad.attach_trace(
                self.trace, unit_id, lambda: self.cycle
            )
            # A shared MemorySystem may already carry a device-level sink
            # (multi-unit); otherwise this unit owns the memory events.
            if not self.memory.trace.enabled:
                self.memory.attach_trace(self.trace, unit_id)
        self._next_port_sample = 0
        self._sampled_ports: set = set()

        from .vector_port import VectorPortState

        #: ``(kind, port_id) -> state``, in :attr:`Fabric.ports` order
        self.ports: Dict[Tuple[str, int], VectorPortState] = {
            key: VectorPortState(spec)
            for key, spec in self.fabric.ports.items()
        }

        self.engines: Dict[str, StreamEngineBase] = {
            "mse_read": MemReadEngine(self, self.params.stream_table_size),
            "mse_write": MemWriteEngine(self, self.params.stream_table_size),
            "sse": ScratchEngine(self, self.params.stream_table_size),
            "rse": RecurrenceEngine(self, self.params.stream_table_size),
        }
        self._engine_list = list(self.engines.values())
        self.dispatcher = Dispatcher(self)
        self.core = ControlCore(self, program.items)
        self.cgra: Optional[CgraExecutor] = None
        self.config_pending = False
        self.outstanding: Dict[str, int] = {"scratch_rd": 0, "scratch_wr": 0}

        #: optional fault injector; every hook site tests ``is None`` only
        self.faults = faults
        if faults is not None:
            faults.attach(self)
            self.memory.attach_faults(faults)

        self._events: List = []  # heap of (cycle, seq, fn-or-None)
        self._event_seq = 0
        self.cycle = 0
        #: pattern -> its line requests, or None once seen (see
        #: :meth:`pattern_requests`)
        self._requests: Dict[Affine2D, Optional[Tuple[LineRequest, ...]]] = {}

    # -- services used by components --------------------------------------------

    def port_state(self, ref: PortRef):
        return self.ports[ref.kind, ref.port_id]

    def pattern_requests(self, pattern: Affine2D) -> Tuple[LineRequest, ...]:
        """The line requests of ``pattern``, kept for reuse from the
        pattern's second stream on: a layer that repeats a pattern
        computes it twice, and one whose patterns are all distinct keeps
        none."""
        memo = self._requests
        requests = memo.get(pattern)
        if requests is None:
            requests = affine_requests(pattern)
            memo[pattern] = requests if pattern in memo else None
        return requests

    def schedule(self, cycle: int, fn: Optional[Callable[[], None]]) -> None:
        """Schedule ``fn`` (or a pure wake-up when None) at ``cycle``."""
        self._event_seq += 1
        heapq.heappush(self._events, (cycle, self._event_seq, fn))

    def issue_to_engine(self, command: Command, trace) -> None:
        """Hand the stream or config ``trace`` to the engine decoded at
        enqueue, dropping the trace's reference to it."""
        if trace.kind == "config":
            self.config_pending = True
        if command.scratch_counter:
            self.outstanding[command.scratch_counter] += 1
        engine = trace.engine
        trace.engine = None
        engine.accept(command, trace)

    def stream_completed(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        stream.trace.completed = cycle
        if self.trace.enabled:
            self.trace.emit(TraceEvent(
                "command.complete", cycle, self.unit, "dispatcher",
                {
                    "index": stream.trace.index,
                    "command": stream.trace.label,
                    "engine": command.engine,
                    "latency": cycle - (stream.trace.dispatched or cycle),
                },
            ))
        if command.scratch_counter:
            self.outstanding[command.scratch_counter] -= 1
        if not stream.early_released:
            for key in stream.trace.ports:
                self.dispatcher.release_port(*key)

    def apply_config(self, address: int) -> None:
        image = self.program.config_images.get(address)
        if image is None:
            raise ConfigError(f"no configuration image at 0x{address:x}")
        if (
            image.fabric.name != self.fabric.name
            or image.fabric.mesh.cols != self.fabric.mesh.cols
            or image.fabric.mesh.rows != self.fabric.mesh.rows
        ):
            raise ConfigError(
                f"config {image.dfg.name!r} was scheduled for fabric "
                f"{image.fabric.name!r}, unit has {self.fabric.name!r}"
            )
        if self.cgra is not None:
            # SD_Config dispatched only once the unit quiesced, so the
            # old executor has no delivery left to make.
            self.cgra.fold_activity()
        self.cgra = CgraExecutor(self, image)
        self.config_pending = False
        if self.trace.enabled:
            self.trace.emit(TraceEvent(
                "config.apply", self.cycle, self.unit, "softbrain",
                {"address": address, "dfg": image.dfg.name},
            ))

    def quiesced(self) -> bool:
        """All issued work is complete (used by SD_Barrier_All and config)."""
        for engine in self._engine_list:
            if engine.streams:
                return False
        cgra = self.cgra
        if cgra is not None and cgra.deliveries:
            return False
        return not self._events

    # -- main loop ------------------------------------------------------------------

    def step(self, cycle: int) -> bool:
        """Advance all components one cycle; True if anything progressed."""
        self.cycle = cycle
        progress = False
        events = self._events
        while events and events[0][0] <= cycle:
            _, _, fn = heapq.heappop(events)
            if fn is not None:
                fn()
            progress = True
        cgra = self.cgra
        if cgra is not None:
            deliveries = cgra.deliveries
            if deliveries and deliveries[0][0] <= cycle:
                cgra.deliver(cycle)
                progress = True
        if self.core.tick(cycle):
            progress = True
        if self.dispatcher.tick(cycle):
            progress = True
        # An engine with an empty stream table cannot progress; its only
        # per-cycle side effect is observing a due ``engine.stall`` fault,
        # so skip its tick unless one is.
        faults = self.faults
        stall_due = faults is not None and cycle >= faults.engine_stall_at
        for engine in self._engine_list:
            if (engine.streams or stall_due) and engine.tick(cycle):
                progress = True
        if cgra is not None and cgra.tick(cycle):
            progress = True
        if self.trace.enabled and cycle >= self._next_port_sample:
            self._sample_ports(cycle)
        return progress

    def _sample_ports(self, cycle: int) -> None:
        """Emit ``port.sample`` depth probes for every active port.

        A port is sampled while it holds or awaits data, plus once more
        after it empties so depth series return to zero.
        """
        self._next_port_sample = cycle + PORT_SAMPLE_INTERVAL
        emit = self.trace.emit
        for state in self.ports.values():
            name = state.spec.name
            occupancy, reserved = state.occupancy, state.reserved
            if occupancy or reserved:
                self._sampled_ports.add(name)
            elif name in self._sampled_ports:
                self._sampled_ports.discard(name)
            else:
                continue
            emit(TraceEvent(
                "port.sample", cycle, self.unit, "ports",
                {"port": name, "occupancy": occupancy,
                 "reserved": reserved},
            ))

    def finished(self) -> bool:
        return (
            self.core.finished
            and not self.dispatcher.queue
            and self.quiesced()
        )

    def next_event_cycle(self) -> Optional[int]:
        """The earliest pending event-heap entry or CGRA delivery."""
        nxt = self._events[0][0] if self._events else None
        if self.cgra is not None and self.cgra.deliveries:
            ready = self.cgra.deliveries[0][0]
            if nxt is None or ready < nxt:
                nxt = ready
        return nxt

    def finalize(self, cycle: int) -> RunResult:
        """Record final statistics after the last active cycle."""
        self.cycle = cycle
        if self.cgra is not None:
            self.cgra.fold_activity()
        self.stats.cycles = cycle
        self.stats.control_instructions = self.core.instructions_executed
        return RunResult(self.stats, self.timeline, self.memory, self.scratchpad)

    def run(self) -> RunResult:
        return run_lockstep([self])[0]

    def release(self) -> None:
        """Drop the components, each of which points back at this sim.

        Breaks those reference cycles, so a finished run's program,
        memory image and stream state are freed as soon as the caller
        drops them rather than at the next full garbage collection.
        """
        if self.dispatcher is not None:
            for trace in self.dispatcher.queue:
                trace.engine = None
        self.engines = {}
        self._engine_list = []
        self.dispatcher = self.core = self.cgra = None
        self._events = []


def run_lockstep(sims: List[SoftbrainSim]) -> List[RunResult]:
    """Run ``sims`` in lock-step until every one has finished.

    The one cycle loop: :func:`run_program` passes one unit and
    :func:`~repro.sim.multi_unit.run_multi_unit` passes N units on one
    shared :class:`MemorySystem`.  Each cycle steps every live unit once,
    in index order, so a lower-index unit wins a tie for the shared
    interface's one accept slot per cycle.  A unit that has finished is
    finalised at that cycle and steps no more.  A cycle in which no unit progresses fast-forwards to the
    earliest pending event of any live unit; with none pending, the live
    units are deadlocked.  No unit steps at a cycle above
    ``params.max_cycles``.  Results come back in the order of ``sims``.
    """
    max_cycles = sims[0].params.max_cycles
    results: Dict[SoftbrainSim, RunResult] = {}
    live = sims
    cycle = 0
    while True:
        progress = finished = False
        for sim in live:
            try:
                if sim.step(cycle):
                    progress = True
            except SimError as exc:
                raise _fail([sim], exc) from None
            if sim.finished():
                results[sim] = sim.finalize(cycle)
                finished = True
        if finished:
            live = [sim for sim in live if sim not in results]
            if not live:
                return [results[sim] for sim in sims]
        if progress:
            cycle += 1
        else:
            wake = None
            for sim in live:
                ready = sim.next_event_cycle()
                if ready is not None and (wake is None or ready < wake):
                    wake = ready
            if wake is None:
                raise _stuck(sims, live, cycle, deadlock=True)
            cycle = max(cycle + 1, wake)
        if cycle > max_cycles:
            raise _stuck(sims, live, cycle, deadlock=False)


def _stuck(sims: List[SoftbrainSim], live: List[SoftbrainSim], cycle: int,
           deadlock: bool) -> SimError:
    """The deadlock or cycle-limit failure of the ``live`` units."""
    limit = sims[0].params.max_cycles
    if len(sims) == 1:
        name = sims[0].program.name
        message = (f"deadlock at cycle {cycle} in program {name!r}"
                   if deadlock else f"exceeded {limit} cycles in {name!r}")
    else:
        message = (f"multi-unit deadlock at cycle {cycle}: "
                   f"{len(live)} of {len(sims)} units stuck"
                   if deadlock else f"multi-unit run exceeded {limit} cycles")
    exc = SimulationDeadlock(message) if deadlock else SimulationLimit(message)
    for sim in live:
        sim.cycle = cycle
    return _fail(live, exc, tagged=len(sims) > 1)


def _fail(units: List[SoftbrainSim], exc: SimError,
          tagged: bool = False) -> SimError:
    """Annotate an escaping failure of ``units`` with context and a crash
    dump; ``tagged`` marks every entry with its unit (multi-unit runs).

    The report builder is imported lazily, so a run that does not fail
    never pays for the diagnostics machinery.
    """
    from ..resilience.report import build_failure_report

    if exc.program_name is None:
        exc.program_name = "+".join(sim.program.name for sim in units)
    if exc.cycle is None:
        exc.cycle = units[0].cycle
    for sim in units:
        if sim.cgra is not None:
            sim.cgra.fold_activity()
    if exc.report is None:
        exc.report = build_failure_report(units, exc, tagged)
        message = exc.args[0] if exc.args else type(exc).__name__
        exc.args = (f"{message}\n{exc.report.render()}",)
    return exc


def run_program(
    program: StreamProgram,
    fabric: Optional[Fabric] = None,
    memory: Optional[MemorySystem] = None,
    params: Optional[SoftbrainParams] = None,
    trace: Optional[TraceSink] = None,
    faults: Optional["FaultInjector"] = None,  # noqa: F821
) -> RunResult:
    """Simulate a stream program on one Softbrain unit.

    ``trace`` attaches a :class:`repro.trace.TraceSink`; the caller owns
    the sink's lifetime (call ``sink.close()`` after the run).  ``faults``
    attaches a :class:`repro.resilience.FaultInjector` whose planned
    faults fire at their chosen cycles (``docs/RESILIENCE.md``).
    """
    sim = SoftbrainSim(program, fabric=fabric, memory=memory, params=params,
                       trace=trace, faults=faults)
    try:
        return sim.run()
    finally:
        sim.release()

"""Simulation statistics and the command-lifetime timeline.

The timeline records, for every stream command, the cycles at which it was
*enqueued* by the control core, *dispatched* to a stream engine, and
*completed* — the three events the paper's execution-model figures (4 and 6)
visualise.  :func:`render_timeline` reproduces those figures as ASCII.

This module is the *aggregate* accounting; the structured per-event record
lives in :mod:`repro.trace`.  The two are bridged in both directions: the
``command.enqueue`` / ``command.dispatch`` / ``command.complete`` trace
events carry exactly the cycles a :class:`CommandTrace` stores, and each
:class:`SimStats` counter has a one-to-one emitting event kind:
``engine.busy`` for :attr:`SimStats.engine_busy`, ``cgra.fire`` for
:attr:`SimStats.instances_fired` / :attr:`SimStats.ops_executed` /
:attr:`SimStats.fu_activity`, ``cgra.stall`` for the two stall counters,
``command.dispatch`` for :attr:`SimStats.commands_issued` and
``config.apply`` for :attr:`SimStats.config_loads`.  Replaying a recorded
event stream through :meth:`repro.trace.MetricsRegistry.from_events` and
calling :meth:`~repro.trace.MetricsRegistry.reconcile` checks that
correspondence exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.isa.commands import Command


@dataclass(eq=False)
class CommandTrace:
    """Lifetime of one command through the dispatcher.

    ``index`` is the stable per-run timeline position — the same value the
    ``index`` field of the :class:`repro.trace.TraceEvent` lifetime events
    (``command.enqueue`` / ``command.dispatch`` / ``command.complete``)
    carries, so ASCII timelines and exported traces can be joined on it.
    ``ports`` holds the command's ``(kind, port_id, role)`` scoreboard
    keys, ``kind`` its dispatch class (``Command.dispatch_class``) and
    ``engine`` the stream engine that will run it, all resolved once when
    the dispatcher decodes it at enqueue.  The engine points back at the
    simulator, so it is dropped once the engine accepts the command.
    """

    index: int
    command: Command
    enqueued: int
    dispatched: Optional[int] = None
    completed: Optional[int] = None
    ports: Tuple[Tuple[str, int, str], ...] = ()
    kind: str = "stream"
    engine: Optional[object] = None

    @property
    def label(self) -> str:
        return type(self.command).__name__.replace("SD", "SD_")


@dataclass
class SimStats:
    """Aggregate counters produced by one Softbrain simulation.

    Every counter except :attr:`cycles` and
    :attr:`control_instructions` is incremented at a program point that
    also emits a :class:`repro.trace.TraceEvent` (see the module
    docstring for the counter ↔ event-kind table), which lets
    :meth:`repro.trace.MetricsRegistry.reconcile` cross-check the two.

    :attr:`cgra_stall_no_input` and :attr:`cgra_stall_no_output_room`
    count the *stepped* cycles in which the CGRA stalled, not every cycle
    it stood stalled: the cycles
    :func:`~repro.sim.softbrain.run_lockstep` fast-forwards over are
    never stepped, so they count nowhere.  Stepping or skipping a cycle
    of a stall therefore moves these two counters even when the cycles,
    the timeline and the memory and scratchpad stats stay the same.
    """

    cycles: int = 0
    instances_fired: int = 0
    ops_executed: int = 0
    fu_activity: Dict[str, int] = field(default_factory=dict)
    engine_busy: Dict[str, int] = field(default_factory=dict)
    commands_issued: int = 0
    control_instructions: int = 0
    config_loads: int = 0
    cgra_stall_no_input: int = 0
    cgra_stall_no_output_room: int = 0

    def note_firing(self, ops: int, fu_ops: Dict[str, int]) -> None:
        self.instances_fired += 1
        self.ops_executed += ops
        for fu_name, count in fu_ops.items():
            self.fu_activity[fu_name] = self.fu_activity.get(fu_name, 0) + count

    @property
    def ops_per_cycle(self) -> float:
        return self.ops_executed / self.cycles if self.cycles else 0.0

    @property
    def cgra_utilization(self) -> float:
        """Fraction of cycles with a new instance entering the pipeline."""
        return self.instances_fired / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict[str, object]:
        """All counters plus derived rates, as JSON-serialisable data."""
        return {
            "cycles": self.cycles,
            "instances_fired": self.instances_fired,
            "ops_executed": self.ops_executed,
            "fu_activity": dict(self.fu_activity),
            "engine_busy": dict(self.engine_busy),
            "commands_issued": self.commands_issued,
            "control_instructions": self.control_instructions,
            "config_loads": self.config_loads,
            "cgra_stall_no_input": self.cgra_stall_no_input,
            "cgra_stall_no_output_room": self.cgra_stall_no_output_room,
            "ops_per_cycle": self.ops_per_cycle,
            "cgra_utilization": self.cgra_utilization,
        }


class Timeline:
    """Ordered command-lifetime records for one simulation."""

    def __init__(self) -> None:
        self.traces: List[CommandTrace] = []

    def note_enqueue(self, command: Command, cycle: int,
                     ports: Tuple[Tuple[str, int, str], ...] = (),
                     engine: Optional[object] = None) -> CommandTrace:
        trace = CommandTrace(len(self.traces), command, cycle, None, None,
                             ports, command.dispatch_class, engine)
        self.traces.append(trace)
        return trace

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)


def render_timeline(timeline: Timeline, width: int = 72) -> str:
    """ASCII rendering in the style of the paper's Figures 4(b) and 6.

    Each command gets a row: ``.`` idle, ``q`` enqueued-waiting, ``=``
    in-flight (dispatched, resource active), ``#`` completion cycle.
    """
    if not timeline.traces:
        return "(empty timeline)"
    horizon = max(t.completed or t.enqueued for t in timeline.traces) + 1
    scale = max(1, (horizon + width - 1) // width)
    cols = (horizon + scale - 1) // scale

    def col(cycle: int) -> int:
        return min(cols - 1, cycle // scale)

    lines = [f"cycles 0..{horizon - 1}  ({scale} cycles/char)"]
    for trace in timeline.traces:
        row = ["."] * cols
        end = trace.completed if trace.completed is not None else horizon - 1
        start = trace.dispatched if trace.dispatched is not None else end
        for c in range(col(trace.enqueued), col(start)):
            row[c] = "q"
        for c in range(col(start), col(end) + 1):
            row[c] = "="
        if trace.completed is not None:
            row[col(trace.completed)] = "#"
        label = f"C{trace.index:<3} {trace.label:<22}"
        lines.append(f"{label} |{''.join(row)}|")
    return "\n".join(lines)

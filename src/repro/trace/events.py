"""The trace event vocabulary: one record per micro-architectural happening.

Every event is a :class:`TraceEvent` — a ``kind`` drawn from the closed
vocabulary below, the ``cycle`` it happened, the ``unit`` it happened on
(``SHARED_UNIT`` for device-level components such as the shared memory
interface of a multi-unit run), the emitting ``component`` and a ``data``
payload whose fields are fixed per kind.  :data:`EVENT_SCHEMAS` is the
machine-readable schema — ``docs/TRACING.md`` is generated from the same
information — and :func:`validate_event` checks a record against it.

The vocabulary is deliberately small and flat: every consumer (the
:class:`repro.trace.metrics.MetricsRegistry`, the Chrome-trace exporter,
ad-hoc scripts over JSONL files) dispatches on ``kind`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: ``unit`` value for components shared by the whole device (e.g. the one
#: memory interface all tiles of a multi-unit run arbitrate for).
SHARED_UNIT = -1


@dataclass
class TraceEvent:
    """One structured trace record.

    ``data`` holds the kind-specific fields listed in
    :data:`EVENT_SCHEMAS`; everything else is common to all kinds.
    """

    kind: str
    cycle: int
    unit: int
    component: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        """Flat dict form used by the JSONL format (documented order)."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "unit": self.unit,
            "component": self.component,
            "data": self.data,
        }


@dataclass(frozen=True)
class EventSchema:
    """Documentation + validation record for one event kind."""

    kind: str
    emitter: str  #: which component class emits it
    description: str
    fields: Dict[str, str]  #: data field name -> meaning


def _schema(kind: str, emitter: str, description: str,
            **fields: str) -> EventSchema:
    return EventSchema(kind, emitter, description, dict(fields))


#: The complete trace vocabulary.  Adding an event kind means adding a row
#: here first — tests assert emitted events validate against this table.
EVENT_SCHEMAS: Dict[str, EventSchema] = {
    s.kind: s
    for s in [
        _schema(
            "command.enqueue",
            "Dispatcher",
            "The control core handed a stream command to the dispatcher "
            "queue.",
            index="timeline index of the command (stable per run)",
            command="command label, e.g. 'SD_MemPort'",
            queue_depth="dispatcher queue occupancy after the enqueue",
        ),
        _schema(
            "command.dispatch",
            "Dispatcher",
            "A command won the scoreboard and was issued to its stream "
            "engine (barriers: released at the queue head).",
            index="timeline index of the command",
            command="command label",
            engine="target engine name, or 'barrier' for barrier commands",
            wait_cycles="cycles spent waiting in the queue since enqueue",
        ),
        _schema(
            "command.complete",
            "SoftbrainSim",
            "A stream command finished: all elements moved and its ports "
            "released (barriers complete at dispatch).",
            index="timeline index of the command",
            command="command label",
            engine="engine that ran it, or 'barrier'",
            latency="cycles from dispatch to completion",
        ),
        _schema(
            "barrier.wait",
            "Dispatcher",
            "A barrier was released at the queue head; emitted once per "
            "barrier, just before its command.dispatch.",
            index="timeline index of the barrier command",
            command="barrier label, e.g. 'SD_BarrierAll'",
            cycles="cycles the barrier blocked issue at the queue head "
                   "because its condition did not yet hold (0 if none)",
        ),
        _schema(
            "stream.issue",
            "stream engines",
            "An engine advanced one active stream by one action: a line "
            "request, an indirect gather/scatter beat, or a port-to-port "
            "move.",
            index="timeline index of the stream's command",
            command="command label",
        ),
        _schema(
            "stream.drain",
            "stream engines",
            "Arrived data left an engine's request buffer and landed in a "
            "destination vector port (in order).",
            index="timeline index of the stream's command",
            command="command label",
            port="destination port, e.g. 'in3'",
            words="64-bit words delivered",
        ),
        _schema(
            "engine.busy",
            "stream engines",
            "One cycle in which this engine performed work (reconciles "
            "1:1 with SimStats.engine_busy).",
        ),
        _schema(
            "cgra.fire",
            "CgraExecutor",
            "One computation instance entered the fabric (initiation "
            "interval 1).",
            ops="DFG instructions executed by the instance",
            fu="per-FU-type op counts for the instance",
        ),
        _schema(
            "cgra.stall",
            "CgraExecutor",
            "One cycle in which the CGRA could not fire (reconciles 1:1 "
            "with the SimStats cgra_stall_* counters).",
            cause="'no_input' (upstream data exists but an input port is "
                  "short) or 'no_output_room' (an output port lacks space)",
        ),
        _schema(
            "port.sample",
            "SoftbrainSim",
            "Periodic vector-port depth sample (every "
            "`repro.sim.softbrain.PORT_SAMPLE_INTERVAL` stepped cycles; "
            "only ports whose depth changed from zero are sampled).",
            port="port name, e.g. 'in0', 'out1', 'ind0'",
            occupancy="words resident in the FIFO",
            reserved="words reserved for in-flight data",
        ),
        _schema(
            "scratch.read",
            "Scratchpad",
            "One scratchpad SRAM read access.",
            addr="scratchpad byte address",
            bytes="bytes read",
        ),
        _schema(
            "scratch.write",
            "Scratchpad",
            "One scratchpad SRAM write access.",
            addr="scratchpad byte address",
            bytes="bytes written",
        ),
        _schema(
            "mem.access",
            "MemorySystem",
            "One 64-byte-line request accepted by the memory interface.",
            line_addr="line-aligned address",
            write="True for stores",
            bytes="useful bytes in the request",
            hit="True if the line was L2-resident",
            ready="cycle at which the data is available / visible",
        ),
        _schema(
            "config.apply",
            "SoftbrainSim",
            "A CGRA configuration finished loading and was installed.",
            address="configuration image address",
            dfg="name of the installed DFG",
        ),
        _schema(
            "fault.inject",
            "FaultInjector",
            "An injected fault fired (fault-injection runs only; see "
            "docs/RESILIENCE.md).",
            fault="fault class, e.g. 'mem.delay', 'cgra.bitflip'",
            target="component/port the fault hit ('' when class-global)",
            detail="class-specific description of the mutation",
        ),
    ]
}


def validate_event(event: TraceEvent) -> None:
    """Raise ``ValueError`` if ``event`` does not match its schema."""
    schema = EVENT_SCHEMAS.get(event.kind)
    if schema is None:
        raise ValueError(f"unknown event kind {event.kind!r}")
    missing = set(schema.fields) - set(event.data)
    extra = set(event.data) - set(schema.fields)
    if missing or extra:
        raise ValueError(
            f"{event.kind}: bad fields (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    if not isinstance(event.cycle, int) or event.cycle < 0:
        raise ValueError(f"{event.kind}: bad cycle {event.cycle!r}")


def format_schema_table() -> str:
    """Render the vocabulary as a text table (used by the CLI and docs)."""
    lines = []
    for kind in sorted(EVENT_SCHEMAS):
        schema = EVENT_SCHEMAS[kind]
        lines.append(f"{kind}  [{schema.emitter}]")
        lines.append(f"    {schema.description}")
        for name, meaning in schema.fields.items():
            lines.append(f"    .{name}: {meaning}")
    return "\n".join(lines)

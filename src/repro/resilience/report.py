"""Structured failure reports: the JSON crash dump of a dead simulation.

Every :class:`~repro.sim.errors.SimError` that escapes
:meth:`SoftbrainSim.run` or :func:`~repro.sim.multi_unit.run_multi_unit`
is annotated with a :class:`FailureReport` on ``exc.report``: the failing
cycle, the hang watchdog's wait-for graph with root-cause chains, a
per-component state snapshot, the last-N trace events (when the run was
traced through a sink with a ``tail_events`` method, e.g.
:class:`repro.trace.RingSink`), and the record of injected faults.  One
builder, :func:`build_failure_report`, covers one unit or the stuck units
of a multi-unit run; only a run of more than one unit tags the entries
with their unit.  Reports are deterministic — no wall-clock timestamps,
sorted JSON keys — so the same seed reproduces a byte-identical dump,
which the fault campaign asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .watchdog import build_wait_graph

#: schema version of the JSON dump
REPORT_VERSION = 1


@dataclass
class FailureReport:
    """One structured crash dump (see ``docs/RESILIENCE.md`` for schema)."""

    kind: str  #: SimError.kind, e.g. "deadlock", "limit"
    program: str
    cycle: int
    message: str
    chains: List[str] = field(default_factory=list)
    wait_graph: Dict[str, Any] = field(default_factory=dict)
    components: Dict[str, Any] = field(default_factory=dict)
    trace_tail: List[Dict[str, Any]] = field(default_factory=list)
    faults: List[Dict[str, Any]] = field(default_factory=list)
    version: int = REPORT_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "kind": self.kind,
            "program": self.program,
            "cycle": self.cycle,
            "message": self.message,
            "chains": list(self.chains),
            "wait_graph": self.wait_graph,
            "components": self.components,
            "trace_tail": list(self.trace_tail),
            "faults": list(self.faults),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureReport":
        return cls(
            kind=data["kind"], program=data["program"],
            cycle=data["cycle"], message=data["message"],
            chains=list(data.get("chains", [])),
            wait_graph=data.get("wait_graph", {}),
            components=data.get("components", {}),
            trace_tail=list(data.get("trace_tail", [])),
            faults=list(data.get("faults", [])),
            version=data.get("version", REPORT_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "FailureReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        with open(path, "w") as stream:
            stream.write(self.to_json())
            stream.write("\n")
        return path

    def render(self) -> str:
        """Compact human-readable form appended to the exception message."""
        lines = [f"-- failure report ({self.kind}, cycle {self.cycle}) --"]
        if self.chains:
            lines.append("root-cause chains:")
            lines.extend(f"  {chain}" for chain in self.chains)
        if self.faults:
            lines.append("injected faults fired:")
            lines.extend(
                f"  {f['kind']} @ cycle {f['fired_at']} on {f['target']}: "
                f"{f['detail']}"
                for f in self.faults
            )
        queue = self.components.get("dispatcher", {}).get("queue", [])
        if queue:
            lines.append(f"dispatcher queue ({len(queue)}): "
                         + ", ".join(queue[:6])
                         + (" ..." if len(queue) > 6 else ""))
        if self.trace_tail:
            lines.append(f"trace tail: {len(self.trace_tail)} events "
                         f"retained (see JSON dump)")
        return "\n".join(lines)


def snapshot_components(sim) -> Dict[str, Any]:
    """Deterministic per-component state snapshot of one unit."""
    engines = {}
    for name in sorted(sim.engines):
        engine = sim.engines[name]
        engines[name] = [
            {
                "command": s.trace.label,
                "index": s.trace.index,
                "elements_left": s.elements_left,
                "pending_deliveries": len(s.pending),
                "issued_all": s.issued_all,
            }
            for s in engine.streams
        ]
    ports: Dict[str, Any] = {}
    for state in sim.ports.values():
        if state.occupancy or state.reserved:
            ports[state.spec.name] = {"occupancy": state.occupancy,
                                      "reserved": state.reserved}
    cgra: Optional[Dict[str, Any]] = None
    if sim.cgra is not None:
        why = sim.cgra.can_fire()
        cgra = {"in_flight": sim.cgra.in_flight,
                "can_fire": not why, "blocked_on": why}
    stats = sim.memory.stats
    return {
        "core": {
            "pc": sim.core.pc,
            "finished": sim.core.finished,
            "stall_cycles": sim.core.stall_cycles,
        },
        "dispatcher": {
            "queue": [f"{t.label} #{t.index}" for t in sim.dispatcher.queue],
            "busy_ports": {
                f"{kind}{pid}:{role}": count
                for (kind, pid, role), count in sorted(
                    sim.dispatcher.busy_ports.items())
            },
        },
        "engines": engines,
        "ports": dict(sorted(ports.items())),
        "cgra": cgra,
        "outstanding": dict(sim.outstanding),
        "memory": {
            "reads": stats.reads, "writes": stats.writes,
            "hits": stats.hits, "misses": stats.misses,
        },
    }


def _trace_tail(sim) -> List[Dict[str, Any]]:
    tail = getattr(sim.trace, "tail_events", None)
    if tail is None:
        return []
    return [event.to_json_dict() for event in tail()]


def build_failure_report(sims, exc, tagged: bool) -> FailureReport:
    """Crash dump over the failing units (called from the simulator's
    ``_fail`` once ``exc`` carries its program name and cycle).

    With ``tagged`` (a run of more than one unit) each entry names its
    unit: ``u<i>:`` node ids, ``[unit i]`` chain prefixes, ``unit<i>``
    component keys and a ``unit`` field on each fired fault.
    """
    chains: List[str] = []
    nodes: Dict[str, Any] = {}
    edges: List[Dict[str, str]] = []
    components: Dict[str, Any] = {}
    faults: List[Dict[str, Any]] = []
    tail: List[Dict[str, Any]] = []
    for sim in sims:
        graph = build_wait_graph(sim)
        node = f"u{sim.unit}:" if tagged else ""
        chain = f"[unit {sim.unit}] " if tagged else ""
        chains.extend(chain + c for c in graph.chains())
        for nid, info in graph.nodes.items():
            nodes[node + nid] = dict(info)
        edges.extend({"src": node + src, "dst": node + dst, "reason": reason}
                     for src, dst, reason in graph.edges)
        snapshot = snapshot_components(sim)
        if tagged:
            components[f"unit{sim.unit}"] = snapshot
        else:
            components.update(snapshot)
        if sim.faults is not None:
            faults.extend(dict(f, unit=sim.unit) if tagged else f
                          for f in sim.faults.fired)
        tail = tail or _trace_tail(sim)  # units usually share one sink
    return FailureReport(
        kind=getattr(exc, "kind", "error"),
        program=exc.program_name,
        cycle=exc.cycle,
        message=str(exc.args[0]) if exc.args else type(exc).__name__,
        chains=chains,
        wait_graph={"nodes": nodes, "edges": edges},
        components=components,
        trace_tail=tail,
        faults=faults,
    )

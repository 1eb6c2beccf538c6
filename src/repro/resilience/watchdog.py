"""Hang watchdog: turn a stuck simulator into a wait-for graph.

When the run loop detects no progress and no pending events (deadlock), or
trips the cycle limit, :func:`build_wait_graph` walks the simulator's
architectural state — queued commands, active streams, vector ports, the
CGRA and the control core — and records *who is waiting on whom and why*
as a :class:`WaitGraph`.  :meth:`WaitGraph.chains` then walks the graph
from the observable stuck work down to its root causes, producing lines
like::

    SD_Port_Mem #7 [dest port out3 has no data] <- port out3
        [no output from fabric] <- cgra [starved on in1] <- port in1
        [no stream writes this port]

The walker duck-types ``SoftbrainSim`` (it only reads public attributes),
so it works on any object with the same shape and never imports the sim
package — keeping ``repro.sim`` -> ``repro.resilience`` a one-way,
lazily-imported dependency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.isa.commands import SDBarrierAll, SDConfig, is_barrier

#: cap on rendered root-cause chains (the graph itself is complete)
MAX_CHAINS = 10


class WaitGraph:
    """Nodes (stuck actors) and directed wait-for edges with reasons."""

    def __init__(self) -> None:
        #: node id -> {"label": ..., "detail": ...}
        self.nodes: Dict[str, Dict[str, str]] = {}
        #: (src, dst, reason), in insertion order (deterministic)
        self.edges: List[Tuple[str, str, str]] = []

    def add_node(self, node_id: str, label: str, detail: str = "") -> None:
        if node_id not in self.nodes:
            self.nodes[node_id] = {"label": label, "detail": detail}

    def add_edge(self, src: str, dst: str, reason: str) -> None:
        edge = (src, dst, reason)
        if edge not in self.edges:
            self.edges.append(edge)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nodes": {nid: dict(info) for nid, info in self.nodes.items()},
            "edges": [
                {"src": s, "dst": d, "reason": r} for s, d, r in self.edges
            ],
        }

    # -- chain extraction ----------------------------------------------------

    def _first_edge(self, node_id: str) -> Optional[Tuple[str, str]]:
        for src, dst, reason in self.edges:
            if src == node_id:
                return dst, reason
        return None

    def chains(self) -> List[str]:
        """Root-cause chains: from each stuck command/stream, follow the
        first wait-for edge until a terminal node or a cycle closes."""
        has_in = {dst for _src, dst, _r in self.edges}
        starts = [
            nid for nid in self.nodes
            if (nid.startswith("cmd:") or nid.startswith("stream:"))
            and self._first_edge(nid) is not None
        ]
        # Prefer true roots (nothing waits on them); fall back to all.
        roots = [nid for nid in starts if nid not in has_in] or starts
        out: List[str] = []
        for start in roots[:MAX_CHAINS]:
            parts: List[str] = []
            seen = set()
            node: Optional[str] = start
            while node is not None and node not in seen:
                seen.add(node)
                info = self.nodes.get(node, {"label": node, "detail": ""})
                step = self._first_edge(node)
                if step is None:
                    tail = info["label"]
                    if info["detail"]:
                        tail += f" [{info['detail']}]"
                    parts.append(tail)
                    node = None
                else:
                    dst, reason = step
                    parts.append(f"{info['label']} [{reason}]")
                    node = dst
            if node is not None:  # cycle closed
                parts.append(f"{self.nodes[node]['label']} (cycle)")
            out.append(" <- ".join(parts))
        return out


def _port_node(graph: WaitGraph, kind: str, port_id: int) -> str:
    node_id = f"port:{kind}{port_id}"
    graph.add_node(node_id, f"port {kind}{port_id}")
    return node_id


def _stream_holders(sim, kind: str, port_id: int,
                    role: Optional[str] = None) -> List[Any]:
    """Active streams using port (kind, port_id), optionally role-filtered."""
    holders = []
    for engine in sim.engines.values():
        for stream in engine.streams:
            for use_kind, use_id, use_role in stream.trace.ports:
                if (use_kind, use_id) == (kind, port_id) and (
                    role is None or use_role == role
                ):
                    holders.append(stream)
    return holders


def _stream_node(graph: WaitGraph, stream) -> str:
    node_id = f"stream:{stream.trace.index}"
    graph.add_node(node_id, f"{stream.trace.label} #{stream.trace.index}")
    return node_id


def _cmd_node(graph: WaitGraph, trace) -> str:
    node_id = f"cmd:{trace.index}"
    graph.add_node(node_id, f"{trace.label} #{trace.index} (queued)")
    return node_id


def _stream_port_needs(stream) -> List[Tuple[Any, str]]:
    """(port state, why) for each port an active stream is stuck on: no
    data in its index or source port, or no room in its dest port."""
    needs = [
        (port, why)
        for port, why in ((stream.index, "index port {} has no addresses"),
                          (stream.source, "source {} has no data"))
        if port is not None and port.occupancy == 0
    ]
    if stream.dest is not None and stream.dest.free_words <= 0:
        needs.append((stream.dest, "dest {} is full"))
    return needs


def build_wait_graph(sim, cycle: Optional[int] = None) -> WaitGraph:
    """Build the wait-for graph of one stuck Softbrain unit."""
    graph = WaitGraph()
    if cycle is None:
        cycle = sim.cycle
    referenced_ports: set = set()

    # -- control core --------------------------------------------------------
    if not sim.core.finished and not sim.dispatcher.can_enqueue():
        graph.add_node("core", "control core",
                       f"stalled at pc {sim.core.pc}")
        queue = sim.dispatcher.queue
        if queue:
            # Nothing enqueues behind a queued SD_Barrier_All: it is the tail.
            reason = ("SD_Barrier_All in queue"
                      if isinstance(queue[-1].command, SDBarrierAll)
                      else "dispatcher queue full")
            graph.add_edge("core", _cmd_node(graph, queue[0]), reason)

    # -- queued commands -----------------------------------------------------
    barrier_ahead = None
    for trace in sim.dispatcher.queue:
        command = trace.command
        node = _cmd_node(graph, trace)
        if barrier_ahead is not None:
            graph.add_edge(node, barrier_ahead, "queued behind barrier")
            continue
        if is_barrier(command):
            barrier_ahead = node
            _explain_barrier(graph, sim, node, command)
            continue
        if isinstance(command, SDConfig) and not sim.quiesced():
            _edges_to_active_work(graph, sim, node,
                                  "reconfiguration waits for quiesce")
            continue
        engine = sim.engines[command.engine] if command.engine != "dispatch" \
            else None
        if engine is not None and not engine.has_free_slot():
            eng_node = f"engine:{engine.name}"
            graph.add_node(eng_node, f"engine {engine.name}",
                           "stream table full")
            graph.add_edge(node, eng_node, f"{engine.name} table full")
            for stream in engine.streams:
                graph.add_edge(eng_node, _stream_node(graph, stream),
                               "table entry held")
            continue
        for kind, pid, role in trace.ports:
            if sim.dispatcher.busy_ports.get((kind, pid, role)):
                for holder in _stream_holders(sim, kind, pid, role):
                    if holder.command is command:
                        continue
                    graph.add_edge(
                        node, _stream_node(graph, holder),
                        f"port {kind}{pid} ({role}) held by earlier stream")

    # -- active streams ------------------------------------------------------
    for engine in sim.engines.values():
        stalled_by_fault = False
        if sim.faults is not None:
            stalled_by_fault = (
                sim.faults.stalled_until(engine.name) > cycle)
        for stream in engine.streams:
            node = _stream_node(graph, stream)
            if stalled_by_fault:
                eng_node = f"engine:{engine.name}"
                graph.add_node(eng_node, f"engine {engine.name}",
                               "frozen by injected engine.stall fault")
                graph.add_edge(node, eng_node, "engine frozen by fault")
                continue
            dest = stream.dest
            if dest is not None and dest.writers[0] is not stream:
                first = dest.writers[0]
                graph.add_edge(
                    node, _stream_node(graph, first),
                    f"waits for earlier writer #{first.trace.index} of port "
                    f"{dest.spec.name}")
                continue
            if stream.pending:
                if dest is not None and stream.pending[0][0] <= cycle:
                    if dest.free_words < len(stream.pending[0][1]):
                        kind, pid = dest.spec.kind, dest.spec.port_id
                        referenced_ports.add((kind, pid))
                        graph.add_edge(
                            node, _port_node(graph, kind, pid),
                            f"delivery blocked: port {dest.spec.name} full")
                        continue
            done = stream.issued_all and not stream.pending
            if done:
                continue
            for port, why in _stream_port_needs(stream):
                kind, pid = port.spec.kind, port.spec.port_id
                referenced_ports.add((kind, pid))
                graph.add_edge(node, _port_node(graph, kind, pid),
                               why.format(port.spec.name))

    # -- vector ports --------------------------------------------------------
    for kind, pid in sorted(referenced_ports):
        node = _port_node(graph, kind, pid)
        if sim.ports[kind, pid].occupancy == 0:
            _explain_empty_port(graph, sim, node, kind, pid)
        else:
            _explain_full_port(graph, sim, node, kind, pid)

    # -- CGRA ----------------------------------------------------------------
    if sim.cgra is not None:
        why = sim.cgra.can_fire()
        if why:
            graph.add_node("cgra", "cgra",
                           f"cannot fire ({why})")
            if why == "input":
                for name, width, port in sim.cgra.inputs:
                    if port.occupancy < width:
                        kind, pid = port.spec.kind, port.spec.port_id
                        pnode = _port_node(graph, kind, pid)
                        graph.add_edge("cgra", pnode,
                                       f"starved on {port.spec.name} "
                                       f"({port.occupancy}/{width} words)")
                        if (kind, pid) not in referenced_ports:
                            _explain_empty_port(graph, sim, pnode, kind, pid)
            else:
                for name, width, port in sim.cgra.outputs:
                    if port.free_words < width:
                        kind, pid = port.spec.kind, port.spec.port_id
                        pnode = _port_node(graph, kind, pid)
                        graph.add_edge("cgra", pnode,
                                       f"no room on {port.spec.name}")
                        if (kind, pid) not in referenced_ports:
                            _explain_full_port(graph, sim, pnode, kind, pid)
    return graph


def _explain_barrier(graph: WaitGraph, sim, node: str, command) -> None:
    """Why a barrier at the queue head has not released."""
    counter = command.scratch_counter
    if not counter:  # SD_Barrier_All
        _edges_to_active_work(graph, sim, node, "barrier waits for")
        return
    label = ("outstanding scratch read" if counter == "scratch_rd"
             else "outstanding scratch write")
    for engine in sim.engines.values():
        for stream in engine.streams:
            if stream.command.scratch_counter == counter:
                graph.add_edge(node, _stream_node(graph, stream), label)


def _edges_to_active_work(graph: WaitGraph, sim, node: str,
                          reason: str) -> None:
    for engine in sim.engines.values():
        for stream in engine.streams:
            graph.add_edge(node, _stream_node(graph, stream),
                           f"{reason} {stream.trace.label}")
    if sim.cgra is not None and sim.cgra.in_flight:
        graph.add_node("cgra", "cgra",
                       f"{sim.cgra.in_flight} instance(s) in flight")
        graph.add_edge(node, "cgra", f"{reason} in-flight instances")


def _explain_empty_port(graph: WaitGraph, sim, node: str, kind: str,
                        pid: int) -> None:
    """Who should be producing into an empty port?"""
    if kind == "out":
        # Output ports are written by the CGRA.
        if sim.cgra is not None:
            graph.add_node("cgra", "cgra", "")
            graph.add_edge(node, "cgra", "no output from fabric")
        else:
            graph.nodes[node]["detail"] = "no CGRA configured"
        return
    writers = _stream_holders(sim, kind, pid, role="w")
    for writer in writers:
        graph.add_edge(node, _stream_node(graph, writer),
                       "producer stream has not delivered")
    queued = [t for t in sim.dispatcher.queue if (kind, pid, "w") in t.ports]
    for trace in queued:
        graph.add_edge(node, _cmd_node(graph, trace),
                       "producer command still queued")
    if not writers and not queued:
        graph.nodes[node]["detail"] = "no stream writes this port"


def _explain_full_port(graph: WaitGraph, sim, node: str, kind: str,
                       pid: int) -> None:
    """Who should be draining a full port?"""
    if kind in ("in", "ind"):
        # Input ports are drained by the CGRA (in) or gather streams (ind).
        if kind == "in" and sim.cgra is not None:
            graph.add_node("cgra", "cgra", "")
            graph.add_edge(node, "cgra", "fabric not consuming")
            return
    readers = _stream_holders(sim, kind, pid, role="r")
    for reader in readers:
        graph.add_edge(node, _stream_node(graph, reader),
                       "consumer stream has not drained")
    queued = [t for t in sim.dispatcher.queue if (kind, pid, "r") in t.ports]
    for trace in queued:
        graph.add_edge(node, _cmd_node(graph, trace),
                       "consumer command still queued")
    if not readers and not queued and kind != "in":
        graph.nodes[node]["detail"] = "no stream drains this port"

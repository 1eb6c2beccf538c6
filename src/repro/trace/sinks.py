"""Trace sinks: where :class:`repro.trace.events.TraceEvent` records go.

All simulator instrumentation is guarded by ``sink.enabled`` so that the
default :class:`NullSink` costs one attribute test per would-be event and
*no* event object is ever constructed — the invariant the
``bench_trace_overhead`` micro-benchmark enforces.  The other sinks:

* :class:`ListSink` — in-memory capture, the natural input to
  :class:`repro.trace.metrics.MetricsRegistry` post-processing and tests.
* :class:`JsonlSink` — one JSON object per line, the stable on-disk format
  (schema in ``docs/TRACING.md``); streams, so arbitrarily long runs work.
* :class:`ChromeTraceSink` — Chrome ``chrome://tracing`` / Perfetto JSON,
  for interactive timeline inspection.
* :class:`TeeSink` — fan-out, e.g. metrics + file in one run.
* :class:`RingSink` — bounded last-N buffer; feeds the trace tail of a
  :class:`repro.resilience.FailureReport` crash dump.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, List, Optional, Tuple, Union

from .events import SHARED_UNIT, TraceEvent


class TraceSink:
    """Base protocol: ``emit`` events while ``enabled``, then ``close``."""

    #: instrumentation sites skip event construction when this is False
    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further ``emit`` calls are invalid."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """The disabled sink: zero overhead beyond one boolean test."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never hit
        pass


#: process-wide disabled sink; ``sink is NULL_SINK`` identifies "untraced"
NULL_SINK = NullSink()


class ListSink(TraceSink):
    """Collect events in memory (``sink.events``)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.emit = self.events.append  # type: ignore[assignment]


class RingSink(TraceSink):
    """Keep only the most recent ``capacity`` events (a flight recorder).

    Unbounded runs stay bounded-memory; on failure the retained tail is
    what :func:`repro.resilience.report.build_failure_report` embeds in
    the crash dump.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emit = self._ring.append  # type: ignore[assignment]

    def tail_events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)


class TeeSink(TraceSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = [s for s in sinks if s.enabled]
        self.enabled = bool(self.sinks)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def tail_events(self) -> List[TraceEvent]:
        """Delegate to the first member sink that keeps a tail."""
        for sink in self.sinks:
            tail = getattr(sink, "tail_events", None)
            if tail is not None:
                return tail()
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _open(destination: Union[str, IO[str]]) -> Tuple[IO[str], bool]:
    if isinstance(destination, str):
        return open(destination, "w"), True
    return destination, False


class JsonlSink(TraceSink):
    """Stream events as JSON Lines: one flat object per event.

    Key order is fixed (``kind, cycle, unit, component, data``) so the
    files diff and grep well; see ``docs/TRACING.md`` for the schema.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        self._stream, self._owns = _open(destination)

    def emit(self, event: TraceEvent) -> None:
        self._stream.write(json.dumps(event.to_json_dict()))
        self._stream.write("\n")

    def close(self) -> None:
        if self._owns:
            self._stream.close()
        else:
            self._stream.flush()


class ChromeTraceSink(TraceSink):
    """Export to the Chrome Trace Event JSON format (Perfetto-loadable).

    Mapping (1 simulated cycle = 1 µs of viewer time):

    * command dispatch→complete lifetimes become async spans (``b``/``e``)
      so overlapping commands each get their own lane;
    * ``engine.busy`` and ``cgra.fire`` become 1-cycle complete slices
      (``X``) on the per-engine / CGRA tracks;
    * ``barrier.wait`` becomes a complete slice covering the cycles the
      barrier blocked the queue head;
    * stalls, memory/scratchpad transactions and stream issue/drain
      actions become instants (``i``);
    * ``port.sample`` becomes counter tracks (``C``) — depth over time.

    Tracks: one *process* per Softbrain unit (plus a ``device (shared)``
    process for :data:`SHARED_UNIT` components), one *thread* per
    component.  Events are buffered and written on :meth:`close`, sorted
    by ``(pid, tid, ts)`` so every track's ``ts`` sequence is monotone —
    a property ``tests/test_trace.py`` asserts.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        self._stream, self._owns = _open(destination)
        self._rows: List[Dict[str, Any]] = []
        self._tids: Dict[Tuple[int, str], int] = {}
        #: (unit, command index) -> open async span name
        self._open_spans: Dict[Tuple[int, int], str] = {}
        self._closed = False

    # -- track bookkeeping ---------------------------------------------------

    @staticmethod
    def _pid(unit: int) -> int:
        return 0 if unit == SHARED_UNIT else unit + 1

    def _tid(self, unit: int, component: str) -> int:
        key = (unit, component)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
        return tid

    def _row(self, event: TraceEvent, ph: str, name: str,
             **extra: Any) -> Dict[str, Any]:
        row = {
            "name": name,
            "ph": ph,
            "ts": event.cycle,
            "pid": self._pid(event.unit),
            "tid": self._tid(event.unit, event.component),
            "cat": event.kind,
        }
        row.update(extra)
        return row

    # -- event translation ---------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        kind, data = event.kind, event.data
        if kind == "command.dispatch":
            name = f"{data['command']} #{data['index']}"
            key = (event.unit, data["index"])
            self._open_spans[key] = name
            self._rows.append(
                self._row(event, "b", name, id=data["index"], cat="command",
                          args={"engine": data["engine"],
                                "wait_cycles": data["wait_cycles"]})
            )
        elif kind == "command.complete":
            key = (event.unit, data["index"])
            name = self._open_spans.pop(key, f"{data['command']} #{data['index']}")
            self._rows.append(
                self._row(event, "e", name, id=data["index"], cat="command",
                          args={"latency": data["latency"]})
            )
        elif kind in ("engine.busy", "cgra.fire"):
            name = "busy" if kind == "engine.busy" else "fire"
            self._rows.append(self._row(event, "X", name, dur=1, args=data))
        elif kind == "barrier.wait":
            row = self._row(event, "X", kind, dur=data["cycles"], args=data)
            row["ts"] -= data["cycles"]  # the slice covers the blocked span
            self._rows.append(row)
        elif kind == "port.sample":
            self._rows.append(
                self._row(event, "C", f"port {data['port']} depth",
                          args={"occupancy": data["occupancy"],
                                "reserved": data["reserved"]})
            )
        else:  # stalls, waits, transactions, issue/drain, enqueue, config
            self._rows.append(
                self._row(event, "i", kind, s="t", args=data)
            )

    # -- output -------------------------------------------------------------------

    def _metadata_rows(self) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        pids = {self._pid(unit) for unit, _ in self._tids}
        for pid in pids:
            label = "device (shared)" if pid == 0 else f"softbrain unit {pid - 1}"
            rows.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": label}})
        for (unit, component), tid in self._tids.items():
            rows.append({"name": "thread_name", "ph": "M",
                         "pid": self._pid(unit), "tid": tid,
                         "args": {"name": component}})
        return rows

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._rows.sort(key=lambda r: (r["pid"], r["tid"], r["ts"]))
        document = {
            "traceEvents": self._metadata_rows() + self._rows,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.trace", "ts_unit": "cycle"},
        }
        json.dump(document, self._stream)
        if self._owns:
            self._stream.close()
        else:
            self._stream.flush()


def sink_for_path(path: str) -> TraceSink:
    """Pick a file sink from the extension: ``.jsonl`` streams JSON Lines,
    anything else (``.json``, ``.trace``, ...) writes a Chrome trace."""
    if path.endswith(".jsonl"):
        return JsonlSink(path)
    return ChromeTraceSink(path)

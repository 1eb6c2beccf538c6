"""Per-component metrics derived from the trace event stream.

:class:`MetricsRegistry` is itself a :class:`repro.trace.sinks.TraceSink`,
so it can sit directly on the simulator (optionally teed with a file sink)
or be replayed over a recorded event list with :meth:`MetricsRegistry.
from_events`.  It derives exactly the quantities the paper's analysis
needs and ``SimStats`` cannot provide:

* per-engine **occupancy/utilization series** — busy cycles per
  fixed-width window, i.e. Figure-4/6-style activity over time;
* **stall-cause breakdown** — CGRA input starvation vs output
  backpressure vs barrier waits, as totals and per window;
* **port-buffer depth over time** from the periodic ``port.sample``
  events;
* **command latency / queue-wait histograms** (power-of-two buckets);
* memory and scratchpad transaction totals.

Because the counters are derived from the same emission sites that feed
``SimStats``, :meth:`MetricsRegistry.reconcile` can check the two
accountings against each other *exactly* — the invariant
``tests/test_trace.py`` and the ``trace`` CLI subcommand enforce.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import TraceEvent
from .sinks import TraceSink

#: default utilization-series window, cycles
DEFAULT_WINDOW = 64


class Histogram:
    """Power-of-two-bucketed histogram of non-negative integers."""

    def __init__(self) -> None:
        self.buckets: Counter = Counter()
        self.count = 0
        self.total = 0
        self.max = 0

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.buckets[value.bit_length()] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            #: bucket b holds values in [2**(b-1), 2**b), bucket 0 holds 0
            "buckets": {
                str(b): n for b, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry(TraceSink):
    """Fold a trace event stream into per-component metrics.

    ``unit`` restricts consumption to one Softbrain unit (shared-device
    events are always kept); ``None`` aggregates the whole device — the
    right choice for single-unit runs and whole-device summaries.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 unit: Optional[int] = None) -> None:
        self.window = window
        self.unit = unit
        self.last_cycle = 0
        self.events_consumed = 0

        self.engine_busy: Counter = Counter()
        #: {component: {window index: busy cycles}}
        self.busy_series: Dict[str, Counter] = defaultdict(Counter)
        self.stall_causes: Counter = Counter()
        self.stall_series: Dict[str, Counter] = defaultdict(Counter)

        self.instances_fired = 0
        self.ops_executed = 0
        self.fu_activity: Counter = Counter()

        self.commands_enqueued = 0
        self.commands_dispatched = 0
        self.commands_completed = 0
        self.config_loads = 0
        self.queue_wait = Histogram()
        self.command_latency = Histogram()
        #: completed-command cycle totals per command label
        self.command_cycles: Counter = Counter()

        #: {port name: [(cycle, occupancy, reserved)]}
        self.port_depth: Dict[str, List[Tuple[int, int, int]]] = defaultdict(list)

        self.mem = Counter()      # reads/writes/hits/misses/bytes_*
        self.scratch = Counter()  # reads/writes/bytes_*
        self.stream_actions: Counter = Counter()  # issue/drain per engine

    # -- sink interface ---------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        if self.unit is not None and event.unit not in (self.unit, -1):
            return
        self.events_consumed += 1
        if event.cycle > self.last_cycle:
            self.last_cycle = event.cycle
        kind, data = event.kind, event.data

        if kind == "engine.busy":
            self.engine_busy[event.component] += 1
            self.busy_series[event.component][event.cycle // self.window] += 1
        elif kind == "cgra.fire":
            self.instances_fired += 1
            self.ops_executed += data["ops"]
            self.fu_activity.update(data["fu"])
            self.busy_series["cgra"][event.cycle // self.window] += 1
        elif kind == "cgra.stall":
            cause = f"cgra_{data['cause']}"
            self.stall_causes[cause] += 1
            self.stall_series[cause][event.cycle // self.window] += 1
        elif kind == "barrier.wait":
            # one event per barrier, at its release: spread the blocked
            # cycles over the windows they fell in
            end = event.cycle
            start = end - data["cycles"]
            self.stall_causes["barrier_wait"] += end - start
            series = self.stall_series["barrier_wait"]
            while start < end:
                window = start // self.window
                stop = min(end, (window + 1) * self.window)
                series[window] += stop - start
                start = stop
        elif kind == "command.enqueue":
            self.commands_enqueued += 1
        elif kind == "command.dispatch":
            if data["engine"] != "barrier":
                self.commands_dispatched += 1
            self.queue_wait.add(data["wait_cycles"])
        elif kind == "command.complete":
            self.commands_completed += 1
            self.command_latency.add(data["latency"])
            self.command_cycles[data["command"]] += data["latency"]
        elif kind == "config.apply":
            self.config_loads += 1
        elif kind == "port.sample":
            self.port_depth[data["port"]].append(
                (event.cycle, data["occupancy"], data["reserved"])
            )
        elif kind == "mem.access":
            self.mem["writes" if data["write"] else "reads"] += 1
            self.mem["hits" if data["hit"] else "misses"] += 1
            self.mem[
                "bytes_written" if data["write"] else "bytes_read"
            ] += data["bytes"]
        elif kind == "scratch.read":
            self.scratch["reads"] += 1
            self.scratch["bytes_read"] += data["bytes"]
        elif kind == "scratch.write":
            self.scratch["writes"] += 1
            self.scratch["bytes_written"] += data["bytes"]
        elif kind in ("stream.issue", "stream.drain"):
            self.stream_actions[f"{event.component}.{kind.split('.')[1]}"] += 1

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent],
                    window: int = DEFAULT_WINDOW,
                    unit: Optional[int] = None) -> "MetricsRegistry":
        """Replay a recorded event stream (e.g. a ListSink's capture)."""
        registry = cls(window=window, unit=unit)
        for event in events:
            registry.emit(event)
        return registry

    # -- derived views -----------------------------------------------------------

    def utilization(self, component: str, cycles: Optional[int] = None) -> float:
        """Busy fraction of ``component`` over the run (or ``cycles``)."""
        horizon = cycles if cycles else self.last_cycle + 1
        if not horizon:
            return 0.0
        if component == "cgra":
            return self.instances_fired / horizon
        return self.engine_busy.get(component, 0) / horizon

    def utilization_series(self, component: str) -> List[Tuple[int, float]]:
        """Per-window busy fraction: [(window start cycle, fraction)]."""
        series = self.busy_series.get(component, Counter())
        return [
            (index * self.window, busy / self.window)
            for index, busy in sorted(series.items())
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Everything derived, as plain JSON-serialisable data."""
        return {
            "window": self.window,
            "last_cycle": self.last_cycle,
            "events_consumed": self.events_consumed,
            "engine_busy": dict(self.engine_busy),
            "utilization": {
                name: self.utilization(name)
                for name in sorted(set(self.engine_busy) | {"cgra"})
            },
            "stall_causes": dict(self.stall_causes),
            "instances_fired": self.instances_fired,
            "ops_executed": self.ops_executed,
            "fu_activity": dict(self.fu_activity),
            "commands": {
                "enqueued": self.commands_enqueued,
                "dispatched": self.commands_dispatched,
                "completed": self.commands_completed,
                "config_loads": self.config_loads,
                "queue_wait": self.queue_wait.to_dict(),
                "latency": self.command_latency.to_dict(),
                "cycles_by_label": dict(self.command_cycles),
            },
            "memory": dict(self.mem),
            "scratchpad": dict(self.scratch),
            "stream_actions": dict(self.stream_actions),
            "port_depth_samples": {
                port: len(samples) for port, samples in self.port_depth.items()
            },
        }

    # -- reconciliation against SimStats --------------------------------------------

    def reconcile(self, stats) -> Dict[str, Tuple[Any, Any]]:
        """Compare event-derived totals with a ``SimStats``.

        Returns ``{}`` when every shared counter matches exactly;
        otherwise ``{counter: (from_events, from_stats)}`` for each
        mismatch.  Both accountings are incremented at the same program
        points, so any non-empty result is a simulator bug.
        """
        pairs = {
            "instances_fired": (self.instances_fired, stats.instances_fired),
            "ops_executed": (self.ops_executed, stats.ops_executed),
            "commands_issued": (self.commands_dispatched, stats.commands_issued),
            "config_loads": (self.config_loads, stats.config_loads),
            "cgra_stall_no_input": (
                self.stall_causes.get("cgra_no_input", 0),
                stats.cgra_stall_no_input,
            ),
            "cgra_stall_no_output_room": (
                self.stall_causes.get("cgra_no_output_room", 0),
                stats.cgra_stall_no_output_room,
            ),
            "fu_activity": (dict(self.fu_activity), stats.fu_activity),
            "engine_busy": (dict(self.engine_busy), stats.engine_busy),
        }
        return {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}

    def summary(self) -> str:
        """Human-readable per-component report for the CLI."""
        lines = [
            f"trace metrics over {self.last_cycle + 1} cycles "
            f"({self.events_consumed} events, window={self.window})",
            "  utilization:",
        ]
        for name in sorted(set(self.engine_busy) | {"cgra"}):
            lines.append(f"    {name:<10} {self.utilization(name):>7.1%}")
        if self.stall_causes:
            lines.append("  stall causes (cycles):")
            for cause, count in self.stall_causes.most_common():
                lines.append(f"    {cause:<26} {count}")
        commands = self.command_latency
        lines.append(
            f"  commands: {self.commands_enqueued} enqueued, "
            f"{self.commands_dispatched} dispatched to engines, "
            f"{self.commands_completed} completed"
        )
        lines.append(
            f"    queue wait mean {self.queue_wait.mean:.1f} "
            f"(max {self.queue_wait.max}); "
            f"latency mean {commands.mean:.1f} (max {commands.max})"
        )
        if self.mem:
            lines.append(
                f"  memory: {self.mem['reads']} reads / "
                f"{self.mem['writes']} writes, "
                f"{self.mem['hits']} hits / {self.mem['misses']} misses"
            )
        if self.scratch:
            lines.append(
                f"  scratchpad: {self.scratch['reads']} reads / "
                f"{self.scratch['writes']} writes"
            )
        if self.port_depth:
            peaks = {
                port: max(occ + res for _, occ, res in samples)
                for port, samples in sorted(self.port_depth.items())
            }
            lines.append(f"  port depth peaks (sampled): {peaks}")
        return "\n".join(lines)

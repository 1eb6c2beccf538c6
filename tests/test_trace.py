"""Tests for the observability layer: repro.trace + simulator wiring."""

import importlib.util
import io
import json
import pathlib
from collections import defaultdict

import pytest

from repro.sim import MemorySystem, softbrain
from repro.sim.stats import SimStats
from repro.trace import (
    EVENT_SCHEMAS,
    ChromeTraceSink,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    NULL_SINK,
    NullSink,
    SHARED_UNIT,
    TeeSink,
    TraceEvent,
    sink_for_path,
    validate_event,
)
from repro.workloads.common import run_and_verify, run_units_and_verify
from repro.workloads.machsuite import MACHSUITE


def _run(name="gemm", trace=None):
    built = MACHSUITE[name][0]()
    return run_and_verify(built, trace=trace)


@pytest.fixture(scope="module")
def gemm_capture():
    """One traced gemm run shared by the read-only assertions."""
    sink = ListSink()
    metrics = MetricsRegistry()
    result = _run("gemm", trace=TeeSink(sink, metrics))
    return sink.events, metrics, result


class TestNullSinkEquivalence:
    def test_cycle_identical_to_untraced(self):
        untraced = _run("gemm")
        traced = _run("gemm", trace=NullSink())
        assert traced.cycles == untraced.cycles
        assert traced.stats.to_dict() == untraced.stats.to_dict()

    def test_null_sink_emits_nothing(self):
        assert not NULL_SINK.enabled

    def test_untraced_runs_build_no_event(self, monkeypatch):
        # The sinks.py contract, counted exactly: with tracing off no
        # TraceEvent is ever constructed, not merely never emitted.
        built = []
        init = TraceEvent.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counted)
        _run("backprop")
        assert built == []
        _run("backprop", trace=NullSink())
        assert built == []
        sink = ListSink()
        _run("backprop", trace=sink)  # the counter sees a traced run
        assert len(built) == len(sink.events) > 0

    def test_enabled_trace_does_not_change_timing(self, gemm_capture):
        _, _, traced_result = gemm_capture
        assert traced_result.cycles == _run("gemm").cycles

    def test_traced_run_matches_untraced_stats_and_timeline(
            self, gemm_capture):
        _, _, traced = gemm_capture
        untraced = _run("gemm")
        assert traced.stats.to_dict() == untraced.stats.to_dict()
        assert vars(traced.memory.stats) == vars(untraced.memory.stats)
        assert vars(traced.scratchpad.stats) == vars(untraced.scratchpad.stats)
        assert (
            [(t.index, t.enqueued, t.dispatched, t.completed)
             for t in traced.timeline]
            == [(t.index, t.enqueued, t.dispatched, t.completed)
                for t in untraced.timeline]
        )


class TestBarrierWait:
    """One ``barrier.wait`` per barrier, carrying its blocked cycles."""

    @staticmethod
    def _copy_program():
        from repro.cgra import dnn_provisioned
        from repro.core.compiler import schedule
        from repro.core.dfg import parse_dfg
        from repro.core.isa import StreamProgram
        from repro.workloads.common import write_words

        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(16)))
        config = schedule(
            parse_dfg("input A\nx = pass A\noutput O x", "copy"), fabric)
        program = StreamProgram("barrier-wait", config)
        program.mem_port(0x1000, 128, 128, 1, "A")
        program.port_mem("O", 128, 128, 1, 0x8000)
        program.barrier_all()
        return program, fabric, memory

    def test_one_event_with_blocked_cycles(self):
        from repro.sim import run_program

        program, fabric, memory = self._copy_program()
        sink = ListSink()
        metrics = MetricsRegistry()
        result = run_program(program, fabric=fabric, memory=memory,
                             trace=TeeSink(sink, metrics))
        *_, before, barrier = result.timeline
        # The barrier reaches the queue head when it is enqueued or on the
        # cycle after the store stream ahead of it dispatched, whichever
        # is later; it blocks until SD_Barrier_All's condition holds.
        blocked = barrier.dispatched - max(barrier.enqueued,
                                           before.dispatched + 1)
        assert blocked > 0  # the store waits for the DRAM round trip
        waits = [e for e in sink.events if e.kind == "barrier.wait"]
        assert len(waits) == 1
        assert waits[0].data == {"index": barrier.index,
                                 "command": barrier.label,
                                 "cycles": blocked}
        assert waits[0].cycle == barrier.dispatched
        validate_event(waits[0])
        assert metrics.stall_causes["barrier_wait"] == blocked
        assert sum(metrics.stall_series["barrier_wait"].values()) == blocked


class TestEventStream:
    def test_all_events_validate_against_schema(self, gemm_capture):
        events, _, _ = gemm_capture
        for event in events:
            validate_event(event)

    def test_covers_most_of_the_vocabulary(self, gemm_capture):
        events, _, _ = gemm_capture
        kinds = {e.kind for e in events}
        # gemm exercises everything except the scratchpad and indirect
        # paths; scratch workloads are covered by the stencil test below.
        for kind in ("command.enqueue", "command.dispatch",
                     "command.complete", "barrier.wait", "stream.issue",
                     "stream.drain", "engine.busy", "cgra.fire",
                     "cgra.stall", "port.sample", "mem.access",
                     "config.apply"):
            assert kind in kinds, kind

    def test_scratch_events_on_scratch_workload(self):
        # MachSuite kernels stream straight from memory; the DNN layers
        # are the scratchpad users (weights resident per Section 6.1).
        from repro.workloads.dnn import build_dnn_layer

        sink = ListSink()
        run_and_verify(build_dnn_layer("class1p", unit_id=0, num_units=1),
                       trace=sink)
        kinds = {e.kind for e in sink.events}
        assert "scratch.read" in kinds and "scratch.write" in kinds
        for event in sink.events:
            validate_event(event)

    def test_lifetimes_match_timeline(self, gemm_capture):
        events, _, result = gemm_capture
        dispatched = {
            e.data["index"]: e.cycle
            for e in events if e.kind == "command.dispatch"
        }
        completed = {
            e.data["index"]: e.cycle
            for e in events if e.kind == "command.complete"
        }
        for trace in result.timeline:
            assert dispatched[trace.index] == trace.dispatched
            assert completed[trace.index] == trace.completed

    def test_validate_rejects_unknown_kind_and_bad_fields(self):
        with pytest.raises(ValueError):
            validate_event(TraceEvent("no.such", 0, 0, "x", {}))
        with pytest.raises(ValueError):
            validate_event(TraceEvent("cgra.stall", 0, 0, "cgra", {}))


class TestReconciliation:
    def test_stall_and_utilization_totals_match_simstats(self, gemm_capture):
        _, metrics, result = gemm_capture
        assert metrics.reconcile(result.stats) == {}
        stats = result.stats
        assert metrics.stall_causes["cgra_no_input"] == stats.cgra_stall_no_input
        assert (metrics.stall_causes["cgra_no_output_room"]
                == stats.cgra_stall_no_output_room)
        assert dict(metrics.engine_busy) == stats.engine_busy

    @pytest.mark.parametrize("name", ["spmv-crs", "viterbi"])
    def test_reconciles_on_more_workloads(self, name):
        metrics = MetricsRegistry()
        result = _run(name, trace=metrics)
        assert metrics.reconcile(result.stats) == {}

    def test_reconcile_reports_mismatches(self, gemm_capture):
        _, metrics, result = gemm_capture
        broken = SimStats()
        mismatches = metrics.reconcile(broken)
        assert "instances_fired" in mismatches

    def test_simstats_from_events(self, gemm_capture):
        events, _, result = gemm_capture
        replayed = MetricsRegistry.from_events(events)
        assert replayed.reconcile(result.stats) == {}
        assert replayed.last_cycle <= result.stats.cycles

    def test_memory_totals_match(self, gemm_capture):
        _, metrics, result = gemm_capture
        assert metrics.mem["reads"] == result.memory.stats.reads
        assert metrics.mem["writes"] == result.memory.stats.writes
        assert metrics.mem["hits"] == result.memory.stats.hits
        assert metrics.mem["misses"] == result.memory.stats.misses


class TestMetricsViews:
    def test_utilization_series_bounded(self, gemm_capture):
        _, metrics, _ = gemm_capture
        series = metrics.utilization_series("rse")
        assert series, "rse should have busy windows on gemm"
        assert all(0.0 < frac <= 1.0 for _, frac in series)

    def test_port_depth_sampled(self, gemm_capture):
        _, metrics, _ = gemm_capture
        assert metrics.port_depth, "expected port.sample events"
        for samples in metrics.port_depth.values():
            cycles = [c for c, _, _ in samples]
            assert cycles == sorted(cycles)

    def test_to_dict_is_json_serialisable(self, gemm_capture):
        _, metrics, _ = gemm_capture
        text = json.dumps(metrics.to_dict())
        assert "stall_causes" in text

    def test_sample_interval_param(self, monkeypatch):
        dense = ListSink()
        monkeypatch.setattr(softbrain, "PORT_SAMPLE_INTERVAL", 8)
        _run("backprop", trace=dense)
        sparse = ListSink()
        monkeypatch.setattr(softbrain, "PORT_SAMPLE_INTERVAL", 512)
        _run("backprop", trace=sparse)
        count = lambda s: sum(e.kind == "port.sample" for e in s.events)
        assert count(dense) > count(sparse)


class TestChromeTraceSink:
    def test_valid_json_with_monotone_ts_per_track(self, tmp_path,
                                                   gemm_capture):
        events, _, _ = gemm_capture
        path = tmp_path / "gemm.json"
        with ChromeTraceSink(str(path)) as sink:
            for event in events:
                sink.emit(event)
        document = json.loads(path.read_text())
        rows = document["traceEvents"]
        assert rows
        tracks = defaultdict(list)
        for row in rows:
            assert {"name", "ph", "pid", "tid"} <= set(row)
            if row["ph"] != "M":
                tracks[(row["pid"], row["tid"])].append(row["ts"])
        for ts_list in tracks.values():
            assert all(a <= b for a, b in zip(ts_list, ts_list[1:]))

    def test_async_spans_pair_up(self, gemm_capture):
        events, _, _ = gemm_capture
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        for event in events:
            sink.emit(event)
        sink.close()
        rows = json.loads(stream.getvalue())["traceEvents"]
        begins = sum(r["ph"] == "b" for r in rows)
        ends = sum(r["ph"] == "e" for r in rows)
        assert begins == ends > 0

    def test_metadata_names_processes_and_threads(self, gemm_capture):
        events, _, _ = gemm_capture
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        for event in events:
            sink.emit(event)
        sink.close()
        rows = json.loads(stream.getvalue())["traceEvents"]
        names = {r["args"]["name"] for r in rows if r["ph"] == "M"}
        assert "softbrain unit 0" in names
        assert "dispatcher" in names and "cgra" in names


class TestJsonlSink:
    def test_one_valid_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        _run("backprop", trace=sink)
        sink.close()
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert list(record)[:4] == ["kind", "cycle", "unit", "component"]
            assert record["kind"] in EVENT_SCHEMAS

    def test_sink_for_path_picks_format(self, tmp_path):
        assert isinstance(sink_for_path(str(tmp_path / "a.jsonl")), JsonlSink)
        assert isinstance(sink_for_path(str(tmp_path / "a.json")),
                          ChromeTraceSink)


class TestMultiUnitTracing:
    def test_units_tagged_and_memory_shared(self):
        from repro.workloads.dnn import build_dnn_layer

        units = 2
        sink = ListSink()
        result = run_units_and_verify(
            [build_dnn_layer("pool1p", unit_id=i, num_units=units)
             for i in range(units)],
            trace=sink)
        unit_tags = {e.unit for e in sink.events}
        assert {0, 1} <= unit_tags
        assert {e.unit for e in sink.events if e.kind == "mem.access"} == \
            {SHARED_UNIT}
        for index, unit_result in enumerate(result.unit_results):
            metrics = MetricsRegistry.from_events(sink.events, unit=index)
            assert metrics.reconcile(unit_result.stats) == {}


class TestCli:
    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        assert main(["trace", "backprop", "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "reconcile exactly" in printed
        assert json.loads(out.read_text())["traceEvents"]

    def test_trace_schema_flag(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "--schema"]) == 0
        out = capsys.readouterr().out
        for kind in EVENT_SCHEMAS:
            assert kind in out

    def test_run_trace_out_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main(["run", "backprop", "--trace-out", str(out)]) == 0
        assert "trace written" in capsys.readouterr().out
        assert out.read_text().splitlines()


class TestOverheadSmoke:
    """Reduced-repetition version of benchmarks/bench_trace_overhead.py."""

    @staticmethod
    def _load_bench():
        path = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "bench_trace_overhead.py")
        spec = importlib.util.spec_from_file_location("bench_trace", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_null_sink_overhead_smoke(self):
        bench = self._load_bench()
        result = bench.measure_null_sink_overhead("backprop", repeats=2)
        assert result["cycles_match"]
        # Loose bound for the tier-1 suite (CI timing noise); the strict
        # 5% assertion lives in the benchmark itself.
        assert result["overhead"] < 0.5

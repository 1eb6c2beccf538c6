"""Tests for the command-line interface and the statistics/timeline module."""

import pytest

import repro.__main__
from repro.__main__ import main
from repro.core.isa import SDBarrierAll, SDMemPort, Affine2D, in_port
from repro.sim.stats import CommandTrace, SimStats, Timeline, render_timeline


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "class1p" in out
        assert "gemm" in out

    def test_run_machsuite(self, capsys):
        assert main(["run", "backprop"]) == 0
        out = capsys.readouterr().out
        assert "verified OK" in out
        assert "cycles" in out

    def test_run_dnn_with_units(self, capsys):
        # --units runs the simulated device: every unit verified, and the
        # device cycles are those of the device entry the figures use.
        from repro.workloads.common import run_units_and_verify
        from repro.workloads.dnn import build_dnn_layer

        assert main(["run", "pool1p", "--units", "8"]) == 0
        out = capsys.readouterr().out
        assert "verified OK on 8 units" in out
        device = run_units_and_verify(
            [build_dnn_layer("pool1p", unit_id=u, num_units=8)
             for u in range(8)])
        finish = [result.cycles for result in device.unit_results]
        assert (f"  cycles:            {device.cycles} "
                f"(units finish {min(finish)}-{max(finish)})\n") in out
        assert f"  instances fired:   {device.total_instances}\n" in out

    def test_trace_dnn_with_units(self, capsys):
        # Each unit reconciles on its own events, and its utilization is
        # its own: conv1p's 8 engines summed would read over 100%.
        assert main(["trace", "conv1p", "--units", "8"]) == 0
        out = capsys.readouterr().out
        assert "verified OK on 8 units" in out
        for unit in range(8):
            assert (f"unit {unit}: event-derived totals reconcile exactly"
                    in out)
        shares = [float(line.split()[-1].rstrip("%"))
                  for line in out.splitlines() if line.endswith("%")]
        assert shares and max(shares) <= 100.0

    @pytest.mark.parametrize("argv", [["gemm", "--units", "2"],
                                      ["pool1p", "--units", "0"]],
                             ids=["machsuite", "zero"])
    def test_run_units_rejected(self, argv):
        with pytest.raises(SystemExit, match="--units"):
            main(["run", *argv])

    def test_run_with_power(self, capsys):
        assert main(["run", "backprop", "--power"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Stream-Dataflow" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "DianNao" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "backprop"]) == 0
        assert "SD_" in capsys.readouterr().out

    USAGE = [line.split("#")[0].split()[3:]
             for line in repro.__main__.__doc__.splitlines()
             if line.strip().startswith("python -m repro ")]

    @pytest.mark.parametrize("words", USAGE, ids="_".join)
    def test_usage_line(self, words, capsys):
        """Each ``python -m repro ...`` line of the usage docstring names
        real subcommands and a workload that ``list`` prints."""
        main(["list"])
        listed = {line.split()[0]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  ")}
        for command in words[0].split("|"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0, command
        if len(words) > 1 and not words[1].startswith("-"):
            assert words[1] in listed


class TestSimStats:
    def test_note_firing_accumulates(self):
        stats = SimStats()
        stats.note_firing(5, {"mul": 2, "alu": 3})
        stats.note_firing(5, {"mul": 2, "alu": 3})
        assert stats.instances_fired == 2
        assert stats.ops_executed == 10
        assert stats.fu_activity == {"mul": 4, "alu": 6}

    def test_derived_rates(self):
        stats = SimStats()
        stats.note_firing(4, {})
        stats.cycles = 8
        assert stats.ops_per_cycle == 0.5
        assert stats.cgra_utilization == 0.125

    def test_rates_with_zero_cycles(self):
        stats = SimStats()
        assert stats.ops_per_cycle == 0.0
        assert stats.cgra_utilization == 0.0


class TestTimeline:
    def _command(self):
        return SDMemPort(Affine2D(0, 8, 8, 1), in_port(0))

    def test_traces_indexed_in_order(self):
        timeline = Timeline()
        t0 = timeline.note_enqueue(self._command(), 0)
        t1 = timeline.note_enqueue(SDBarrierAll(), 5)
        assert (t0.index, t1.index) == (0, 1)
        assert len(timeline) == 2

    def test_label_format(self):
        timeline = Timeline()
        trace = timeline.note_enqueue(self._command(), 0)
        assert trace.label == "SD_MemPort"

    def test_render_empty(self):
        assert "empty" in render_timeline(Timeline())

    def test_render_marks_lifecycle(self):
        timeline = Timeline()
        trace = timeline.note_enqueue(self._command(), 0)
        trace.dispatched = 10
        trace.completed = 20
        text = render_timeline(timeline, width=40)
        row = text.splitlines()[1]
        assert "q" in row and "=" in row and "#" in row

    def test_render_scales_long_runs(self):
        timeline = Timeline()
        trace = timeline.note_enqueue(self._command(), 0)
        trace.dispatched = 0
        trace.completed = 10_000
        text = render_timeline(timeline, width=50)
        assert "cycles/char" in text.splitlines()[0]
        assert all(len(line) < 120 for line in text.splitlines())

    def test_incomplete_trace_renders(self):
        timeline = Timeline()
        timeline.note_enqueue(self._command(), 3)  # never dispatched
        text = render_timeline(timeline)
        assert "SD_MemPort" in text

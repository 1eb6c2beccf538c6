"""Integration tests: complete stream programs on the cycle-level simulator.

Each test builds a small program exercising one architectural mechanism —
affine streams, constants, cleans, recurrences, indirect gather/scatter,
scratchpad staging, barriers, reconfiguration — and checks both functional
results and basic timing sanity.
"""

from collections import Counter

import pytest

from repro.cgra import broadly_provisioned, dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import DfgBuilder, parse_dfg
from repro.core.isa import StreamProgram
from repro.sim import (
    MemorySystem,
    SimulationDeadlock,
    SimulationLimit,
    SoftbrainParams,
    SoftbrainSim,
    run_program,
    render_timeline,
)
from repro.trace import ListSink, MetricsRegistry
from repro.workloads.common import read_words, write_words


def passthrough_config(fabric):
    dfg = parse_dfg("input A\nx = pass A\noutput O x", "copy")
    return schedule(dfg, fabric)


def adder_config(fabric):
    dfg = parse_dfg("input A\ninput B\nx = add A B\noutput O x", "adder")
    return schedule(dfg, fabric)


class TestBasicStreams:
    def test_memory_copy_through_fabric(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        data = list(range(100, 132))
        write_words(memory, 0x1000, data)
        program = StreamProgram("copy", passthrough_config(fabric))
        program.mem_port(0x1000, 256, 256, 1, "A")
        program.port_mem("O", 256, 256, 1, 0x8000)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x8000, 32) == data
        assert result.stats.instances_fired == 32

    def test_constant_stream_and_add(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [1, 2, 3, 4])
        program = StreamProgram("addk", adder_config(fabric))
        program.mem_port(0, 32, 32, 1, "A")
        program.const_port(1000, 4, "B")
        program.port_mem("O", 32, 32, 1, 0x100)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x100, 4) == [1001, 1002, 1003, 1004]

    def test_strided_read(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(16)))
        program = StreamProgram("stride", passthrough_config(fabric))
        # every fourth word
        program.mem_port(0, 32, 8, 4, "A")
        program.port_mem("O", 32, 32, 1, 0x200)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x200, 4) == [0, 4, 8, 12]

    def test_repeating_read(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [7])
        program = StreamProgram("repeat", passthrough_config(fabric))
        program.mem_port(0, 0, 8, 5, "A")
        program.port_mem("O", 40, 40, 1, 0x200)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x200, 5) == [7] * 5

    def test_narrow_elements_sign_extended(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [-1, -2, 3, 4], elem_bytes=2)
        program = StreamProgram("narrow", passthrough_config(fabric))
        program.mem_port(0, 8, 8, 1, "A", elem_bytes=2, signed=True)
        program.port_mem("O", 32, 32, 1, 0x200)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x200, 4) == [-1, -2, 3, 4]

    def test_narrow_store_truncates(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [0x1_0005])
        program = StreamProgram("trunc", passthrough_config(fabric))
        program.mem_port(0, 8, 8, 1, "A")
        program.port_mem("O", 2, 2, 1, 0x200, elem_bytes=2)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x200, 1, elem_bytes=2) == [5]


class TestCleanAndAccumulate:
    def test_clean_discards_intermediates(self):
        fabric = dnn_provisioned()
        b = DfgBuilder("accsum")
        a = b.input("A", 1)
        r = b.input("R", 1)
        b.output("C", b.accumulate(a[0], r[0]))
        config = schedule(b.build(), fabric)
        memory = MemorySystem()
        write_words(memory, 0, [1, 2, 3, 4, 5, 6, 7, 8])
        program = StreamProgram("accsum", config)
        program.mem_port(0, 64, 64, 1, "A")
        program.const_port(0, 7, "R")
        program.const_port(1, 1, "R")
        program.clean_port(7, "C")
        program.port_mem("C", 8, 8, 1, 0x300)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x300, 1) == [36]


class TestRecurrence:
    def test_port_port_running_sum(self):
        # y[i] = y[i-1] + x[i] via an explicit recurrence stream.  The sum
        # leaves through two output ports: one to memory, one recirculated
        # (each port word is consumed exactly once).
        fabric = dnn_provisioned()
        dfg = parse_dfg(
            "input A\ninput B\nx = add A B\noutput O x\noutput Y x",
            "prefix",
        )
        config = schedule(dfg, fabric)
        memory = MemorySystem()
        n = 8
        write_words(memory, 0, [10] * n)
        program = StreamProgram("prefix", config)
        program.const_port(0, 1, "B")  # seed y[-1] = 0
        program.mem_port(0, n * 8, n * 8, 1, "A")
        program.port_port("Y", n - 1, "B")  # feed sums back
        program.clean_port(1, "Y")  # final sum is not recirculated
        program.port_mem("O", 8, 8, n, 0x400)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x400, n) == [10 * (i + 1) for i in range(n)]


class TestIndirect:
    def test_gather(self):
        fabric = broadly_provisioned()
        memory = MemorySystem()
        table = [v * 11 for v in range(32)]
        indices = [5, 3, 30, 0, 7, 7, 2, 31]
        write_words(memory, 0x1000, table)
        write_words(memory, 0x2000, indices)
        program = StreamProgram("gather", passthrough_config(fabric))
        program.mem_to_indirect(0x2000, len(indices), 0)
        program.ind_port_port(0, 0x1000, "A", len(indices))
        program.port_mem("O", 64, 64, 1, 0x3000)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x3000, 8) == [table[i] for i in indices]

    def test_scatter(self):
        fabric = broadly_provisioned()
        memory = MemorySystem()
        values = [100, 200, 300, 400]
        indices = [9, 1, 4, 0]
        write_words(memory, 0x1000, values)
        write_words(memory, 0x2000, indices)
        program = StreamProgram("scatter", passthrough_config(fabric))
        program.mem_port(0x1000, 32, 32, 1, "A")
        program.mem_to_indirect(0x2000, 4, 0)
        program.ind_port_mem(0, "O", 0x3000, 4)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        out = read_words(memory, 0x3000, 10)
        assert out[9] == 100 and out[1] == 200 and out[4] == 300 and out[0] == 400

    def test_chained_indirection(self):
        # a[b[c[i]]]: two levels of gather through indirect ports
        fabric = broadly_provisioned()
        memory = MemorySystem()
        a = [1000 + i for i in range(16)]
        b = [3, 1, 4, 1, 5, 9, 2, 6]
        c = [7, 0, 2]
        write_words(memory, 0x1000, a)
        write_words(memory, 0x2000, b)
        write_words(memory, 0x3000, c)
        program = StreamProgram("chain", passthrough_config(fabric))
        program.mem_to_indirect(0x3000, 3, 0)
        # gather b[c[i]] into a second indirect port
        from repro.core.isa import ind_port

        program.ind_port_port(0, 0x2000, ind_port(1), 3)
        program.ind_port_port(1, 0x1000, "A", 3)
        program.port_mem("O", 24, 24, 1, 0x4000)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x4000, 3) == [a[b[ci]] for ci in c]


class TestScratchpad:
    def test_stage_and_reuse(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [5, 6, 7, 8])
        program = StreamProgram("scratch", passthrough_config(fabric))
        program.mem_scratch(0, 32, 32, 1, 64)
        program.barrier_scratch_wr()
        # read it back twice (zero-stride repeating reuse)
        program.scratch_port(64, 0, 32, 2, "A")
        program.port_mem("O", 64, 64, 1, 0x500)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x500, 8) == [5, 6, 7, 8, 5, 6, 7, 8]

    def test_port_to_scratch_and_back(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [3, 1, 4, 1])
        program = StreamProgram("bounce", passthrough_config(fabric))
        program.mem_port(0, 32, 32, 1, "A")
        program.port_scratch("O", 4, 128)
        program.barrier_scratch_wr()
        program.scratch_port(128, 32, 32, 1, "A")
        program.port_mem("O", 32, 32, 1, 0x600)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x600, 4) == [3, 1, 4, 1]


class TestReconfiguration:
    def test_two_phases_two_configs(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [10, 20, 30, 40])
        copy_config = passthrough_config(fabric)
        double_dfg = parse_dfg("input A\nx = add A A\noutput O x", "double")
        double_config = schedule(double_dfg, fabric)

        program = StreamProgram("phases", copy_config)
        program.mem_port(0, 32, 32, 1, "A")
        program.port_mem("O", 32, 32, 1, 0x700)
        program.barrier_all()
        program.config(double_config)
        program.mem_port(0x700, 32, 32, 1, "A")
        program.port_mem("O", 32, 32, 1, 0x800)
        program.barrier_all()
        registry = MetricsRegistry()
        result = run_program(program, fabric=fabric, memory=memory,
                             trace=registry)
        assert read_words(memory, 0x800, 4) == [20, 40, 60, 80]
        assert result.stats.config_loads == 2
        # Each executor's FU activity is folded into the stats when the
        # next configuration replaces it and when the run ends.
        assert registry.reconcile(result.stats) == {}
        expected = Counter()
        for config in (copy_config, double_config):
            for coord in config.placement.values():
                expected[fabric.pes[coord].fu.name] += 4  # 4 instances
        assert result.stats.fu_activity == dict(expected)


class TestTimingSanity:
    def test_pipelining_beats_serial(self):
        # n instances at II=1 must take far less than n * latency
        fabric = dnn_provisioned()
        memory = MemorySystem()
        n = 64
        write_words(memory, 0, list(range(n)))
        memory.warm(0, n * 8)
        program = StreamProgram("pipeline", passthrough_config(fabric))
        program.mem_port(0, n * 8, n * 8, 1, "A")
        program.port_mem("O", n * 8, n * 8, 1, 0x900)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        config = program.config_images[next(iter(program.config_images))]
        assert result.cycles < n * config.latency / 2

    def test_timeline_records_lifecycle(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [1])
        program = StreamProgram("tl", passthrough_config(fabric))
        program.mem_port(0, 8, 8, 1, "A")
        program.port_mem("O", 8, 8, 1, 0x100)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        for trace in result.timeline:
            assert trace.dispatched is not None
            assert trace.completed is not None
            assert trace.enqueued <= trace.dispatched <= trace.completed
        text = render_timeline(result.timeline)
        assert "SD_MemPort" in text

    def test_cycle_limit_enforced(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(64)))
        program = StreamProgram("lim", passthrough_config(fabric))
        program.mem_port(0, 512, 512, 1, "A")
        program.port_mem("O", 512, 512, 1, 0x100)
        program.barrier_all()
        from repro.sim import SimulationLimit

        with pytest.raises(SimulationLimit):
            run_program(
                program,
                fabric=fabric,
                memory=memory,
                params=SoftbrainParams(max_cycles=10),
            )

    def test_cycle_limit_mid_run_folds_fu_activity(self):
        # The 64 instances fire in cycles 185-251; stopping at 200 leaves
        # the failure path to fold the FU activity counted so far.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(64)))
        program = StreamProgram("lim-mid", passthrough_config(fabric))
        program.mem_port(0, 512, 512, 1, "A")
        program.port_mem("O", 512, 512, 1, 0x100)
        program.barrier_all()
        sink = ListSink()
        sim = SoftbrainSim(program, fabric=fabric, memory=memory,
                           params=SoftbrainParams(max_cycles=200),
                           trace=sink)
        with pytest.raises(SimulationLimit):
            sim.run()
        assert 0 < sim.stats.instances_fired < 64
        assert (MetricsRegistry.from_events(sink.events).fu_activity
                == sim.stats.fu_activity)
        assert sum(sim.stats.fu_activity.values()) == sim.stats.ops_executed


class TestRunLifetime:
    def test_finished_run_leaves_no_cyclic_garbage(self):
        # run_program breaks the sim <-> component cycles, so a run's
        # program, memory and stream state die with their last reference.
        import gc

        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(32)))
        program = StreamProgram("lifetime", passthrough_config(fabric))
        program.mem_port(0, 256, 256, 1, "A")
        program.port_mem("O", 256, 256, 1, 0x800)
        program.barrier_all()
        gc.collect()
        gc.disable()
        try:
            result = run_program(program, fabric=fabric, memory=memory)
            assert result.stats.instances_fired == 32
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDeadlockDetection:
    def test_starved_port_reports_deadlock(self):
        # A stream feeds port A but the adder also needs port B, which
        # nothing feeds: the simulator must diagnose rather than hang.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [1, 2])
        program = StreamProgram("stuck", adder_config(fabric))
        program.mem_port(0, 16, 16, 1, "A")
        program.port_mem("O", 16, 16, 1, 0x100)
        program.barrier_all()
        with pytest.raises(SimulationDeadlock, match="deadlock"):
            run_program(program, fabric=fabric, memory=memory)

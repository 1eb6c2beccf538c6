"""Targeted tests for the microarchitectural mechanisms of Section 4.

Each test isolates one mechanism — scratch barriers, the balance unit,
all-requests-in-flight, indirect-AGU coalescing — and checks both its
functional effect and its performance signature.
"""

import pytest

from repro.cgra import broadly_provisioned, dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.core.isa.interpreter import interpret_program
from repro.sim import MemorySystem, SoftbrainParams, run_program
from repro.trace import ListSink
from repro.workloads.common import read_words, write_words


def passthrough(fabric):
    return schedule(parse_dfg("input A\nx = pass A\noutput O x", "copy"), fabric)


class TestScratchBarriers:
    def test_write_barrier_orders_read_after_write(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [11, 22])
        program = StreamProgram("wr-then-rd", passthrough(fabric))
        program.mem_scratch(0, 16, 16, 1, 0)
        program.barrier_scratch_wr()
        program.scratch_port(0, 16, 16, 1, "A")
        program.port_mem("O", 16, 16, 1, 0x100)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x100, 2) == [11, 22]

    def test_read_barrier_orders_overwrite(self):
        # read old contents, barrier, overwrite, barrier, read new contents
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [1, 2])
        write_words(memory, 0x40, [3, 4])
        program = StreamProgram("rd-then-wr", passthrough(fabric))
        program.mem_scratch(0, 16, 16, 1, 0)
        program.barrier_scratch_wr()
        program.scratch_port(0, 16, 16, 1, "A")
        program.barrier_scratch_rd()  # overwrite must wait for this read
        program.mem_scratch(0x40, 16, 16, 1, 0)
        program.barrier_scratch_wr()
        program.scratch_port(0, 16, 16, 1, "A")
        program.port_mem("O", 32, 32, 1, 0x100)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x100, 4) == [1, 2, 3, 4]


class TestIndirectCoalescing:
    def _gather(self, indices, **mem_kwargs):
        fabric = broadly_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(0, 2048, 1)))
        write_words(memory, 0x8000, indices)
        memory.warm(0x1000, 2048 * 8)
        memory.warm(0x8000, len(indices) * 8)
        program = StreamProgram("g", passthrough(fabric))
        program.mem_to_indirect(0x8000, len(indices), 0)
        program.ind_port_port(0, 0x1000, "A", len(indices))
        program.port_mem("O", len(indices) * 8, len(indices) * 8, 1, 0x20000)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        got = read_words(memory, 0x20000, len(indices))
        assert got == [i for i in indices]
        return result

    def test_sequential_indices_coalesce(self):
        seq = self._gather(list(range(32)))
        scattered = self._gather([(i * 67) % 1024 for i in range(32)])
        # sequential gathers need fewer memory reads than scattered ones
        assert seq.memory.stats.reads < scattered.memory.stats.reads


class TestBalanceUnit:
    def test_unbalanced_ports_both_served(self):
        # Two input streams of very different shapes must both complete:
        # one strided (slow, many lines), one linear (fast).
        fabric = dnn_provisioned()
        dfg = parse_dfg(
            "input A\ninput B\nx = add A B\noutput O x", "adder"
        )
        config = schedule(dfg, fabric)
        memory = MemorySystem()
        n = 32
        write_words(memory, 0, list(range(4096)))
        program = StreamProgram("bal", config)
        program.mem_port(0, n * 8, n * 8, 1, "A")  # linear
        program.mem_port(0, 512, 8, n, "B")  # strided: line per element
        program.port_mem("O", n * 8, n * 8, 1, 0x10000)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        assert result.stats.instances_fired == n

    def test_ablation_flags_accepted(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [5])
        program = StreamProgram("flags", passthrough(fabric))
        program.mem_port(0, 8, 8, 1, "A")
        program.port_mem("O", 8, 8, 1, 0x100)
        program.barrier_all()
        result = run_program(
            program,
            fabric=fabric,
            memory=memory,
            params=SoftbrainParams(
                balance_unit=False, all_requests_in_flight=False
            ),
        )
        assert read_words(memory, 0x100, 1) == [5]


class TestAllRequestsInFlight:
    def _back_to_back(self, enabled):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(256)))
        memory.warm(0, 2048)
        program = StreamProgram("b2b", passthrough(fabric))
        # 16 short same-port streams back to back
        for i in range(16):
            program.mem_port(i * 128, 128, 128, 1, "A")
        program.port_mem("O", 2048, 2048, 1, 0x10000)
        program.barrier_all()
        result = run_program(
            program,
            fabric=fabric,
            memory=memory,
            params=SoftbrainParams(all_requests_in_flight=enabled),
        )
        assert read_words(memory, 0x10000, 256) == list(range(256))
        return result.cycles

    def test_overlap_helps_back_to_back_streams(self):
        assert self._back_to_back(True) < self._back_to_back(False)

    def test_next_same_port_stream_dispatches_cycle_after_release(self):
        # The memory stream's one request issues in cycle t; the engine
        # releases the port at t + 1 and that release counts as progress,
        # so the dispatcher issues the next same-port stream at t + 2
        # rather than when the cold read returns.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x10000, [100, 101])
        program = StreamProgram("release", passthrough(fabric))
        # Dispatched first, so nothing else progresses at t + 1.
        program.port_mem("O", 32, 32, 1, 0x30000)
        program.mem_port(0x10000, 16, 16, 1, "A")
        program.const_port(1, 2, "A")
        program.barrier_all()
        sink = ListSink()
        result = run_program(program, fabric=fabric, memory=memory,
                             trace=sink)
        traces = {t.label: t for t in result.timeline}
        mem_stream, const_stream = traces["SD_MemPort"], traces["SD_ConstPort"]
        issued = [e.cycle for e in sink.events if e.kind == "stream.issue"
                  and e.data["index"] == mem_stream.index]
        assert len(issued) == 1
        assert const_stream.dispatched == issued[0] + 2
        assert const_stream.dispatched < mem_stream.completed
        assert read_words(memory, 0x30000, 4) == [100, 101, 1, 1]

    @pytest.mark.parametrize("second", ["scratch", "const"])
    def test_port_write_order_holds_across_engines(self, second):
        # A cold SD_Mem_Port releases port A early while its data is still
        # in flight; a later same-port stream on another engine must not
        # deliver ahead of it.
        fabric = dnn_provisioned()
        program = StreamProgram("cross-engine", passthrough(fabric))
        if second == "scratch":
            program.mem_scratch(0x20000, 16, 16, 1, 0)
            program.barrier_scratch_wr()
        program.mem_port(0x10000, 16, 16, 1, "A")
        if second == "scratch":
            program.scratch_port(0, 16, 16, 1, "A")
        else:
            program.const_port(1, 2, "A")
        program.port_mem("O", 32, 32, 1, 0x30000)
        program.barrier_all()
        memory, reference = MemorySystem(), MemorySystem()
        for image in (memory, reference):
            write_words(image, 0x10000, [100, 101])  # cold: DRAM latency
            write_words(image, 0x20000, [1, 2])
        run_program(program, fabric=fabric, memory=memory)
        interpret_program(program, reference.store)
        expected = [100, 101] + ([1, 2] if second == "scratch" else [1, 1])
        assert read_words(reference, 0x30000, 4) == expected
        assert read_words(memory, 0x30000, 4) == expected


class TestPortScoreboard:
    def test_blocked_command_passes_only_on_other_ports(self):
        # Figure 6's per-port scoreboard: the second constant on port A
        # waits for the first to release A; the SD_Port_Mem behind it uses
        # only port O and dispatches past it; the third constant on A still
        # dispatches after the second (same-port program order).
        fabric = dnn_provisioned()
        memory = MemorySystem()
        program = StreamProgram("scoreboard", passthrough(fabric))
        program.const_port(1, 32, "A")
        program.const_port(2, 8, "A")
        program.port_mem("O", 384, 384, 1, 0x100)
        program.const_port(3, 8, "A")
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        first, blocked, other_port, same_port = result.timeline.traces[1:5]
        assert first.completed < blocked.dispatched
        assert other_port.dispatched < blocked.dispatched
        assert blocked.dispatched < same_port.dispatched
        assert read_words(memory, 0x100, 48) == [1] * 32 + [2] * 8 + [3] * 8


class TestMemoryWriteVisibility:
    def test_store_then_load_same_region_with_barrier(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [7, 8])
        program = StreamProgram("rmw", passthrough(fabric))
        program.mem_port(0, 16, 16, 1, "A")
        program.port_mem("O", 16, 16, 1, 0x100)
        program.barrier_all()  # writes globally visible
        program.mem_port(0x100, 16, 16, 1, "A")
        program.port_mem("O", 16, 16, 1, 0x200)
        program.barrier_all()
        run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x200, 2) == [7, 8]

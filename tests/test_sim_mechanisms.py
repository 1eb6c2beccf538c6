"""Targeted tests for the microarchitectural mechanisms of Section 4.

Each test isolates one mechanism — scratch barriers, the balance unit,
all-requests-in-flight, indirect-AGU coalescing, the CGRA firing rule —
and checks both its functional effect and its performance signature.
"""

import functools

import pytest

from repro.cgra import broadly_provisioned, dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import CONFIG_BASE_ADDR, StreamProgram
from repro.core.isa.interpreter import interpret_program
from repro.sim import (
    MemorySystem, SimError, SoftbrainParams, run_multi_unit, run_program,
)
from repro.sim import softbrain
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


def cycle_test(case):
    """Run the test's ``(program, fabric, memory, ports, anchors, table)``
    through ``do_cycle_test`` and raise its one collected failure."""
    @functools.wraps(case)
    def wrapper(self):
        try:
            self.do_cycle_test(case.__name__, *case(self))
        except AssertionError as error:
            error.__traceback__ = None
            raise error
    return wrapper


class CycleTableTest:
    """Check a per-cycle table of named rules against a traced run.

    ``ports`` names the DFG ports to watch, and ``engines`` the stream
    engines whose issues to watch.  ``anchors`` maps a letter to a
    function of the trace events giving a cycle; table rows are
    ``(rule, cycles, cgra, *issues, *port_states)``, where ``cycles`` is
    ``"a+3"`` or a range ``"a+6..t-1"`` over anchors.  ``cgra`` is the
    CGRA's action in the cycle (``fire``, ``stall:<cause>``, or ``-`` for
    none, as in a cycle the run fast-forwards over).  Each issue is the
    stream the engine issued in the cycle, named by the DFG port it
    writes (its command label if it writes none), or ``-``; an engine
    that issues two streams in one cycle (the SSE) lists both, comma
    separated, in issue order.  Each port
    state is ``occupancy+reserved`` at the end of the cycle.  Every
    mismatch is collected, and the test fails once, naming the rule, the
    signal and the cycle of each.

    ``program`` may be a list of programs, one per unit, run as one
    device on ``memory``.  A port or engine name prefixed ``u<i>.``
    (``u1.A``, ``u1.mse_read``) is unit ``i``'s; an unprefixed one, and
    the ``cgra`` column, are unit 0's.
    """

    def do_cycle_test(self, name, program, fabric, memory, ports, anchors,
                      table, engines=()):
        programs = program if isinstance(program, list) else [program]
        sink = ListSink()
        failures = []
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(softbrain, "PORT_SAMPLE_INTERVAL", 1)
                run_multi_unit(programs, [fabric] * len(programs),
                               memory=memory, trace=sink)
        except SimError as exc:
            failures.append(f"run failed at cycle {exc.cycle}: "
                            f"{str(exc).splitlines()[0]}")
        events = sink.events
        hw_names, port_names = {}, {}
        for unit, unit_program in enumerate(programs):
            config = next(iter(unit_program.config_images.values()))
            for port in [*config.dfg.inputs, *config.dfg.outputs]:
                hw = (f"in{config.hw_input_port(port)}"
                      if port in config.dfg.inputs
                      else f"out{config.hw_output_port(port)}")
                hw_names[unit, port] = hw
                port_names[unit, hw] = port
        engine_of = {_unit_signal(engine): engine for engine in engines}
        cgra, samples = {}, {}
        issues = {engine: {} for engine in engines}
        for event in events:
            if event.kind == "stream.issue":
                engine = engine_of.get((event.unit, event.component))
                if engine is None:
                    continue
                command = programs[event.unit].commands[event.data["index"]]
                dest = getattr(command, "dest", None)
                stream = (event.data["command"] if dest is None
                          else port_names.get((event.unit, str(dest)),
                                              str(dest)))
                seen = issues[engine]
                seen[event.cycle] = (f"{seen[event.cycle]},{stream}"
                                     if event.cycle in seen else stream)
            elif event.kind == "cgra.fire" and event.unit == 0:
                cgra[event.cycle] = "fire"
            elif event.kind == "cgra.stall" and event.unit == 0:
                cgra[event.cycle] = f"stall:{event.data['cause']}"
            elif event.kind == "port.sample":
                samples.setdefault((event.unit, event.data["port"]), {})[
                    event.cycle] = (f"{event.data['occupancy']}+"
                                    f"{event.data['reserved']}")
        base = {letter: find(events) for letter, find in anchors.items()}

        def at(expr):
            letter, _, offset = expr.replace("-", "+-").partition("+")
            return base[letter] + int(offset)

        def port_state(port, cycle):
            # a port keeps its last sampled state through unsampled cycles
            unit, name = _unit_signal(port)
            seen = samples.get((unit, hw_names[unit, name]), {})
            known = [c for c in seen if c <= cycle]
            return seen[max(known)] if known else "0+0"

        for rule, cycles, want_cgra, *wants in table:
            want_issues = wants[:len(engines)]
            want_ports = wants[len(engines):]
            first, _, last = cycles.partition("..")
            for cycle in range(at(first), at(last or first) + 1):
                where = f"cycle {cycle} ({cycles})"
                got = cgra.get(cycle, "-")
                if got != want_cgra:
                    failures.append(f"{rule}: chk cgra on {where}: "
                                    f"got {got!r}, want {want_cgra!r}")
                for engine, want in zip(engines, want_issues):
                    got = issues[engine].get(cycle, "-")
                    if got != want:
                        failures.append(f"{rule}: chk {engine} issue on "
                                        f"{where}: got {got!r}, want {want!r}")
                for port, want in zip(ports, want_ports):
                    got = port_state(port, cycle)
                    if got != want:
                        unit, name = _unit_signal(port)
                        failures.append(
                            f"{rule}: chk {port} ({hw_names[unit, name]}) "
                            f"on {where}: got {got!r}, want {want!r}")
        assert not failures, f"{name}:\n" + "\n".join(failures)


def _unit_signal(signal):
    """``"u1.A"`` -> ``(1, "A")``; an unprefixed signal is unit 0's."""
    prefix, dot, rest = signal.partition(".")
    if dot and prefix[:1] == "u" and prefix[1:].isdigit():
        return int(prefix[1:]), rest
    return 0, signal


def _first(kind, **data):
    """Anchor: the cycle of the first ``kind`` event carrying ``data``."""
    def find(events):
        return next(e.cycle for e in events if e.kind == kind
                    and all(e.data.get(k) == v for k, v in data.items()))
    return find


class TestBalanceUnit(CycleTableTest):
    """Section 4.5: the read engine's balance unit issues, each cycle, the
    ready stream whose port holds the fewest queued and reserved words,
    and the first in table (accept) order on a tie."""

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

    @staticmethod
    def _two_read_streams(fill_a, fill_b, requests_a, requests_b):
        """Constants first fill ports A and B with ``fill_a`` and
        ``fill_b`` words; after a barrier a read stream into A, then one
        into B, dispatch, each one word per line request.  Port C stays
        empty until both finish, so the CGRA cannot drain A or B."""
        fabric = dnn_provisioned()
        config = schedule(parse_dfg(
            "input A\ninput B\ninput C\nx = add A B\ny = add x C\n"
            "output O y", "gated-add"), fabric)
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(128)))
        memory.warm(0x1000, 1024)
        program = StreamProgram("balance", config)
        if fill_a:
            program.const_port(1, fill_a, "A")
        if fill_b:
            program.const_port(2, fill_b, "B")
        program.barrier_all()
        program.mem_port(0x1000, 64, 8, requests_a, "A")
        program.mem_port(0x1000, 64, 8, requests_b, "B")
        program.barrier_all()
        instances = fill_a + requests_a
        program.const_port(3, instances, "C")
        program.port_mem("O", instances * 8, instances * 8, 1, 0x8000)
        program.barrier_all()
        anchors = {"d": _first("stream.issue", command="SD_MemPort")}
        return program, fabric, memory, ("A", "B"), anchors

    @cycle_test
    def test_least_filled_port_issues_first(self):
        # A's stream is first in the table, yet B's port holds fewer
        # words, so B's stream issues from the cycle it is accepted.
        # Read data is not reserved at its port: B's score stays 0 until
        # its first line lands at d+14.
        *run, anchors = self._two_read_streams(8, 0, 4, 12)
        alone, least = "only ready stream", "least-filled port first"
        stall = "stall:no_input"
        table = [
            # rule   cycles        cgra   mse_read  A        B
            (alone,  "d+0..d+1",   stall, "A",      "8+0",   "0+0"),
            (least,  "d+2..d+11",  stall, "B",      "8+0",   "0+0"),
            (least,  "d+12",       stall, "B",      "9+0",   "0+0"),
            (least,  "d+13",       stall, "B",      "10+0",  "0+0"),
            (alone,  "d+14",       stall, "A",      "10+0",  "1+0"),
            (alone,  "d+15",       stall, "A",      "10+0",  "2+0"),
            (alone,  "d+16",       stall, "-",      "10+0",  "3+0"),
        ]
        return (*run, anchors, table, ("mse_read",))

    @cycle_test
    def test_tie_goes_to_first_in_table(self):
        # Both ports hold 4 words when B's stream is accepted, and no
        # read lands before A's stream has issued all four requests.
        *run, anchors = self._two_read_streams(4, 4, 4, 4)
        alone, tie = "only ready stream", "tie: first in table"
        stall = "stall:no_input"
        table = [
            # rule   cycles       cgra   mse_read  A       B
            (alone,  "d+0..d+1",  stall, "A",      "4+0",  "4+0"),
            (tie,    "d+2..d+3",  stall, "A",      "4+0",  "4+0"),
            (alone,  "d+4..d+7",  stall, "B",      "4+0",  "4+0"),
        ]
        return (*run, anchors, table, ("mse_read",))


class TestCgraFiringRule(CycleTableTest):
    """Section 4.4: an instance fires only when every input port holds its
    data and its output room is reserved; fires are back to back at II=1,
    and each result reaches its output port ``config.latency`` cycles
    after its fire."""

    @cycle_test
    def test_fire_stall_and_delivery_table(self):
        fabric = dnn_provisioned()
        config = schedule(
            parse_dfg("input A\ninput B\nx = add A B\noutput O x", "add"),
            fabric)
        # The table is written for this placement: B and O are 1-word
        # ports with room for 16 words, results leave after 10 cycles.
        assert config.latency == 10
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(100, 120)))
        memory.warm(0x1000, 160)
        program = StreamProgram("firing-rule", config)
        program.const_port(1, 20, "A")  # lands at once from the RSE
        program.mem_port(0x1000, 160, 160, 1, "B")  # an L2 hit later
        program.port_mem("O", 160, 160, 1, 0x2000)  # pops 8-word lines
        program.barrier_all()
        in_b = f"in{config.hw_input_port('B')}"
        anchors = {
            "a": _first("stream.issue", command="SD_ConstPort"),
            "t": _first("stream.drain", port=in_b),
        }
        inputs, latency, room = ("all inputs present", "latency 10",
                                  "output room reserved")
        table = [
            # rule       cycles       cgra                     A       B       O
            (inputs,     "a+0",       "stall:no_input",        "8+0",  "0+0",  "0+0"),
            (inputs,     "a+1..a+5",  "stall:no_input",        "16+0", "0+0",  "0+0"),
            (inputs,     "a+6..t-1",  "-",                     "16+0", "0+0",  "0+0"),
            (inputs,     "t+0",       "fire",                  "15+0", "7+0",  "0+1"),
            ("II=1",     "t+1",       "fire",                  "15+0", "14+0", "0+2"),
            ("II=1",     "t+2",       "fire",                  "15+0", "13+0", "0+3"),
            ("II=1",     "t+3",       "fire",                  "15+0", "12+0", "0+4"),
            ("II=1",     "t+4",       "fire",                  "15+0", "15+0", "0+5"),
            ("II=1",     "t+5",       "fire",                  "14+0", "14+0", "0+6"),
            ("II=1",     "t+6",       "fire",                  "13+0", "13+0", "0+7"),
            ("II=1",     "t+7",       "fire",                  "12+0", "12+0", "0+8"),
            ("II=1",     "t+8",       "fire",                  "11+0", "11+0", "0+9"),
            ("II=1",     "t+9",       "fire",                  "10+0", "10+0", "0+10"),
            (latency,    "t+10",      "fire",                  "9+0",  "9+0",  "1+10"),
            (latency,    "t+11",      "fire",                  "8+0",  "8+0",  "2+10"),
            (latency,    "t+12",      "fire",                  "7+0",  "7+0",  "3+10"),
            (latency,    "t+13",      "fire",                  "6+0",  "6+0",  "4+10"),
            (latency,    "t+14",      "fire",                  "5+0",  "5+0",  "5+10"),
            (latency,    "t+15",      "fire",                  "4+0",  "4+0",  "6+10"),
            (room,       "t+16",      "stall:no_output_room",  "4+0",  "4+0",  "7+9"),
            (room,       "t+17",      "fire",                  "3+0",  "3+0",  "0+9"),
            (latency,    "t+18",      "fire",                  "2+0",  "2+0",  "1+9"),
            (latency,    "t+19",      "fire",                  "1+0",  "1+0",  "2+9"),
            (latency,    "t+20",      "fire",                  "0+0",  "0+0",  "3+9"),
            (latency,    "t+21",      "-",                     "0+0",  "0+0",  "4+8"),
            (latency,    "t+22",      "-",                     "0+0",  "0+0",  "5+7"),
            (latency,    "t+23",      "-",                     "0+0",  "0+0",  "6+6"),
            (latency,    "t+24",      "-",                     "0+0",  "0+0",  "7+5"),
            (latency,    "t+25",      "-",                     "0+0",  "0+0",  "0+4"),
            (latency,    "t+26",      "-",                     "0+0",  "0+0",  "0+4"),
            (latency,    "t+27",      "-",                     "0+0",  "0+0",  "1+3"),
            (latency,    "t+28",      "-",                     "0+0",  "0+0",  "2+2"),
            (latency,    "t+29",      "-",                     "0+0",  "0+0",  "3+1"),
            (latency,    "t+30",      "-",                     "0+0",  "0+0",  "0+0"),
        ]
        return program, fabric, memory, ("A", "B", "O"), anchors, table


def _gated(fabric):
    """``A + C -> O``: a port fills without the CGRA draining it while
    ``C`` stays empty."""
    return schedule(parse_dfg("input A\ninput C\nx = add A C\noutput O x",
                              "gated"), fabric)


def _filled_output(program):
    """Fire 16 instances into ``O`` (a 16-word port) and wait for them."""
    program.const_port(1, 16, "A")
    program.const_port(2, 16, "C")
    program.barrier_all()


class TestStreamRetire(CycleTableTest):
    """A stream retires in its engine's tick only after every stream of
    the engine has drained, so a port's next writer, whose data may
    already wait in the same engine, delivers in the next cycle."""

    @cycle_test
    def test_next_writer_delivers_the_cycle_after_retire(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x10000, [100, 101])  # cold: DRAM latency
        write_words(memory, 0x1000, [1, 2])
        memory.warm(0x1000, 16)
        program = StreamProgram("retire", _gated(fabric))
        # all-requests-in-flight releases A, so the second read issues
        # while the first one's data is still on its way
        program.mem_port(0x10000, 16, 16, 1, "A")
        program.mem_port(0x1000, 16, 16, 1, "A")
        program.barrier_all()
        program.const_port(0, 4, "C")
        program.port_mem("O", 32, 32, 1, 0x30000)
        program.barrier_all()
        anchors = {
            # the second read's data is ready (an L2 hit)
            "h": lambda events: next(
                e.data["ready"] for e in events if e.kind == "mem.access"
                and e.data["line_addr"] == 0x1000),
            "r": _first("command.complete", command="SD_MemPort"),
        }
        order, retire = "writers deliver in order", "retire after drains"
        stall = "stall:no_input"
        table = [
            # rule   cycles      cgra   mse_read  A
            (order,  "h+0..r-1", "-",   "-",      "0+0"),
            (retire, "r+0",      stall, "-",      "2+0"),
            (retire, "r+1",      stall, "-",      "4+0"),
        ]
        return (program, fabric, memory, ("A",), anchors, table,
                ("mse_read",))


class TestRecurrenceEngine(CycleTableTest):
    """The recurrence engine issues one ready stream per cycle, round
    robin: the pointer steps by one and wraps over the number of ready
    streams in that cycle, so it skips as the table shrinks."""

    @cycle_test
    def test_round_robin_over_ready_streams(self):
        fabric = dnn_provisioned()
        config = schedule(parse_dfg(
            "input A\ninput B\ninput C\ninput D\nx = add A B\n"
            "y = add C D\nz = add x y\noutput O z", "gated-sum"), fabric)
        program = StreamProgram("round-robin", config)
        # one stream per cycle reaches the table; each issues 8 words
        # twice into its 16-word port
        program.const_port(1, 16, "A")
        program.const_port(2, 16, "B")
        program.const_port(3, 16, "C")
        program.barrier_all()
        program.const_port(4, 16, "D")
        program.port_mem("O", 128, 128, 1, 0x30000)
        program.barrier_all()
        anchors = {"d": _first("stream.issue", command="SD_ConstPort")}
        alone, rr = "only ready stream", "round robin"
        stall = "stall:no_input"
        table = [
            # rule   cycles  cgra   rse  A       B       C
            (alone,  "d+0",  stall, "A", "8+0",  "0+0",  "0+0"),
            (rr,     "d+1",  stall, "B", "8+0",  "8+0",  "0+0"),
            (rr,     "d+2",  stall, "C", "8+0",  "8+0",  "8+0"),
            (rr,     "d+3",  stall, "A", "16+0", "8+0",  "8+0"),
            # A has retired: the pointer (1) now picks C of [B, C]
            (rr,     "d+4",  stall, "C", "16+0", "8+0",  "16+0"),
            (alone,  "d+5",  stall, "B", "16+0", "16+0", "16+0"),
            (alone,  "d+6",  stall, "-", "16+0", "16+0", "16+0"),
        ]
        return (program, fabric, MemorySystem(), ("A", "B", "C"), anchors,
                table, ("rse",))


class TestScratchEngine(CycleTableTest):
    """The scratchpad engine has one read and one write port: in one
    cycle it issues a read stream's line request and a write stream's
    words."""

    @cycle_test
    def test_read_and_write_issue_in_one_cycle(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(100, 164)))
        memory.warm(0x1000, 512)
        program = StreamProgram("sse", _gated(fabric))
        program.mem_scratch(0x1000, 512, 512, 1, 0)
        _filled_output(program)
        program.scratch_port(0, 64, 8, 8, "A")  # one word per request
        program.port_scratch("O", 16, 0x400)  # 8 words per cycle
        program.barrier_all()
        program.const_port(3, 8, "C")
        program.port_mem("O", 64, 64, 1, 0x30000)
        program.barrier_all()
        anchors = {"d": _first("stream.issue", command="SD_ScratchPort")}
        read, both = "one read", "one read and one write"
        stall = "stall:no_input"
        table = [
            # rule  cycles  cgra   sse                 A      O
            (read,  "d+0",  "-",   "A",                "0+0", "16+0"),
            (read,  "d+1",  "-",   "A",                "0+0", "16+0"),
            (both,  "d+2",  stall, "A,SD_PortScratch", "1+0", "8+0"),
            (both,  "d+3",  stall, "A,SD_PortScratch", "2+0", "0+0"),
            (read,  "d+4",  stall, "A",                "3+0", "0+0"),
            (read,  "d+7",  stall, "A",                "6+0", "0+0"),
            (read,  "d+8",  stall, "-",                "7+0", "0+0"),
        ]
        return program, fabric, memory, ("A", "O"), anchors, table, ("sse",)


class TestMemorySlot(CycleTableTest):
    """The memory interface accepts one line request per cycle, shared by
    the read and write engines; the read engine ticks first, so a ready
    write stream waits while reads issue."""

    @cycle_test
    def test_read_and_write_engines_share_one_request(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(100, 164)))
        memory.warm(0x1000, 512)
        program = StreamProgram("mem-slot", _gated(fabric))
        _filled_output(program)
        program.mem_port(0x1000, 64, 8, 8, "A")  # 8 one-word requests
        program.port_mem("O", 64, 8, 16, 0x8000)  # 16 one-word requests
        program.barrier_all()
        program.const_port(3, 8, "C")
        program.port_mem("O", 64, 64, 1, 0x30000)
        program.barrier_all()
        anchors = {"d": _first("stream.issue", command="SD_MemPort")}
        alone, shared = "only ready stream", "one request per cycle"
        table = [
            # rule   cycles      cgra  mse_read  mse_write     A      O
            (alone,  "d+0..d+2", "-",  "A",      "-",          "0+0", "16+0"),
            (shared, "d+3..d+7", "-",  "A",      "-",          "0+0", "16+0"),
            (alone,  "d+8",      "-",  "-",      "SD_PortMem", "0+0", "15+0"),
            (alone,  "d+9",      "-",  "-",      "SD_PortMem", "0+0", "14+0"),
        ]
        return (program, fabric, memory, ("A", "O"), anchors, table,
                ("mse_read", "mse_write"))


class TestUnitArbitration(CycleTableTest):
    """Units share the memory interface's one accept per cycle and step in
    index order, so on a tie the lower-index unit takes the slot, every
    cycle it has a request ready, and the other unit's ready request
    waits for a cycle the slot is free."""

    @cycle_test
    def test_lower_index_unit_wins_the_slot(self):
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0x1000, list(range(64)))
        memory.warm(0x1000, 512)
        memory.warm(CONFIG_BASE_ADDR, 4096)  # both config loads hit
        programs = []
        for unit in range(2):
            # each unit reads its own four lines
            program = StreamProgram(f"arb-u{unit}", passthrough(fabric))
            program.mem_port(0x1000 + 256 * unit, 64, 8, 4, "A")
            program.port_mem("O", 8, 8, 4, 0x8000 + 256 * unit)
            program.barrier_all()
            programs.append(program)
        anchors = {"c": _first("stream.issue", command="SD_Config"),
                   "d": _first("stream.issue", command="SD_MemPort")}
        wins, waits = "lower index wins", "waits for a free slot"
        table = [
            # rule  cycles      cgra  mse_read     u1.mse_read  A     u1.A
            (wins,  "c+0",      "-",  "SD_Config", "-",         "0+0", "0+0"),
            (waits, "c+1",      "-",  "-",         "SD_Config", "0+0", "0+0"),
            (wins,  "d+0..d+3", "-",  "A",         "-",         "0+0", "0+0"),
            (waits, "d+4..d+7", "-",  "-",         "A",         "0+0", "0+0"),
        ]
        return (programs, fabric, memory, ("A", "u1.A"), anchors, table,
                ("mse_read", "u1.mse_read"))

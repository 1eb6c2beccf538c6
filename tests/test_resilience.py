"""Tests for fault injection, the hang watchdog and failure diagnostics.

Covers the unified SimError hierarchy, the dispatcher's queue-full stall
(regression: it used to raise), structured FailureReports on every
failure path (deadlock, cycle limit, config errors, multi-unit), each
fault class end-to-end, and a small campaign.
"""

import json

import pytest

from repro.cgra import dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.core.isa.commands import in_port
from repro.resilience import (
    FAULT_KINDS,
    FailureReport,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    run_campaign,
)
from repro.sim import (
    ConfigError,
    IllegalCommandError,
    MemorySystem,
    PortRuntimeError,
    ScratchpadError,
    SimError,
    SimulationDeadlock,
    SimulationLimit,
    SoftbrainParams,
    SoftbrainSim,
    run_multi_unit,
    run_program,
)
from repro.trace import RingSink, TeeSink, TraceEvent
from repro.workloads.common import read_words, write_words

from .test_golden_stats import GOLDEN_DIR


def passthrough_config(fabric):
    dfg = parse_dfg("input A\nx = pass A\noutput O x", "copy")
    return schedule(dfg, fabric)


def adder_config(fabric):
    dfg = parse_dfg("input A\ninput B\nx = add A B\noutput O x", "adder")
    return schedule(dfg, fabric)


def copy_workload(n=32):
    """A memory->fabric->memory copy of ``n`` words."""
    fabric = dnn_provisioned()
    memory = MemorySystem()
    data = list(range(100, 100 + n))
    write_words(memory, 0x1000, data)
    program = StreamProgram("copy", passthrough_config(fabric))
    program.mem_port(0x1000, 8 * n, 8 * n, 1, "A")
    program.port_mem("O", 8 * n, 8 * n, 1, 0x8000)
    program.barrier_all()
    return program, fabric, memory, data


def deadlock_workload():
    """Feeds port A but starves port B: must deadlock, not hang."""
    fabric = dnn_provisioned()
    memory = MemorySystem()
    write_words(memory, 0, [1, 2])
    program = StreamProgram("stuck", adder_config(fabric))
    program.mem_port(0, 16, 16, 1, "A")
    program.port_mem("O", 16, 16, 1, 0x100)
    program.barrier_all()
    return program, fabric, memory


class TestErrorHierarchy:
    def test_every_failure_class_is_a_sim_error(self):
        for cls in (SimulationDeadlock, SimulationLimit, PortRuntimeError,
                    ScratchpadError, ConfigError):
            assert issubclass(cls, SimError)

    def test_sim_error_is_a_runtime_error(self):
        # Pre-hierarchy callers caught RuntimeError; they must keep working.
        assert issubclass(SimError, RuntimeError)

    def test_scratchpad_error_still_a_value_error(self):
        assert issubclass(ScratchpadError, ValueError)

    def test_kind_tags(self):
        assert SimulationDeadlock("x").kind == "deadlock"
        assert SimulationLimit("x").kind == "limit"
        assert ConfigError("x").kind == "config"

    def test_carries_context(self):
        exc = SimulationDeadlock("boom", program_name="p", cycle=7)
        assert (exc.program_name, exc.cycle) == ("p", 7)
        assert exc.report is None


class TestDispatcherQueueStall:
    def test_enqueue_returns_none_when_full(self):
        # Regression: a full queue used to raise RuntimeError.
        from repro.sim.dispatcher import COMMAND_QUEUE_DEPTH
        from repro.sim.softbrain import SoftbrainSim

        program, fabric, memory, _ = copy_workload(8)
        sim = SoftbrainSim(program, fabric=fabric, memory=memory)
        command = next(
            i for i in program.items if not hasattr(i, "cycles"))
        for _ in range(COMMAND_QUEUE_DEPTH):
            assert sim.dispatcher.enqueue(command, 0) is not None
        assert not sim.dispatcher.can_enqueue()
        assert sim.dispatcher.enqueue(command, 0) is None

    def test_core_stalls_and_program_completes(self):
        # More serialized same-port streams than queue entries: the core
        # must stall on the full queue and the run must still finish.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [5])
        program = StreamProgram("manycmd", passthrough_config(fabric))
        for i in range(24):
            program.mem_port(0, 8, 8, 1, "A")
            program.port_mem("O", 8, 8, 1, 0x100 + 8 * i)
        program.barrier_all()
        result = run_program(program, fabric=fabric, memory=memory)
        assert read_words(memory, 0x100, 24) == [5] * 24
        # every item except the final barrier issues to an engine
        assert result.stats.commands_issued == len(program.items) - 1
        assert result.stats.cycles > 0


class TestFailureReports:
    def test_deadlock_report_attached(self):
        program, fabric, memory = deadlock_workload()
        with pytest.raises(SimulationDeadlock, match="deadlock") as info:
            run_program(program, fabric=fabric, memory=memory)
        report = info.value.report
        assert isinstance(report, FailureReport)
        assert report.kind == "deadlock"
        assert report.program == "stuck"
        assert report.cycle == info.value.cycle
        assert report.chains, "watchdog produced no root-cause chain"
        assert report.wait_graph["nodes"] and report.wait_graph["edges"]
        assert "core" in report.components

    def test_deadlock_chain_names_the_starved_port(self):
        program, fabric, memory = deadlock_workload()
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory)
        text = " ".join(info.value.report.chains)
        assert "no stream writes this port" in text

    def test_chain_names_the_earlier_writer_of_the_dest_port(self):
        # The memory stream overfills port A (B is never fed, so the
        # fabric never drains A); the constant behind it on A waits for
        # that earlier writer, not for room in A.  No final barrier, so
        # nothing waits on the constant and its chain is a root.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, list(range(32)))
        config = adder_config(fabric)
        program = StreamProgram("writer-order", config)
        program.mem_port(0, 256, 256, 1, "A")
        program.const_port(1, 4, "A")
        program.port_mem("O", 16, 16, 1, 0x1000)
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory)
        chains = info.value.report.chains
        const_chain = next(c for c in chains if c.startswith("SD_ConstPort"))
        port = f"in{config.hw_input_port('A')}"
        assert f"waits for earlier writer #1 of port {port}" in const_chain
        assert "SD_MemPort #1" in const_chain

    def test_one_name_per_indirect_port(self):
        # ind0 gets no index fill and ind1 a fill nobody reads: the chain,
        # the wait-graph labels, the dumped ports and the scoreboard all
        # name an indirect port as PortRef prints it.
        fabric = dnn_provisioned()
        memory = MemorySystem()
        write_words(memory, 0, [1, 2, 3, 4])
        program = StreamProgram("gather", passthrough_config(fabric))
        program.mem_to_indirect(0, 4, 1)
        program.ind_port_port(0, 0x1000, "A", 4)
        program.port_mem("O", 32, 32, 1, 0x8000)
        program.barrier_all()
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory)
        report = info.value.report
        chain = next(c for c in report.chains if "SD_IndPortPort" in c)
        assert chain.endswith("[index port ind0 has no addresses] "
                              "<- port ind0 [no stream writes this port]")
        labels = [n["label"] for n in report.wait_graph["nodes"].values()]
        assert "port ind0" in labels
        assert list(report.components["ports"]) == ["ind1"]
        assert "ind0:r" in report.components["dispatcher"]["busy_ports"]
        assert "indirect" not in report.to_json()
        # one port table, input then output then indirect
        sim = SoftbrainSim(program, fabric=fabric)
        assert [kind for kind, _ in sim.ports] == (
            ["in"] * 8 + ["out"] * 6 + ["ind"] * 2)

    def test_report_is_deterministic(self):
        dumps = []
        for _ in range(2):
            program, fabric, memory = deadlock_workload()
            with pytest.raises(SimulationDeadlock) as info:
                run_program(program, fabric=fabric, memory=memory)
            dumps.append(info.value.report.to_json())
        assert dumps[0] == dumps[1]

    def test_report_json_roundtrip(self):
        program, fabric, memory = deadlock_workload()
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory)
        report = info.value.report
        clone = FailureReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        json.loads(report.to_json())  # valid JSON

    def test_report_save_roundtrip(self, tmp_path):
        program, fabric, memory = deadlock_workload()
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory)
        report = info.value.report
        path = tmp_path / "dump.json"
        assert report.save(str(path)) == str(path)
        assert path.read_text() == report.to_json() + "\n"
        assert FailureReport.from_json(path.read_text()) == report

    def test_cycle_limit_report(self):
        program, fabric, memory, _ = copy_workload()
        with pytest.raises(SimulationLimit) as info:
            run_program(program, fabric=fabric, memory=memory,
                        params=SoftbrainParams(max_cycles=10))
        assert info.value.report.kind == "limit"

    def test_missing_config_image_is_structured(self):
        fabric = dnn_provisioned()
        program = StreamProgram("noimg", passthrough_config(fabric))
        program.barrier_all()
        program.config_images.clear()
        with pytest.raises(ConfigError, match="no configuration image") as info:
            run_program(program, fabric=fabric, memory=MemorySystem())
        assert info.value.report is not None

    def test_missing_port_is_an_illegal_command(self):
        # Regression: a plain program naming a port the unit lacks used to
        # fail with a bare KeyError from SoftbrainSim.port_state.
        fabric = dnn_provisioned()
        program = StreamProgram("noport", passthrough_config(fabric))
        program.const_port(1, 4, in_port(99))
        with pytest.raises(IllegalCommandError,
                           match="nonexistent port in99") as info:
            run_program(program, fabric=fabric, memory=MemorySystem())
        assert info.value.report is not None
        assert info.value.report.kind == "illegal-command"
        # rejected at decode: the command never entered the queue
        assert info.value.report.components["dispatcher"]["queue"] == []

    def test_trace_tail_captured_with_ring_sink(self):
        program, fabric, memory = deadlock_workload()
        ring = RingSink(capacity=32)
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory, trace=ring)
        tail = info.value.report.trace_tail
        assert 0 < len(tail) <= 32
        assert all("kind" in entry and "cycle" in entry for entry in tail)

    def test_multi_unit_deadlock_aggregates_units(self):
        program, fabric, memory = deadlock_workload()
        program2 = deadlock_workload()[0]
        with pytest.raises(SimulationDeadlock, match="deadlock") as info:
            run_multi_unit([program, program2], [fabric, fabric],
                           memory=memory)
        report = info.value.report
        assert report is not None
        assert "unit0" in report.components and "unit1" in report.components
        assert any(chain.startswith("[unit 0]") for chain in report.chains)
        assert any(chain.startswith("[unit 1]") for chain in report.chains)


class TestCycleLimitRule:
    """No unit steps at a cycle above ``max_cycles``, and a one-unit
    ``run_multi_unit`` trips the limit at the cycle ``run_program`` does
    (the fast-forward past the budget included)."""

    def limit_cycle(self, run, max_cycles, stepped):
        program, fabric, memory, _ = copy_workload(4)
        stepped.clear()
        with pytest.raises(SimulationLimit) as info:
            run(program, fabric, memory, SoftbrainParams(max_cycles=max_cycles))
        assert max(stepped) <= max_cycles
        return info.value.cycle

    def test_one_unit_multi_stops_where_run_program_does(self, monkeypatch):
        from repro.sim.softbrain import SoftbrainSim

        stepped = []
        step = SoftbrainSim.step

        def spy(sim, cycle):
            stepped.append(cycle)
            return step(sim, cycle)

        monkeypatch.setattr(SoftbrainSim, "step", spy)

        def single(program, fabric, memory, params):
            run_program(program, fabric=fabric, memory=memory, params=params)

        def multi(program, fabric, memory, params):
            run_multi_unit([program], [fabric], memory=memory,
                           params=params)

        # copy_workload(4) finishes at cycle 289: every budget below trips.
        for max_cycles in range(1, 289):
            expected = self.limit_cycle(single, max_cycles, stepped)
            got = self.limit_cycle(multi, max_cycles, stepped)
            assert got == expected, max_cycles


def _deadlock_dump(units=1, max_cycles=None):
    """The SimError of ``units`` copies of ``deadlock_workload``."""
    program, fabric, memory = deadlock_workload()
    ring = RingSink(capacity=8)
    params = SoftbrainParams(max_cycles=max_cycles) if max_cycles else None
    with pytest.raises(SimError) as info:
        if units == 1:
            run_program(program, fabric=fabric, memory=memory,
                        params=params, trace=ring)
        else:
            programs = [program] + [deadlock_workload()[0]
                                    for _ in range(units - 1)]
            run_multi_unit(programs, [fabric] * units, memory=memory,
                           params=params, trace=ring)
    return info.value


def _illegal_dump():
    """The SimError of ``copy_workload`` with the top opcode bit of its
    ``SD_Mem_Port`` word flipped: the decoder's unknown-opcode path."""
    program, fabric, memory, _data = copy_workload(8)
    injector = FaultInjector(FaultPlan(
        "illegal", [FaultSpec("cmd.illegal", at=1, arg=7)]))
    with pytest.raises(IllegalCommandError) as info:
        run_program(program, fabric=fabric, memory=memory,
                    faults=injector, trace=RingSink(capacity=8))
    return info.value


CRASH_DUMPS = {
    "crash-deadlock": lambda: _deadlock_dump(),
    "crash-deadlock-2unit": lambda: _deadlock_dump(units=2),
    "crash-illegal": _illegal_dump,
    "crash-limit": lambda: _deadlock_dump(max_cycles=100),
}


@pytest.mark.parametrize("name", sorted(CRASH_DUMPS))
def test_crash_dump_golden(name, update_golden):
    # Locks the failure path byte for byte: the JSON crash dump, and the
    # exception message built from it.
    exc = CRASH_DUMPS[name]()
    text = exc.report.to_json() + "\n"
    assert str(exc) == f"{exc.report.message}\n{exc.report.render()}"
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        path.write_text(text)
        return
    assert text == path.read_text(), (
        f"crash dump drifted from tests/golden/{name}.json")


class TestFaultInjection:
    def run_with(self, spec, n=32, max_cycles=200_000):
        program, fabric, memory, data = copy_workload(n)
        injector = FaultInjector(FaultPlan("t", [spec]))
        result = run_program(program, fabric=fabric, memory=memory,
                             faults=injector,
                             params=SoftbrainParams(max_cycles=max_cycles))
        return result, memory, data, injector

    def baseline(self, n=32):
        program, fabric, memory, data = copy_workload(n)
        return run_program(program, fabric=fabric, memory=memory)

    def test_zero_fault_plan_changes_nothing(self):
        baseline = self.baseline()
        result, memory, data, injector = self.run_with(
            FaultSpec("mem.delay", at=10**9, arg=63))  # never fires
        assert read_words(memory, 0x8000, len(data)) == data
        assert result.cycles == baseline.cycles
        assert injector.fired == []
        assert len(injector.unfired) == 1

    def test_mem_delay_is_benign_but_slower(self):
        baseline = self.baseline()
        result, memory, data, injector = self.run_with(
            FaultSpec("mem.delay", at=1, arg=511))
        assert read_words(memory, 0x8000, len(data)) == data
        assert result.cycles > baseline.cycles
        assert injector.fired[0]["kind"] == "mem.delay"

    def test_mem_corrupt_changes_one_word(self):
        _result, memory, data, injector = self.run_with(
            FaultSpec("mem.corrupt", at=1, arg=3))
        got = read_words(memory, 0x8000, len(data), signed=False)
        want = [v & (1 << 64) - 1 for v in data]
        assert injector.fired[0]["kind"] == "mem.corrupt"
        diffs = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(diffs) == 1
        assert diffs[0][0] ^ diffs[0][1] == 1 << 3

    def test_engine_stall_is_benign_but_slower(self):
        baseline = self.baseline()
        result, memory, data, injector = self.run_with(
            FaultSpec("engine.stall", at=1, target="mse_read", arg=128))
        assert read_words(memory, 0x8000, len(data)) == data
        assert result.cycles > baseline.cycles
        assert injector.fired[0]["target"] == "mse_read"

    def test_cgra_bitflip_changes_output(self):
        _result, memory, data, injector = self.run_with(
            FaultSpec("cgra.bitflip", at=1, arg=5))
        got = read_words(memory, 0x8000, len(data), signed=False)
        assert injector.fired[0]["kind"] == "cgra.bitflip"
        assert got != [v & (1 << 64) - 1 for v in data]

    def test_port_drop_deadlocks_with_diagnosis(self):
        program, fabric, memory, _data = copy_workload()
        injector = FaultInjector(
            FaultPlan("t", [FaultSpec("port.drop", at=1)]))
        with pytest.raises(SimulationDeadlock) as info:
            run_program(program, fabric=fabric, memory=memory,
                        faults=injector,
                        params=SoftbrainParams(max_cycles=200_000))
        report = info.value.report
        assert report.faults and report.faults[0]["kind"] == "port.drop"
        assert report.chains

    def test_cmd_illegal_never_escapes_unstructured(self):
        # Whatever a bit flip does to a command word, the outcome must be
        # a clean run or a structured SimError — never a raw crash.
        for arg in range(0, 48, 7):
            program, fabric, memory, _data = copy_workload(8)
            injector = FaultInjector(FaultPlan(
                "t", [FaultSpec("cmd.illegal", at=0, arg=arg)]))
            try:
                run_program(program, fabric=fabric, memory=memory,
                            faults=injector,
                            params=SoftbrainParams(max_cycles=200_000))
            except SimError as exc:
                assert exc.report is not None
            # any other exception propagates and fails the test

    def test_fault_events_traced(self):
        program, fabric, memory, _data = copy_workload()
        ring = RingSink(capacity=2048)
        injector = FaultInjector(
            FaultPlan("t", [FaultSpec("mem.delay", at=1, arg=7)]))
        run_program(program, fabric=fabric, memory=memory, trace=ring,
                    faults=injector)
        kinds = [e.kind for e in ring.tail_events()]
        assert "fault.inject" in kinds


class TestFaultPlans:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("not.a.kind", at=1)
        with pytest.raises(ValueError):
            FaultSpec("mem.delay", at=-1)

    def test_plan_roundtrip(self):
        plan = FaultPlan.random(5, count=3)
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.specs == plan.specs
        assert clone.name == plan.name

    def test_random_plan_deterministic(self):
        assert (FaultPlan.random(9, count=4).to_dict()
                == FaultPlan.random(9, count=4).to_dict())
        assert (FaultPlan.random(9, count=4).to_dict()
                != FaultPlan.random(10, count=4).to_dict())

    def test_random_specs_cover_all_kinds(self):
        import random as random_module

        rng = random_module.Random("kinds")
        from repro.resilience.faults import random_spec

        for kind in FAULT_KINDS:
            spec = random_spec(rng, kind, 100)
            assert spec.kind == kind


class TestCampaign:
    def test_small_campaign_passes(self, tmp_path):
        result = run_campaign(classes=("mem.delay", "port.drop"),
                              seeds=(0,), cases_per_seed=1,
                              dump_dir=str(tmp_path))
        assert result.outcomes, "campaign ran no faulted cases"
        assert result.ok, result.summary()
        assert "PASS" in result.summary()

    def test_campaign_determinism_check(self):
        result = run_campaign(classes=("cmd.illegal",), seeds=(0,),
                              cases_per_seed=1, check_determinism=True)
        assert result.ok, result.summary()
        assert all(o.classification != "nondeterministic"
                   for o in result.outcomes)


class TestRingSink:
    def events(self, n):
        return [TraceEvent("cycle.tick", i, 0, "sim", {}) for i in range(n)]

    def test_keeps_last_n_oldest_first(self):
        ring = RingSink(capacity=4)
        for event in self.events(10):
            ring.emit(event)
        assert [e.cycle for e in ring.tail_events()] == [6, 7, 8, 9]

    def test_tee_delegates_tail(self):
        ring = RingSink(capacity=4)
        tee = TeeSink(ring)
        for event in self.events(6):
            tee.emit(event)
        assert [e.cycle for e in tee.tail_events()] == [2, 3, 4, 5]

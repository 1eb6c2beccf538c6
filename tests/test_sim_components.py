"""Unit tests for vector ports, dispatcher behaviour and the control core."""

import pytest

from repro.cgra.fabric import HwVectorPort, dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram, in_port, out_port
from repro.sim import (
    COMMAND_QUEUE_DEPTH,
    PortRuntimeError,
    SoftbrainSim,
    VectorPortState,
)


def make_port(width=4, depth=4, direction="in"):
    return VectorPortState(HwVectorPort(0, direction, width, depth))


class TestVectorPortState:
    def test_push_pop_fifo_order(self):
        port = make_port()
        port.push([1, 2, 3], reserved=False)
        assert port.pop_words(2) == [1, 2]
        assert port.pop_words(1) == [3]

    def test_capacity(self):
        port = make_port(width=2, depth=3)
        assert port.capacity_words == 6
        port.push([0] * 6, reserved=False)
        assert port.free_words == 0
        with pytest.raises(PortRuntimeError):
            port.push([1], reserved=False)

    def test_reservation_accounting(self):
        port = make_port(width=2, depth=4)
        port.reserve(3)
        assert port.free_words == 5
        port.push([1, 2, 3])
        assert port.reserved == 0
        assert port.occupancy == 3

    def test_over_reserve_rejected(self):
        port = make_port(width=1, depth=2)
        with pytest.raises(PortRuntimeError):
            port.reserve(3)

    def test_push_beyond_reservation_rejected(self):
        port = make_port()
        port.reserve(1)
        with pytest.raises(PortRuntimeError):
            port.push([1, 2])

    def test_underflow_rejected(self):
        port = make_port()
        with pytest.raises(PortRuntimeError):
            port.pop_words(1)

    def test_counters(self):
        port = make_port()
        port.push([5, 6], reserved=False)
        port.pop_words(2)
        assert port.total_pushed == 2
        assert port.total_popped == 2


@pytest.fixture()
def sim():
    dfg = parse_dfg("input A\nx = pass A\noutput O x", "passthrough")
    fabric = dnn_provisioned()
    config = schedule(dfg, fabric)
    program = StreamProgram("p", config)
    program.barrier_all()
    return SoftbrainSim(program, fabric=fabric)


class TestDispatcher:
    def test_queue_depth_enforced(self, sim):
        for _ in range(COMMAND_QUEUE_DEPTH):
            assert sim.dispatcher.can_enqueue()
            sim.dispatcher.enqueue(
                sim.program.commands[0], 0
            )
        assert not sim.dispatcher.can_enqueue()

    def test_barrier_all_stalls_enqueue(self, sim):
        from repro.core.isa import SDBarrierAll

        sim.dispatcher.enqueue(SDBarrierAll(), 0)
        assert not sim.dispatcher.can_enqueue()

    def test_same_port_same_role_serialises(self, sim):
        from repro.core.isa import SDConstPort

        a = SDConstPort(1, 4, in_port(5))
        b = SDConstPort(2, 4, in_port(5))
        sim.dispatcher.enqueue(a, 0)
        sim.dispatcher.enqueue(b, 0)
        assert sim.dispatcher.tick(1)  # issues a
        assert not sim.dispatcher.tick(2)  # b blocked on port in5 writer

    def test_different_ports_issue_out_of_order(self, sim):
        from repro.core.isa import SDConstPort

        sim.dispatcher.enqueue(SDConstPort(1, 4, in_port(5)), 0)
        sim.dispatcher.enqueue(SDConstPort(2, 4, in_port(5)), 0)  # blocked
        sim.dispatcher.enqueue(SDConstPort(3, 4, in_port(6)), 0)  # free port
        assert sim.dispatcher.tick(1)
        assert sim.dispatcher.tick(2)  # the in6 command passes the stalled one
        issued = [s.command.value for s in sim.engines["rse"].streams]
        assert issued == [1, 3]

    def test_nothing_passes_a_waiting_config(self, sim):
        from repro.core.isa import SDConfig, SDConstPort

        config = sim.program.commands[0]
        assert isinstance(config, SDConfig)
        sim.dispatcher.enqueue(SDConstPort(1, 4, in_port(5)), 0)
        sim.dispatcher.enqueue(config, 0)
        sim.dispatcher.enqueue(SDConstPort(3, 4, in_port(6)), 0)  # free port
        assert sim.dispatcher.tick(1)  # issues the in5 constant
        # the config waits for the unit to quiesce, and the in6 command
        # behind it may not pass it
        assert not sim.dispatcher.tick(2)
        issued = [s.command.value for s in sim.engines["rse"].streams]
        assert issued == [1]

    def test_release_port_counts(self, sim):
        sim.dispatcher.busy_ports[("in", 1, "w")] = 2
        sim.dispatcher.release_port("in", 1, "w")
        assert sim.dispatcher.busy_ports[("in", 1, "w")] == 1
        sim.dispatcher.release_port("in", 1, "w")
        assert ("in", 1, "w") not in sim.dispatcher.busy_ports


class TestControlCore:
    def test_multi_instruction_commands_take_cycles(self, sim):
        # program items: SDConfig (1 inst) + SDBarrierAll (1 inst)
        core = sim.core
        assert core.tick(0)  # config enqueued
        assert sim.dispatcher.queue
        assert not core.finished

    def test_host_compute_consumes_cycles(self):
        from repro.core.isa.program import HostCompute

        dfg = parse_dfg("input A\nx = pass A\noutput O x", "p2")
        fabric = dnn_provisioned()
        config = schedule(dfg, fabric)
        program = StreamProgram("p2", config)
        program.host(3)
        sim2 = SoftbrainSim(program, fabric=fabric)
        core = sim2.core
        core.tick(0)  # config
        ticks = 0
        while not core.finished:
            core.tick(ticks + 1)
            ticks += 1
        assert ticks >= 3

"""Unit tests for vector ports, dispatcher behaviour and the control core."""

import random
from collections import deque

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
from repro.sim.vector_port import COMPACT_WORDS


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

    @pytest.mark.parametrize("seed", range(20))
    def test_random_operations_match_a_deque(self, seed):
        """Random pushes, pops and reservations against a deque model;
        the counts stay consistent after every operation."""
        rng = random.Random(seed)
        port = make_port(width=rng.choice([1, 2, 8]), depth=16)
        model, reserved, word = deque(), 0, 0
        for _ in range(400):
            free = port.capacity_words - len(model) - reserved
            op = rng.choice(["reserve", "push", "push_free", "pop", "peek"])
            if op == "reserve" and free:
                count = rng.randint(1, free)
                port.reserve(count)
                reserved += count
            elif op == "push" and reserved:
                words = list(range(word, word + rng.randint(1, reserved)))
                port.push(words)
                model.extend(words)
                reserved -= len(words)
                word += len(words)
            elif op == "push_free" and free:
                words = list(range(word, word + rng.randint(1, free)))
                port.push(words, reserved=False)
                model.extend(words)
                word += len(words)
            elif op == "pop" and model:
                count = rng.randint(1, len(model))
                assert port.pop_words(count) == [model.popleft()
                                                 for _ in range(count)]
            elif op == "peek":
                count = rng.randint(0, 10)
                assert port.peek(count) == list(model)[:count]
            assert port.occupancy == len(model)
            assert port.reserved == reserved
            assert (port.occupancy + port.reserved + port.free_words
                    == port.capacity_words)
            assert port.words[port.head:] == list(model)

    def test_pops_across_the_compaction_bound(self):
        port = make_port(width=8, depth=32)
        port.push(list(range(199)), reserved=False)
        popped = []
        while port.occupancy > 3:  # 28 pops of 7 words
            popped += port.pop_words(7)
            assert port.head <= COMPACT_WORDS
            assert port.words[port.head:] == list(range(len(popped), 199))
        assert popped == list(range(196))
        assert port.pop_words(3) == [196, 197, 198]
        assert (port.words, port.head, port.free_words) == ([], 0, 256)

    def test_pop_all_after_partial_pops(self):
        port = make_port(width=8, depth=4)
        port.push([1, 2, 3, 4, 5], reserved=False)
        assert port.pop_words(2) == [1, 2]
        port.push([6], reserved=False)
        assert port.pop_words(4) == [3, 4, 5, 6]
        assert (port.occupancy, port.free_words, port.head) == (0, 32, 0)
        port.push([7], reserved=False)
        assert port.pop_words(1) == [7]

    def test_error_messages(self):
        port = make_port(width=1, depth=2)  # "in0", 2 words
        with pytest.raises(PortRuntimeError, match=r"^port in0: reserve "
                           r"3 > free 2$"):
            port.reserve(3)
        port.reserve(1)
        with pytest.raises(PortRuntimeError, match=r"^port in0: push "
                           r"2 exceeds reservation 1$"):
            port.push([1, 2])
        with pytest.raises(PortRuntimeError, match=r"^port in0: push "
                           r"2 > free 1$"):
            port.push([1, 2], reserved=False)
        with pytest.raises(PortRuntimeError, match=r"^port in0: pop "
                           r"1 > occupancy 0$"):
            port.pop_words(1)
        port.push([9])
        with pytest.raises(PortRuntimeError, match=r"^port in0: pop "
                           r"2 > occupancy 1$"):
            port.pop_words(2)


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

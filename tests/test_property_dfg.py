"""Property-based tests (hypothesis) for core data structures and invariants.

Key invariants:

* ``CompiledDfg`` (the simulator's fast executor) is observationally
  equivalent to ``Dfg.execute`` on random graphs and random inputs.
* The affine AGU's line requests partition the element stream exactly —
  every element served once, in order, and every request within one line.
* Random valid DFGs always schedule with initiation interval 1 and with
  placement/capability/delay invariants intact.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgra import broadly_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import Dfg, ValueRef
from repro.core.dfg.instructions import WORD_MASK
from repro.core.isa.patterns import Affine2D, LINE_BYTES, affine_requests
# The random-DFG pool lives in the fuzz package now (the fuzzer and these
# property tests share one generator); re-exported here for hypothesis use.
from repro.fuzz.generators import RANDOM_OPS, random_dfg, random_inputs
from repro.sim.cgra_exec import CompiledDfg

from .test_property_fastpath import run_by_name

__all__ = ["RANDOM_OPS", "random_dfg", "random_inputs"]


class TestCompiledEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        num_inputs=st.integers(1, 3),
        num_insts=st.integers(1, 25),
        data_seed=st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_compiled_matches_interpreter(
        self, seed, num_inputs, num_insts, data_seed
    ):
        dfg = random_dfg(seed, num_inputs, num_insts)
        compiled = CompiledDfg(dfg)
        state_i = dfg.make_state()
        state_c = compiled.make_state()
        for round_no in range(3):
            inputs = random_inputs(dfg, data_seed + round_no)
            expected = dfg.execute(inputs, state_i)
            got = run_by_name(compiled, inputs, state_c)
            assert got == expected

    @given(seed=st.integers(0, 3_000), rounds=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_accumulator_state_equivalence(self, seed, rounds):
        rng = random.Random(seed)
        dfg = Dfg("accrand")
        dfg.add_input("A", 1)
        dfg.add_input("R", 1)
        op = rng.choice(["acc", "accmin", "accmax"])
        dfg.add_instruction("a", op, [ValueRef("A", 0), ValueRef("R", 0)])
        dfg.add_output("O", [ValueRef("a")])
        compiled = CompiledDfg(dfg)
        state_i, state_c = dfg.make_state(), compiled.make_state()
        for _ in range(rounds):
            inputs = {
                "A": [rng.randint(0, WORD_MASK)],
                "R": [rng.randint(0, 1)],
            }
            assert (run_by_name(compiled, inputs, state_c)
                    == dfg.execute(inputs, state_i))


class TestAffinePartition:
    @given(
        start=st.integers(0, 10_000),
        access_words=st.integers(1, 32),
        stride=st.integers(0, 600),
        strides=st.integers(1, 40),
        elem=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_requests_partition_stream(
        self, start, access_words, stride, strides, elem
    ):
        pattern = Affine2D(start, access_words * elem, stride, strides, elem)
        served = [
            addr
            for request in affine_requests(pattern)
            for addr in request.element_addrs
        ]
        assert served == list(pattern.element_addresses())

    @given(
        start=st.integers(0, 10_000),
        access_words=st.integers(1, 32),
        stride=st.integers(0, 600),
        strides=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_requests_stay_in_line(self, start, access_words, stride, strides):
        pattern = Affine2D(start, access_words * 8, stride, strides, 8)
        for request in affine_requests(pattern):
            assert request.line_addr % LINE_BYTES == 0
            for addr in request.element_addrs:
                assert request.line_addr <= addr < request.line_addr + LINE_BYTES


class TestSchedulerInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_small_dfgs_schedule(self, seed):
        rng = random.Random(seed + 500)
        dfg = random_dfg(seed + 500, rng.randint(1, 2), rng.randint(2, 10))
        if dfg.num_instructions > 18:
            pytest.skip("fabric too small for this sample")
        fabric = broadly_provisioned()
        try:
            config = schedule(dfg, fabric)
        except Exception as exc:  # port shapes may not fit; that's fine
            from repro.core.compiler import SchedulingError

            assert isinstance(exc, SchedulingError)
            return
        assert config.initiation_interval == 1
        coords = list(config.placement.values())
        assert len(coords) == len(set(coords))
        for name, coord in config.placement.items():
            assert fabric.pes[coord].supports(dfg.instructions[name].op.name)
        assert config.latency >= dfg.latency

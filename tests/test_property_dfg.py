"""Property-based tests (hypothesis) for core data structures and invariants.

Key invariants:

* ``CompiledDfg`` (the simulator's fast executor) is observationally
  equivalent to ``Dfg.execute`` on random graphs and random inputs, and
  every op at every lane width agrees on edge words (the kernel
  exactness table).
* The affine AGU's line requests partition the element stream exactly —
  every element served once, in order, and every request within one line.
* Random valid DFGs always schedule with initiation interval 1 and with
  placement/capability/delay invariants intact.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgra import broadly_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import Constant, Dfg, ValueRef
from repro.core.dfg.instructions import (
    ACCUMULATOR_OPS,
    SUBWORD_WIDTHS,
    WORD_BITS,
    WORD_MASK,
    all_operations,
    join_lanes,
)
from repro.core.isa.patterns import Affine2D, LINE_BYTES, affine_requests
# The random-DFG pool lives in the fuzz package now (the fuzzer and these
# property tests share one generator); re-exported here for hypothesis use.
from repro.fuzz.generators import RANDOM_OPS, random_dfg, random_inputs
from repro.sim import cgra_exec
from repro.sim.cgra_exec import CompiledDfg, compile_dfg

from .test_property_fastpath import run_by_name

__all__ = ["RANDOM_OPS", "random_dfg", "random_inputs"]


def count_compiles(monkeypatch):
    """Empty the compile memo and record every graph compiled from now on."""
    cgra_exec._compile.cache_clear()
    compiled = []
    init = CompiledDfg.__init__

    def counted(self, dfg):
        compiled.append(dfg)
        init(self, dfg)

    monkeypatch.setattr(CompiledDfg, "__init__", counted)
    return compiled


class TestCompileMemo:
    def test_one_compile_per_graph(self, monkeypatch):
        compiled = count_compiles(monkeypatch)
        dfg = random_dfg(1, 2, 6)
        first = compile_dfg(dfg)
        assert compile_dfg(dfg) is first
        assert compiled == [dfg]

    def test_mutated_graph_is_compiled_again(self, monkeypatch):
        """A graph changed after it was compiled is never served the stale
        compile: each ``add_*`` call changes what the compile must hold."""
        compiled = count_compiles(monkeypatch)
        dfg = Dfg("grow")
        dfg.add_input("A", 1)
        dfg.add_instruction("x", "add", [ValueRef("A"), Constant(2)])
        dfg.add_output("O", [ValueRef("x")])
        first = compile_dfg(dfg)
        dfg.add_instruction("y", "mul", [ValueRef("x"), Constant(3)])
        dfg.add_output("P", [ValueRef("y")])
        second = compile_dfg(dfg)
        assert second is not first and len(compiled) == 2
        assert run_by_name(second, {"A": [5]}, []) == dfg.execute({"A": [5]})
        dfg.add_input("B", 2)
        assert compile_dfg(dfg).num_inputs == 3
        assert compile_dfg(dfg) is compile_dfg(dfg)
        assert len(compiled) == 3

    def test_memo_keeps_the_most_recently_used_graphs(self, monkeypatch):
        compiled = count_compiles(monkeypatch)
        size = cgra_exec.COMPILE_CACHE_SIZE
        graphs = [random_dfg(seed, 1, 3) for seed in range(size + 1)]
        first = compile_dfg(graphs[0])
        for dfg in graphs[1:size]:
            compile_dfg(dfg)
        assert compile_dfg(graphs[0]) is first  # now the most recent
        compile_dfg(graphs[size])  # evicts graphs[1], not graphs[0]
        assert compile_dfg(graphs[0]) is first
        compile_dfg(graphs[1])
        assert compiled == graphs + [graphs[1]]


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


def lane_word(lane_bits, value, only=None):
    """A word with ``value`` in every lane, or in lane ``only`` alone."""
    lanes = WORD_BITS // lane_bits
    return join_lanes([value if only in (None, lane) else 0
                       for lane in range(lanes)], lane_bits)


def edge_words(lane_bits):
    """0, all-ones, and words with every lane, or one lane, at its max,
    min, -1 or 1.  Their pairs include lane sums that carry into a lane's
    top bit (max + 1) and out of it across the lane boundary (-1 + 1,
    min + min)."""
    top = 1 << (lane_bits - 1)
    words = {0, WORD_MASK}
    for value in (top - 1, top, -1, 1):
        words.add(lane_word(lane_bits, value))
        for lane in range(WORD_BITS // lane_bits):
            words.add(lane_word(lane_bits, value, lane))
    return sorted(words)


def _kernel_cases(lane_bits, arity, seed):
    """Operand tuples: every tuple of edge words (of every third edge
    word for three operands), then 64 random tuples."""
    edges = edge_words(lane_bits)
    if arity == 3:
        edges = edges[::3]
    rng = random.Random(seed)
    yield from itertools.product(edges, repeat=arity)
    for _ in range(64):
        yield tuple(rng.randint(0, WORD_MASK) for _ in range(arity))


def _mismatch_report(op, lane_bits, mismatches):
    shown = "\n".join(
        f"  {label}: operands {' '.join(f'{w:#x}' for w in operands)}: "
        f"compiled {got:#x}, Dfg.execute {want:#x}"
        for label, operands, got, want in mismatches[:6])
    return (f"{op} at {lane_bits}-bit lanes: {len(mismatches)} mismatches"
            f"\n{shown}")


class TestKernelExactness:
    """Every op in the registry at every lane width: ``CompiledDfg``
    (whose word-parallel kernels are picked per op, width and arity)
    equals ``Dfg.execute`` on edge words and random words.  Accumulators
    run over a firing sequence with resets and compare their state too."""

    @pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
    @pytest.mark.parametrize(
        "op", [op for op in all_operations() if op.name not in ACCUMULATOR_OPS],
        ids=lambda op: op.name)
    def test_op_matches_interpreter(self, op, lane_bits):
        variants = [(op.arity, None)]
        if op.arity > 1:
            # the last operand a constant, which kernels read from its
            # own value slot
            variants.append((op.arity - 1,
                             lane_word(lane_bits, 1 << (lane_bits - 1))))
        mismatches = []
        for ports, constant in variants:
            names = "ABC"[:ports]
            dfg = Dfg(f"{op.name}{lane_bits}")
            for name in names:
                dfg.add_input(name, 1)
            operands = [ValueRef(name) for name in names]
            if constant is not None:
                operands.append(Constant(constant))
            dfg.add_instruction("x", op.name, operands, lane_bits)
            dfg.add_output("O", [ValueRef("x")])
            compiled = CompiledDfg(dfg)
            for words in _kernel_cases(lane_bits, ports, op.name):
                inputs = {name: [word] for name, word in zip(names, words)}
                (want,) = dfg.execute(inputs)["O"]
                (got,) = run_by_name(compiled, inputs, [])["O"]
                if got != want:
                    shown = words if constant is None else words + (constant,)
                    label = "ports" if constant is None else "constant"
                    mismatches.append((label, shown, got, want))
        assert not mismatches, _mismatch_report(op.name, lane_bits,
                                                mismatches)

    @pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
    @pytest.mark.parametrize("op", sorted(ACCUMULATOR_OPS))
    def test_accumulator_matches_interpreter(self, op, lane_bits):
        dfg = Dfg(f"{op}{lane_bits}")
        dfg.add_input("A", 1)
        dfg.add_input("R", 1)
        dfg.add_instruction("a", op, [ValueRef("A"), ValueRef("R")],
                            lane_bits)
        dfg.add_output("O", [ValueRef("a")])
        compiled = CompiledDfg(dfg)
        state_i, state_c = dfg.make_state(), compiled.make_state()
        rng = random.Random(op)
        values = edge_words(lane_bits) * 2 + [
            rng.randint(0, WORD_MASK) for _ in range(64)]
        mismatches = []
        for firing, value in enumerate(values):
            # resets by 1 and by an all-ones word, at uneven intervals
            reset = (0, 0, 1, 0, 0, 0, WORD_MASK)[firing % 7]
            inputs = {"A": [value], "R": [reset]}
            (want,) = dfg.execute(inputs, state_i)["O"]
            (got,) = run_by_name(compiled, inputs, state_c)["O"]
            if got != want or state_c != [state_i["a"]]:
                mismatches.append((f"firing {firing}", (value, reset),
                                   got, want))
        assert not mismatches, _mismatch_report(op, lane_bits, mismatches)


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
        coords = list(config.placement.values())
        assert len(coords) == len(set(coords))
        for name, coord in config.placement.items():
            assert fabric.pes[coord].supports(dfg.instructions[name].op.name)
        assert config.latency >= dfg.latency

"""Unit + property tests for mini-Aladdin: DDG, scheduler, power/area, DSE."""

from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.asic import (
    OP_COSTS,
    AsicDesign,
    AsicEstimate,
    Ddg,
    Evaluator,
    ScheduleResult,
    TraceBuilder,
    estimate_power_area,
    explore_design_space,
    local_sram_kb,
    schedule_ddg,
    select_iso_performance,
)
from repro.baselines.asic.ddg import OP_RESOURCE
from repro.baselines.asic.dse import DEFAULT_PARTITION, DEFAULT_UNROLL
from repro.workloads.machsuite import (
    MACHSUITE,
    backprop_ddg,
    fft_asic_base,
    fft_ddg,
)


def vector_scale_ddg(n=32, factor=3):
    t = TraceBuilder("scale")
    t.array("a", list(range(n)))
    t.array("out", [0] * n)
    c = t.const(factor)
    for i in range(n):
        t.store("out", i, t.mul(t.load("a", i), c))
    return t


def naive_schedule(ddg, design):
    """Reference list scheduler: probe cycle by cycle for a free slot.

    O(ops x cycles) once a resource saturates; kept only as the oracle
    that :func:`schedule_ddg`'s free-slot map must match exactly.
    """
    resources = design.resources
    usage = {name: defaultdict(int) for name in resources}
    finish = [0] * ddg.num_ops
    busy = {name: 0 for name in resources}
    last_cycle = 0
    for op, (kind, deps) in enumerate(zip(ddg.kinds, ddg.deps)):
        earliest = max((finish[dep] for dep in deps), default=0)
        resource = OP_RESOURCE[kind]
        limit = resources[resource]
        slot_usage = usage[resource]
        cycle = earliest
        while slot_usage[cycle] >= limit:
            cycle += 1
        slot_usage[cycle] += 1
        busy[resource] += 1
        finish[op] = cycle + OP_COSTS[kind][0]
        last_cycle = max(last_cycle, finish[op])
    return ScheduleResult(design, max(last_cycle, 1), ddg.num_ops, busy)


def schedule_key(result):
    return result.cycles, result.ops, result.resource_busy


@st.composite
def random_ddgs(draw):
    """Runs of one op kind, each op depending on up to three earlier ops,
    repeats allowed (a traced ``select`` has three operands).

    Long runs of loads/stores or divides saturate ``mem`` and ``div`` so
    the scheduler has to skip many full cycles.
    """
    ddg = Ddg("random")
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(OP_COSTS)))
        for _ in range(draw(st.integers(1, 40))):
            deps = []
            if ddg.num_ops:
                deps = draw(st.lists(st.integers(0, ddg.num_ops - 1), max_size=3))
            ddg.add(kind, deps)
    return ddg


asic_designs = st.builds(
    AsicDesign,
    unroll=st.sampled_from([1, 2, 3, 4, 8]),
    partition=st.sampled_from([1, 2, 4]),
    base_alu=st.integers(1, 3),
    base_mul=st.integers(1, 2),
    base_div=st.integers(1, 2),
    base_special=st.integers(1, 2),
    mem_ports_per_partition=st.integers(1, 2),
)


def _busy(alu=0, mul=0, div=0, special=0, mem=0):
    return {"alu": alu, "mul": mul, "div": div, "special": special,
            "mem": mem}


#: kernel -> (ops, resource_busy, cycles) of its default sweep from its
#: ``*_asic_base``: one row of cycles per unroll in ``DEFAULT_UNROLL``, one
#: column per partition in ``DEFAULT_PARTITION``.  ``resource_busy`` counts
#: ops per resource, so it is the same at every point.  Integers only:
#: power sums floats, whose result may change with the Python version.
SCHEDULE_LOCK = {
    "backprop": (3120, _busy(alu=1152, mul=768, mem=1200), (
        (606, 584, 584, 584), (605, 308, 298, 298), (605, 308, 164, 159),
        (605, 308, 164, 92), (605, 308, 164, 92))),
    "bfs": (5760, _busy(alu=1920, mem=3840), (
        (1925, 966, 506, 492), (1925, 966, 487, 365), (1925, 966, 487, 365),
        (1925, 966, 487, 365), (1925, 966, 487, 365))),
    "fft": (4224, _busy(alu=1536, mul=768, mem=1920), (
        (966, 486, 392, 392), (966, 485, 246, 200), (966, 485, 246, 126),
        (966, 485, 246, 126), (966, 485, 246, 126))),
    "gemm": (55872, _busy(alu=13824, mul=13824, mem=28224), (
        (14119, 7074, 6931, 6931), (14119, 7074, 3552, 3481),
        (14119, 7074, 3552, 1791), (14119, 7074, 3552, 1791),
        (14119, 7074, 3552, 1791))),
    "md": (17856, _busy(alu=6912, mul=6144, div=1536, mem=3264), (
        (1765, 1752, 1751, 1751), (1668, 900, 888, 887),
        (1668, 852, 472, 459), (1668, 852, 449, 259), (1668, 852, 449, 248))),
    "nw": (7488, _busy(alu=4032, mem=3456), (
        (1805, 1102, 1098, 1098), (1806, 962, 608, 607),
        (1806, 962, 539, 357), (1806, 962, 539, 339), (1806, 962, 539, 339))),
    "spmv-crs": (3476, _busy(alu=676, mul=676, mem=2124), (
        (1069, 683, 683, 683), (1069, 539, 348, 348), (1069, 539, 277, 183),
        (1069, 539, 277, 148), (1069, 539, 277, 148))),
    "spmv-ellpack": (3936, _busy(alu=768, mul=768, mem=2400), (
        (1207, 775, 775, 775), (1207, 608, 395, 395), (1207, 608, 311, 205),
        (1207, 608, 311, 163), (1207, 608, 311, 163))),
    "stencil": (18944, _busy(alu=4608, mul=4608, mem=9728), (
        (4871, 2443, 2315, 2315), (4871, 2443, 1229, 1165),
        (4871, 2443, 1229, 622), (4871, 2443, 1229, 622),
        (4871, 2443, 1229, 622))),
    "stencil3d": (16000, _busy(alu=6000, mul=2000, mem=8000), (
        (4007, 2008, 1508, 1508), (4007, 2008, 1009, 759),
        (4007, 2008, 1009, 509), (4007, 2008, 1009, 509),
        (4007, 2008, 1009, 509))),
    "viterbi": (24288, _busy(alu=11776, mem=12512), (
        (6261, 3140, 2955, 2955), (6261, 3140, 1580, 1486),
        (6261, 3140, 1580, 800), (6261, 3140, 1580, 800),
        (6261, 3140, 1580, 800))),
}


class TestTraceBuilder:
    def test_computes_real_values(self):
        t = vector_scale_ddg(8, 5)
        assert t.array_values("out") == [i * 5 for i in range(8)]

    def test_all_ops_recorded(self):
        t = vector_scale_ddg(8)
        histogram = t.ddg.op_histogram()
        assert histogram == {"load": 8, "mul": 8, "store": 8}

    def test_data_dependences(self):
        t = TraceBuilder("dep")
        t.array("a", [1])
        t.array("o", [0])
        x = t.load("a", 0)
        y = t.add(x, t.const(1))
        t.store("o", 0, y)
        assert y.node in t.ddg.deps[-1]

    def test_load_after_store_dependence(self):
        t = TraceBuilder("raw")
        t.array("a", [0])
        t.store("a", 0, t.const(5))
        loaded = t.load("a", 0)
        assert loaded.value == 5
        assert 0 in t.ddg.deps[loaded.node]

    def test_store_after_load_dependence(self):
        t = TraceBuilder("war")
        t.array("a", [1])
        loaded = t.load("a", 0)
        t.store("a", 0, t.const(2))
        assert loaded.node in t.ddg.deps[-1]

    def test_independent_elements_no_dependence(self):
        t = TraceBuilder("indep")
        t.array("a", [1, 2])
        t.store("a", 0, t.const(9))
        loaded = t.load("a", 1)
        assert t.ddg.deps[loaded.node] == ()

    def test_traced_arithmetic(self):
        t = TraceBuilder("ops")
        t.array("x", [0])
        a, b = t.const(10), t.const(3)
        assert t.sub(a, b).value == 7
        assert t.div(a, b).value == 3
        assert t.minimum(a, b).value == 3
        assert t.maximum(a, b).value == 10
        assert t.compare_eq(a, a).value == 1
        assert t.select(t.const(0), a, b).value == 3
        assert t.shift_right(a, 1).value == 5
        assert t.special(lambda v: v + 100, a).value == 110

    def test_divide_is_exact_beyond_float_precision(self):
        # Truncating division on ints: |x| > 2^53 does not round through
        # a float.
        big = 2**60 + 7
        for x, y, q in [(big, 3, big // 3), (-big, 3, -(big // 3)),
                        (big, -3, -(big // 3)), (-7, 2, -3), (5, 0, -1)]:
            t = TraceBuilder("div")
            assert t.div(t.const(x), t.const(y)).value == q
            assert Evaluator().div(x, y) == q

    def test_evaluator_computes_the_traced_values(self):
        ev, t = Evaluator(), TraceBuilder("same")
        for a, b in [(10, 3), (-7, 2), (4, 4), (0, -5)]:
            for op in ("add", "sub", "mul", "div", "minimum", "maximum",
                       "compare_eq"):
                traced = getattr(t, op)(t.const(a), t.const(b))
                assert traced.value == getattr(ev, op)(a, b), op
            assert (t.select(t.const(a), t.const(a), t.const(b)).value
                    == ev.select(a, a, b))
            assert t.shift_right(t.const(a), 1).value == ev.shift_right(a, 1)

    def test_loaded_value_addresses_a_load(self):
        t = TraceBuilder("gather")
        t.array("idx", [2])
        t.array("a", [10, 20, 30])
        got = t.load("a", t.load("idx", 0))
        assert got.value == 30
        assert t.ddg.mem_arrays[got.node] == "a"
        index = t.ddg.mem_indices[got.node]
        assert type(index) is int and index == 2

    def test_critical_path(self):
        t = TraceBuilder("chain")
        t.array("a", [1])
        v = t.load("a", 0)  # latency 2
        for _ in range(5):
            v = t.add(v, t.const(1))  # 5 x latency 1
        assert t.ddg.critical_path() == 7

    def test_unknown_op_kind(self):
        t = TraceBuilder("bad")
        with pytest.raises(KeyError):
            t.ddg.add("teleport", [])


class TestScheduling:
    def test_critical_path_is_lower_bound(self):
        ddg = vector_scale_ddg(16).ddg
        result = schedule_ddg(ddg, AsicDesign(unroll=16, partition=8))
        assert result.cycles >= ddg.critical_path()

    def test_more_resources_never_slower(self):
        ddg = vector_scale_ddg(64).ddg
        slow = schedule_ddg(ddg, AsicDesign(unroll=1, partition=1))
        fast = schedule_ddg(ddg, AsicDesign(unroll=8, partition=8))
        assert fast.cycles <= slow.cycles

    def test_resource_limits_respected(self):
        # 1 memory port: 64 loads + 64 stores serialise to >= 128 cycles
        ddg = vector_scale_ddg(64).ddg
        design = AsicDesign(unroll=1, partition=1, mem_ports_per_partition=1)
        result = schedule_ddg(ddg, design)
        assert result.cycles >= 128

    def test_busy_counters(self):
        ddg = vector_scale_ddg(8).ddg
        result = schedule_ddg(ddg, AsicDesign())
        assert result.resource_busy["mem"] == 16
        assert result.resource_busy["mul"] == 8

    @given(unroll=st.sampled_from([1, 2, 4, 8]), partition=st.sampled_from([1, 2, 4]))
    @settings(max_examples=12, deadline=None)
    def test_schedule_deterministic(self, unroll, partition):
        ddg = vector_scale_ddg(32).ddg
        design = AsicDesign(unroll=unroll, partition=partition)
        assert schedule_ddg(ddg, design).cycles == schedule_ddg(ddg, design).cycles


class TestScheduleExactness:
    """The free-slot map places every op where the linear probe would."""

    @given(ddg=random_ddgs(), design=asic_designs)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_probe(self, ddg, design):
        assert schedule_key(schedule_ddg(ddg, design)) == schedule_key(
            naive_schedule(ddg, design)
        )

    def test_matches_naive_probe_on_real_kernel(self):
        ddg, base = fft_ddg(), fft_asic_base()
        for unroll in DEFAULT_UNROLL:
            for partition in DEFAULT_PARTITION:
                design = replace(base, unroll=unroll, partition=partition)
                assert schedule_key(schedule_ddg(ddg, design)) == schedule_key(
                    naive_schedule(ddg, design)
                ), design.label()


class TestScheduleLock:
    """Every MachSuite kernel's default sweep, pinned point by point."""

    def test_every_kernel_locked(self):
        assert set(SCHEDULE_LOCK) == set(MACHSUITE)

    @pytest.mark.parametrize("kernel", sorted(SCHEDULE_LOCK))
    def test_default_sweep(self, kernel):
        _, ddg_fn, _, base_fn = MACHSUITE[kernel]
        ddg, base = ddg_fn(), base_fn()
        ops, busy, cycles = SCHEDULE_LOCK[kernel]
        got = tuple(
            tuple(schedule_ddg(ddg, replace(base, unroll=unroll,
                                            partition=partition))
                  for partition in DEFAULT_PARTITION)
            for unroll in DEFAULT_UNROLL
        )
        assert tuple(tuple(r.cycles for r in row) for row in got) == cycles
        for row in got:
            for result in row:
                assert (result.ops, result.resource_busy) == (ops, busy)


class TestRunningTotals:
    @pytest.mark.parametrize(
        "build",
        [lambda: vector_scale_ddg(16).ddg, fft_ddg, backprop_ddg],
        ids=["scale", "fft", "backprop"],
    )
    def test_totals_match_a_fresh_count(self, build):
        ddg = build()
        assert ddg.op_histogram() == dict(Counter(ddg.kinds))
        assert ddg.total_energy_pj() == sum(OP_COSTS[k][1] for k in ddg.kinds)

    def test_energy_total_follows_later_adds(self):
        ddg = vector_scale_ddg(4).ddg
        before = ddg.total_energy_pj()
        ddg.add("div", [])
        assert ddg.total_energy_pj() == sum(OP_COSTS[k][1] for k in ddg.kinds)
        assert ddg.total_energy_pj() > before

    def test_histogram_is_a_copy(self):
        ddg = vector_scale_ddg(4).ddg
        ddg.op_histogram()["load"] = 99
        assert ddg.op_histogram()["load"] == 4


class TestPowerArea:
    def test_bigger_designs_cost_more(self):
        ddg = vector_scale_ddg(64).ddg
        small = estimate_power_area(ddg, schedule_ddg(ddg, AsicDesign(unroll=1)))
        big = estimate_power_area(ddg, schedule_ddg(ddg, AsicDesign(unroll=8)))
        assert big.area_mm2 > small.area_mm2
        assert big.power_mw > small.power_mw  # leakage dominates

    def test_sram_grows_with_partitioning(self):
        ddg = vector_scale_ddg(64).ddg
        assert local_sram_kb(ddg, AsicDesign(partition=8)) > local_sram_kb(
            ddg, AsicDesign(partition=1)
        )


class TestDse:
    def test_sweep_covers_grid(self):
        points = explore_design_space(vector_scale_ddg(32).ddg)
        assert len(points) == 20  # 5 unrolls x 4 partitions
        labels = {p.design.label() for p in points}
        assert "u1p1" in labels and "u16p8" in labels

    def test_iso_selection_prefers_band(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        slowest = max(p.cycles for p in points)
        chosen = select_iso_performance(points, target_cycles=slowest)
        assert chosen.cycles <= slowest * 1.1

    def test_iso_selection_power_priority(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        target = max(p.cycles for p in points) * 2  # everything qualifies
        chosen = select_iso_performance(points, target)
        assert chosen.power_mw == min(p.power_mw for p in points)

    def test_unreachable_target_picks_fastest_available(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        chosen = select_iso_performance(points, target_cycles=1)
        fastest = min(p.cycles for p in points)
        assert chosen.cycles == fastest

    def test_no_band_point_picks_lowest_power_fast_enough(self):
        def point(cycles, power_mw, area_mm2):
            return AsicEstimate("k", AsicDesign(), cycles, power_mw, area_mm2, 1.0)

        cheap_fast = point(50, power_mw=10.0, area_mm2=1.0)
        closer = point(85, power_mw=20.0, area_mm2=0.5)
        too_slow = point(200, power_mw=1.0, area_mm2=0.1)
        # Nothing lies within 90..110 cycles: every at-least-as-fast point
        # goes to the Pareto pick, so power wins over closeness in cycles.
        chosen = select_iso_performance([closer, cheap_fast, too_slow], 100)
        assert chosen is cheap_fast

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_iso_performance([], 100)

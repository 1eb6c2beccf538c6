"""The benchmark's three workloads and the program entry points they call.

Each workload is a closed loop: one client runs one operation at a time,
and a *pass* is the workload's fixed list of operations.  The workload
seed is added to the default ``seed`` of every builder, so seed 0
reproduces the golden suite and the paper figures.

The program is called only through its public entry points with default
parameters, except that asic-dse gives ``explore_design_space`` one
design point of its default sweep at a time.  Calls made from this file go through module attributes
(``softbrain.run_program``, ``dse.explore_design_space``, ...) or through
the module-level helpers below, so a traced run can wrap them by patching
those names (see :func:`trace_points`).
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import power
from repro.baselines.asic import dse
from repro.fuzz import generators, oracle
from repro.sim import softbrain
from repro.workloads import machsuite
from repro.workloads.dnn import (
    DNN_LAYERS,
    DNN_LAYERS_BY_NAME,
    ClassifierLayer,
    ConvLayer,
    build_classifier,
    build_conv,
    build_dnn_layer,
    build_pool,
)
from repro.workloads.machsuite import MACHSUITE

ENGINES = ("mse_read", "mse_write", "sse", "rse")

#: the golden suite: every MachSuite kernel, then every DNN layer
SIM_SUITE: Tuple[str, ...] = tuple(MACHSUITE) + tuple(
    layer.name for layer in DNN_LAYERS)

#: the Section 7.3 kernels whose sweeps take seconds, not minutes; gemm,
#: viterbi and stencil3d are left out because their sweeps take ~117 s
ASIC_KERNELS: Tuple[str, ...] = (
    "bfs", "spmv-crs", "spmv-ellpack", "stencil", "md", "fft", "nw",
    "backprop",
)

#: kernel -> (DDG builder, its non-seed arguments)
DDG_BUILDERS: Dict[str, Tuple[Callable, dict]] = {
    "bfs": (machsuite.bfs.bfs_ddg, {}),
    "spmv-crs": (machsuite.spmv.spmv_ddg, {"kind": "crs"}),
    "spmv-ellpack": (machsuite.spmv.spmv_ddg, {"kind": "ellpack"}),
    "stencil": (machsuite.stencil2d.stencil2d_ddg, {}),
    "md": (machsuite.md_knn.md_ddg, {}),
    "fft": (machsuite.fft.fft_ddg, {}),
    "nw": (machsuite.nw.nw_ddg, {}),
    "backprop": (machsuite.backprop.backprop_ddg, {}),
}

FUZZ_CASES = 2000


@dataclass
class Outcome:
    """What one operation produced."""

    #: units of work done: simulated cycles or scheduled design points
    work: int
    #: exact simulated counts; a later pass must reproduce them
    counts: Dict[str, int]
    #: why the operation failed, when it completed but its output is wrong
    error: Optional[str] = None


@dataclass
class Workload:
    name: str
    #: what ``Outcome.work`` counts: ``sim_cycles`` or ``dse_points``
    work_unit: str
    ops: List[Tuple[str, Callable[[], Outcome]]] = field(default_factory=list)


def seeded(builder: Callable, seed: int) -> int:
    """The builder's default ``seed`` plus the workload seed."""
    return inspect.signature(builder).parameters["seed"].default + seed


def _dnn_builder(layer) -> Callable:
    if isinstance(layer, ClassifierLayer):
        return build_classifier
    if isinstance(layer, ConvLayer):
        return build_conv
    return build_pool


def build_golden(name: str, seed: int):
    """Build one golden-suite workload (a fresh, cold MemorySystem)."""
    if name in MACHSUITE:
        builder = MACHSUITE[name][0]
        return builder(seed=seeded(builder, seed))
    layer = DNN_LAYERS_BY_NAME[name]
    return build_dnn_layer(layer, seed=seeded(_dnn_builder(layer), seed))


def verify_outputs(built) -> None:
    """Check the simulated memory against the reference implementation."""
    built.verify(built.memory)


def build_ddg(kernel: str, seed: int):
    builder, kwargs = DDG_BUILDERS[kernel]
    return builder(seed=seeded(builder, seed), **kwargs)


def model_counts(result) -> Dict[str, int]:
    """The modelled design's exact counts from one ``RunResult``."""
    stats = result.stats
    counts = {
        "cycles": stats.cycles,
        "instances_fired": stats.instances_fired,
        "ops_executed": stats.ops_executed,
        "commands_issued": stats.commands_issued,
        "cgra_stall_no_input": stats.cgra_stall_no_input,
        "cgra_stall_no_output_room": stats.cgra_stall_no_output_room,
    }
    for engine in ENGINES:
        counts[f"engine_busy.{engine}"] = stats.engine_busy.get(engine, 0)
    counts["mem.hits"] = result.memory.stats.hits
    counts["mem.misses"] = result.memory.stats.misses
    counts["scratch.reads"] = result.scratchpad.stats.reads
    counts["scratch.writes"] = result.scratchpad.stats.writes
    return counts


def simulate(built):
    return softbrain.run_program(built.program, fabric=built.fabric,
                                 memory=built.memory)


# -- sim-suite ----------------------------------------------------------------

def _sim_op(name: str, seed: int) -> Outcome:
    built = build_golden(name, seed)
    result = simulate(built)
    verify_outputs(built)
    power.estimate_power(result, built.fabric)
    return Outcome(result.cycles, model_counts(result))


def sim_suite(seed: int, names: Optional[Tuple[str, ...]] = None) -> Workload:
    names = SIM_SUITE if names is None else names
    work = Workload("sim-suite", "sim_cycles")
    for name in names:
        work.ops.append((name, lambda name=name: _sim_op(name, seed)))
    return work


# -- asic-dse -----------------------------------------------------------------

#: the default sweep of ``explore_design_space``, one design point at a time
DESIGN_POINTS: Tuple[Tuple[int, int], ...] = tuple(
    (unroll, partition) for unroll in dse.DEFAULT_UNROLL
    for partition in dse.DEFAULT_PARTITION)


def _asic_point_op(ddg, base, unroll: int, partition: int,
                   row: Dict[Tuple[int, int], object]) -> Outcome:
    (point,) = dse.explore_design_space(
        ddg, unroll_factors=(unroll,), partition_factors=(partition,),
        base=base)
    row[unroll, partition] = point
    return Outcome(1, {"schedule_cycles": point.cycles,
                       "ops_scheduled": ddg.num_ops})


def _asic_select_op(row: Dict[Tuple[int, int], object],
                    target_cycles: int) -> Outcome:
    points = [row[key] for key in DESIGN_POINTS]
    chosen = dse.select_iso_performance(points, target_cycles=target_cycles)
    return Outcome(0, {"chosen_cycles": chosen.cycles})


def asic_dse(seed: int, kernels: Optional[Tuple[str, ...]] = None) -> Workload:
    """Set-up builds each kernel's DDG and simulates the kernel on Softbrain
    once for its target cycles.

    A kernel's Section 7.3 row is 21 operations: one per design point of
    the default sweep, in ``explore_design_space``'s order, then
    ``select_iso_performance`` over the points this pass scheduled.  A
    pass takes ~15 s but one point at most ~2 s, so a run's fastest time
    of each operation comes from short, separately timed calls.
    """
    kernels = ASIC_KERNELS if kernels is None else kernels
    work = Workload("asic-dse", "dse_points")
    for kernel in kernels:
        built = build_golden(kernel, seed)
        target = simulate(built).cycles
        verify_outputs(built)
        ddg = build_ddg(kernel, seed)
        base = MACHSUITE[kernel][3]()
        row: Dict[Tuple[int, int], object] = {}
        for unroll, partition in DESIGN_POINTS:
            work.ops.append((
                f"{kernel}:u{unroll}p{partition}",
                lambda d=ddg, b=base, u=unroll, p=partition, r=row:
                    _asic_point_op(d, b, u, p, r)))
        work.ops.append((f"{kernel}:select",
                         lambda r=row, t=target: _asic_select_op(r, t)))
    return work


# -- fuzz-oracle --------------------------------------------------------------

def _fuzz_op(plan) -> Outcome:
    report = oracle.run_case(plan)
    counts = {"sim_cycles": report.sim_cycles,
              "divergences": len(report.divergences)}
    error = "; ".join(map(str, report.divergences)) or None
    return Outcome(report.sim_cycles, counts, error)


def fuzz_oracle(seed: int, cases: int = FUZZ_CASES) -> Workload:
    """Set-up draws the plans as ``python -m repro fuzz --seed`` does."""
    work = Workload("fuzz-oracle", "sim_cycles")
    for index in range(cases):
        plan = generators.random_plan(random.Random(f"{seed}:{index}"))
        work.ops.append((f"case{index}", lambda plan=plan: _fuzz_op(plan)))
    return work


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "sim-suite": sim_suite,
    "asic-dse": asic_dse,
    "fuzz-oracle": fuzz_oracle,
}


# -- traced runs ----------------------------------------------------------------

def trace_points():
    """What a traced run wraps: ``(functions, methods, counters)``.

    * functions: ``(span name, function)``; every module-level name bound
      to the function in ``repro.*`` and in this module is patched;
    * methods: ``(span name, class, attribute)``, patched on the class;
    * counters: like methods, but counted without a span (hot and cheap).
    """
    from repro.baselines.asic import power_area, schedule
    from repro.core.compiler import scheduler
    from repro.core.isa import interpreter
    from repro.fuzz import case
    from repro.sim.cgra_exec import CgraExecutor
    from repro.sim.control_core import ControlCore
    from repro.sim.dispatcher import Dispatcher
    from repro.sim.memory import MemorySystem
    from repro.sim.stream_engine import (
        MemReadEngine,
        MemWriteEngine,
        RecurrenceEngine,
        ScratchEngine,
        StreamEngineBase,
    )

    functions = [
        ("workloads.build", build_golden),
        ("workloads.verify", verify_outputs),
        ("core.compiler.schedule", scheduler.schedule),
        ("sim.run_program", softbrain.run_program),
        ("power.estimate_power", power.estimate_power),
        ("asic.ddg", build_ddg),
        ("asic.explore_design_space", dse.explore_design_space),
        ("asic.schedule_ddg", schedule.schedule_ddg),
        ("asic.estimate_power_area", power_area.estimate_power_area),
        ("asic.select_iso_performance", dse.select_iso_performance),
        ("fuzz.random_plan", generators.random_plan),
        ("fuzz.run_case", oracle.run_case),
        ("fuzz.build_case", case.build_case),
        ("fuzz.evaluate_case", oracle.evaluate_case),
        ("core.isa.interpret_program", interpreter.interpret_program),
    ]
    methods = [
        ("sim.init", softbrain.SoftbrainSim, "__init__"),
        ("sim.step", softbrain.SoftbrainSim, "step"),
        ("sim.control_core.tick", ControlCore, "tick"),
        ("sim.dispatcher.tick", Dispatcher, "tick"),
        ("sim.mse_read.tick", MemReadEngine, "tick"),
        ("sim.mse_write.tick", MemWriteEngine, "tick"),
        ("sim.sse.tick", ScratchEngine, "tick"),
        ("sim.rse.tick", RecurrenceEngine, "tick"),
        ("sim.cgra.init", CgraExecutor, "__init__"),
        ("sim.cgra.tick", CgraExecutor, "tick"),
    ]
    counters = [
        ("sim.memory.issue", MemorySystem, "issue"),
        ("sim.engine.accept", StreamEngineBase, "accept"),
    ]
    return functions, methods, counters

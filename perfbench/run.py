#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-suite --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload asic-dse --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics and writes its spans to ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import time

#: iterations of the reference loop
REFERENCE_LOOPS = 5000
#: the reference loop's time on the host that scaled seconds refer to: a
#: round figure near its time on the 2-vCPU Xeon VM (Python 3.11) the
#: benchmark was sized on
REFERENCE_S = 3.5e-4


def reference_s() -> float:
    """How slow the host is now: the fastest of three timings of a fixed
    pure-Python loop."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        started = clock()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        best = min(best, clock() - started)
    return best


def rescale(seconds: float, before: float, after: float) -> float:
    """Host seconds as they would read on a host where the reference loop
    takes ``REFERENCE_S``, given the loop's timings just before and after.

    A shared host can run everything 1.5x slower for seconds to minutes;
    the reference loop slows down with the program, so the ratio holds.
    """
    return seconds * REFERENCE_S * 2.0 / (before + after)


_STARTED_REFERENCE = reference_s()
_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").is_file() else None

#: fresh processes that repeat the set-up, so ``setup_s`` is a median
SETUP_REPEATS = 2
MIN_PASSES = 2
#: host seconds of operations between two runs of the reference loop
SEGMENT_S = 0.05


@dataclass
class PassLog:
    """Everything the measured passes of one run produced."""

    #: host seconds of each pass, the reference loop's runs left out
    walls: List[float] = field(default_factory=list)
    #: each pass's scaled seconds (see :func:`rescale`)
    scaled: List[float] = field(default_factory=list)
    #: op index -> its scaled seconds in each pass
    op_scaled: Dict[int, List[float]] = field(default_factory=dict)
    works: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: op index -> counts from the first pass that completed it
    first_counts: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: summed counts of the last pass
    pass_counts: Dict[str, int] = field(default_factory=dict)


def run_pass(workload, log: PassLog) -> None:
    """One pass: every operation once, one at a time.

    The reference loop runs before the first operation and then whenever
    ``SEGMENT_S`` of operations have run since it last ran.  The operations
    of each such segment are rescaled by the mean of the two reference
    timings around it.
    """
    clock = time.perf_counter
    work = 0
    totals: Dict[str, int] = {}
    reference = reference_s()
    segment: List[Tuple[int, float]] = []
    segment_s = wall = scaled = 0.0
    last = len(workload.ops) - 1
    for index, (label, op) in enumerate(workload.ops):
        log.attempted += 1
        op_started = clock()
        try:
            outcome = op()
        except Exception as exc:  # one failed operation must not end the run
            outcome = None
            log.failed += 1
            log.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        latency = clock() - op_started
        log.latencies.append(latency)
        segment.append((index, latency))
        segment_s += latency
        wall += latency
        if segment_s >= SEGMENT_S or index == last:
            after = reference_s()
            for done, seconds in segment:
                seconds = rescale(seconds, reference, after)
                log.op_scaled.setdefault(done, []).append(seconds)
                scaled += seconds
            reference = after
            segment = []
            segment_s = 0.0
        if outcome is None:
            continue
        work += outcome.work
        for key, value in outcome.counts.items():
            totals[key] = totals.get(key, 0) + value
        first = log.first_counts.setdefault(index, outcome.counts)
        if outcome.error is not None:
            log.failed += 1
            log.errors.append(f"{label}: {outcome.error}")
        elif first != outcome.counts:
            log.failed += 1
            log.errors.append(f"{label}: counts changed between passes: "
                              f"{first} then {outcome.counts}")
    log.walls.append(wall)
    log.scaled.append(scaled)
    log.works.append(work)
    log.pass_counts = totals


def measure(workload, seconds: float) -> PassLog:
    """Whole passes for at most ``seconds`` (at least ``MIN_PASSES``)."""
    log = PassLog()
    started = time.perf_counter()
    while True:
        run_pass(workload, log)
        elapsed = time.perf_counter() - started
        if (len(log.walls) >= MIN_PASSES
                and elapsed + statistics.median(log.walls) > seconds):
            return log


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile: a measured value, never a blend
    of two."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_in_fresh_process(workload: str, seed: int) -> float:
    """Import plus set-up time measured in a new interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(log: PassLog, setups: List[float]) -> Dict[str, float]:
    """``pass_s`` sums each operation's median scaled time over the passes,
    so a burst of host noise in one pass moves only the operations it hit.
    """
    pass_s = math.fsum(statistics.median(times)
                       for times in log.op_scaled.values())
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "work_per_s": statistics.median(log.works) / pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def latency_report(log: PassLog) -> str:
    """Operation latency percentiles, printed but not in ``metrics``.

    Only fuzz-oracle's operations form a distribution (these are its
    ``case_p50_ms`` and ``case_p90_ms``).  sim-suite and asic-dse run a
    fixed, uneven list whose percentiles jump between two operations from
    one seed to the next, so no bound could hold on them.
    """
    return (f"op_p50_ms {statistics.median(log.latencies) * 1e3:.6g} ms  "
            f"op_p90_ms {percentile(log.latencies, 90) * 1e3:.6g} ms  "
            f"({len(log.latencies)} samples)")


def per_layer(tracer, model: Dict[str, int], asic: Dict[str, int],
              divergences: int, overhead: float) -> Dict[str, float]:
    layers = tracer.layers()

    def row(name: str) -> Dict[str, float]:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics: Dict[str, float] = {}
    for name in ("workloads.build", "workloads.verify",
                 "core.compiler.schedule", "sim.run_program", "sim.init",
                 "sim.cgra.init", "power.estimate_power", "asic.ddg",
                 "asic.schedule_ddg", "asic.estimate_power_area",
                 "asic.select_iso_performance", "fuzz.build_case",
                 "fuzz.evaluate_case", "core.isa.interpret_program"):
        metrics[f"{name}.s"] = row(name)["self_s"]
    for name in ("core.compiler.schedule", "sim.run_program",
                 "asic.schedule_ddg", "sim.step", "sim.memory.issue",
                 "sim.engine.accept"):
        metrics[f"{name}.calls"] = row(name)["calls"]
    total = row("sim.run_program")["total_s"]
    metrics["sim.run_program.total_s"] = total
    metrics["sim.unattributed_share"] = (
        row("sim.run_program")["self_s"] / total if total else 0.0)
    metrics["sim.step.self_s"] = row("sim.step")["self_s"]
    for part in ("control_core", "dispatcher", "mse_read", "mse_write", "sse",
                 "rse", "cgra"):
        tick = row(f"sim.{part}.tick")
        metrics[f"sim.{part}.tick.s"] = tick["self_s"]
        metrics[f"sim.{part}.tick.calls"] = tick["calls"]
    step = row("sim.step")
    cycles = model.get("cycles", 0)
    metrics["sim.steps_per_cycle"] = step["calls"] / cycles if cycles else 0.0
    metrics["sim.us_per_step"] = (
        step["total_s"] / step["calls"] * 1e6 if step["calls"] else 0.0)
    for key in MODEL_KEYS:
        metrics[f"model.{key}"] = model.get(key, 0)
    ops = asic["ops"]
    metrics["asic.ops_scheduled"] = ops
    metrics["asic.us_per_op"] = (
        row("asic.schedule_ddg")["total_s"] / ops * 1e6 if ops else 0.0)
    metrics["asic.schedule_cycles"] = asic["cycles"]
    metrics["fuzz.divergences"] = divergences
    metrics["trace_overhead"] = overhead
    return metrics


MODEL_KEYS = (
    "cycles", "instances_fired", "ops_executed", "commands_issued",
    "cgra_stall_no_input", "cgra_stall_no_output_room",
    "engine_busy.mse_read", "engine_busy.mse_write", "engine_busy.sse",
    "engine_busy.rse", "mem.hits", "mem.misses", "scratch.reads",
    "scratch.writes",
)


def traced_run(suite, name: str, seed: int):
    """Traced set-up, one untraced pass, then one traced pass.

    Per-layer numbers cover the traced set-up and the traced pass; the
    untraced pass gives ``trace_overhead`` and a second pass whose counts
    the traced pass must reproduce exactly.
    """
    from spans import Tracer

    model: Dict[str, int] = {}
    asic = {"ops": 0, "cycles": 0}

    def observe_run(result) -> None:
        for key, value in suite.model_counts(result).items():
            model[key] = model.get(key, 0) + value

    def observe_schedule(result) -> None:
        asic["ops"] += result.ops
        asic["cycles"] += result.cycles

    tracer = Tracer()
    points = suite.trace_points()
    modules = [module for key, module in list(sys.modules.items())
               if key == "repro" or key.startswith("repro.")]
    modules.append(suite)
    observers = {"sim.run_program": observe_run,
                 "asic.schedule_ddg": observe_schedule}

    tracer.install(*points, modules, observers)
    try:
        workload = suite.WORKLOADS[name](seed)
    finally:
        tracer.restore()
    log = PassLog()
    run_pass(workload, log)
    tracer.install(*points, modules, observers)
    try:
        run_pass(workload, log)
    finally:
        tracer.restore()
    divergences = log.pass_counts.get("divergences", 0)
    overhead = log.scaled[1] / log.scaled[0]
    metrics = per_layer(tracer, model, asic, divergences, overhead)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.bin")
    return workload, log, metrics, tracer


def report_layers(tracer) -> None:
    print("traced layers (self time over traced set-up + one pass):")
    layers = tracer.layers()
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<32} {row['self_s']:10.4f} s self "
              f"{row['total_s']:10.4f} s total {row['calls']:>10} calls")


def result_line(correct: bool, log: PassLog, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-suite", "asic-dse", "fuzz-oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or BENCHMARK is None:
        print(f"error: no program to benchmark under {ROOT} "
              f"(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    if args.trace:
        workload, log, metrics, tracer = traced_run(suite, args.workload,
                                                    args.seed)
        report_layers(tracer)
        kind = "per_layer"
    else:
        workload = suite.WORKLOADS[args.workload](args.seed)
        setup = rescale(time.perf_counter() - _STARTED, _STARTED_REFERENCE,
                        reference_s())
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        log = measure(workload, args.seconds)
        setups = [setup] + [setup_in_fresh_process(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS)]
        metrics = end_to_end(log, setups)
        kind = "end_to_end"

    correct = log.failed == 0
    print(f"workload {workload.name}  seed {args.seed}  "
          f"passes {len(log.walls)}  ops/pass {len(workload.ops)}  "
          f"attempted {log.attempted}  failed {log.failed}  "
          f"error_rate {log.failed / log.attempted:.4g}")
    for error in log.errors[:10]:
        print(f"  FAILED {error}")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in log.walls))
    print("  scaled (s):     " + " ".join(f"{w:.3f}" for w in log.scaled))
    if kind == "end_to_end":
        print(f"  work_per_s is {workload.work_unit}_per_s; "
              + latency_report(log))
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for key, value in metrics.items():
        print(f"  {key:<36} {value:.6g} {units[key]}")
    print("counts per pass: " + json.dumps(log.pass_counts, sort_keys=True))
    print(result_line(correct, log, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

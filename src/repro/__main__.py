"""Command-line interface: run workloads and regenerate evaluation artefacts.

Usage::

    python -m repro list                      # available workloads/experiments
    python -m repro run gemm                  # simulate + verify one workload
    python -m repro run class1p --units 8     # a DNN layer on an 8-unit device
    python -m repro table1|table3|table4      # render a table
    python -m repro fig11|fig12|fig13|fig14|fig15
    python -m repro timeline gemm             # Figure 4(b)-style timeline
    python -m repro trace gemm --trace-out t.json   # structured trace + metrics
    python -m repro trace --schema            # the trace event vocabulary
    python -m repro fuzz --count 200 --seed 0 # differential fuzzing
    python -m repro fuzz --replay case.json   # replay a saved fuzz case
    python -m repro fuzz --smoke              # corpus replay + quick batch
    python -m repro fuzz --faults             # fuzz under injected faults
    python -m repro faults                    # fault-injection campaign
    python -m repro faults --show dump.json   # pretty-print a crash dump
    python -m repro profile gemm              # sampled host-time shares
                                              # (also: suite, fuzz --count N)

``run`` and ``timeline`` also accept ``--trace-out PATH`` to record a
trace alongside their normal output (``.jsonl`` = JSON Lines, anything
else = Chrome/Perfetto JSON; see docs/TRACING.md).
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_list(_args) -> int:
    from .workloads.dnn.layers import DNN_LAYERS
    from .workloads.machsuite import MACHSUITE

    print("DNN layers (Figure 11):")
    for layer in DNN_LAYERS:
        print(f"  {layer.name:<14} {layer.kind}")
    print("\nMachSuite kernels (Figures 12-15, Table 4):")
    for name in MACHSUITE:
        print(f"  {name}")
    print("\nexperiments: table1 table3 table4 fig11 fig12 fig13 fig14 fig15")
    return 0


def _build_units(name: str, units: int = 1):
    """One build per unit: a DNN layer partitioned across ``units``, or a
    MachSuite kernel on one unit."""
    from .workloads.dnn.layers import DNN_LAYERS_BY_NAME
    from .workloads.machsuite import MACHSUITE

    if units < 1:
        raise SystemExit(f"--units must be at least 1, not {units}")
    if name in DNN_LAYERS_BY_NAME:
        from .workloads.dnn import build_dnn_layer

        return [build_dnn_layer(name, unit_id=unit, num_units=units)
                for unit in range(units)]
    if name in MACHSUITE:
        if units != 1:
            raise SystemExit(f"--units partitions DNN layers only; "
                             f"{name!r} is a MachSuite kernel")
        return [MACHSUITE[name][0]()]
    raise SystemExit(f"unknown workload {name!r}; try 'python -m repro list'")


def _simulate(builts, sink):
    """Run one build alone, or several as one device on a shared memory,
    verifying every unit; returns the unit results and the device cycles."""
    from .workloads.common import run_and_verify, run_units_and_verify

    if len(builts) == 1:
        result = run_and_verify(builts[0], trace=sink)
        return [result], result.cycles
    device = run_units_and_verify(builts, trace=sink)
    return device.unit_results, device.cycles


def _file_sink(path):
    from .trace import sink_for_path

    return sink_for_path(path)


def _cmd_run(args) -> int:
    from .power import estimate_power

    builts = _build_units(args.workload, args.units)
    sink = _file_sink(args.trace_out) if args.trace_out else None
    started = time.time()
    try:
        results, cycles = _simulate(builts, sink)
    finally:
        if sink is not None:
            sink.close()
    wall = time.time() - started
    powers = [estimate_power(result, built.fabric)
              for built, result in zip(builts, results)]
    stats = [result.stats for result in results]
    ops = sum(s.ops_executed for s in stats)
    memory = results[0].memory  # the units share it
    if len(builts) == 1:
        verified, finish = "", ""
        power = f"{powers[0].total_mw:.1f} mW (one unit)"
    else:
        verified = f" on {len(builts)} units"
        finish = (f" (units finish {min(s.cycles for s in stats)}"
                  f"-{max(s.cycles for s in stats)})")
        power = (f"{min(p.total_mw for p in powers):.1f}"
                 f"-{max(p.total_mw for p in powers):.1f} mW per unit")
    print(f"{builts[0].name}: verified OK{verified}")
    print(f"  cycles:            {cycles}{finish}")
    print(f"  instances fired:   {sum(s.instances_fired for s in stats)}")
    print(f"  CGRA ops:          {ops} "
          f"({ops / cycles if cycles else 0.0:.2f}/cycle)")
    print(f"  commands issued:   {sum(s.commands_issued for s in stats)}")
    print(f"  memory traffic:    {memory.stats.bytes_read} B read / "
          f"{memory.stats.bytes_written} B written")
    print(f"  estimated power:   {power}")
    print(f"  simulated in {wall:.2f}s wall clock")
    if args.trace_out:
        print(f"  trace written to {args.trace_out}")
    if args.power:
        for unit, power in enumerate(powers):
            print()
            if len(powers) > 1:
                print(f"unit {unit}:")
            print(power.table())
    return 0


def _cmd_timeline(args) -> int:
    from .sim import render_timeline
    from .workloads.common import run_and_verify

    (built,) = _build_units(args.workload)
    sink = _file_sink(args.trace_out) if args.trace_out else None
    try:
        result = run_and_verify(built, trace=sink)
    finally:
        if sink is not None:
            sink.close()
    print(render_timeline(result.timeline, width=args.width))
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_trace(args) -> int:
    """Trace a workload: write a trace file, print derived metrics, and
    cross-check the event-derived totals against SimStats."""
    from .trace import MetricsRegistry, TeeSink, format_schema_table

    if args.schema:
        print(format_schema_table())
        return 0
    if not args.workload:
        raise SystemExit("workload required (or use --schema)")

    builts = _build_units(args.workload, args.units)
    several = len(builts) > 1
    # one registry per unit: summed over a device, busy counts would read
    # as utilization above 100%
    metrics = [MetricsRegistry(window=args.window,
                               unit=unit if several else None)
               for unit in range(len(builts))]
    sinks = list(metrics)
    if args.trace_out:
        sinks.append(_file_sink(args.trace_out))
    sink = TeeSink(*sinks)
    started = time.time()
    try:
        results, cycles = _simulate(builts, sink)
    finally:
        sink.close()
    wall = time.time() - started

    on_units = f" on {len(builts)} units" if several else ""
    print(f"{builts[0].name}: verified OK{on_units} in {cycles} cycles "
          f"({wall:.2f}s wall clock)")
    failed = False
    for unit, (registry, result) in enumerate(zip(metrics, results)):
        label = f"unit {unit}: " if several else ""
        if several:
            print(f"unit {unit}, finished at cycle {result.cycles}:")
        print(registry.summary())
        mismatches = registry.reconcile(result.stats)
        if mismatches:
            print(f"{label}RECONCILIATION FAILED (event totals vs SimStats):")
            for name, (from_events, from_stats) in sorted(mismatches.items()):
                print(f"  {name}: events={from_events} stats={from_stats}")
            failed = True
        else:
            print(f"{label}event-derived totals reconcile exactly with "
                  f"SimStats")
    if failed:
        return 1
    if args.trace_out:
        kind = "JSONL" if args.trace_out.endswith(".jsonl") else "Chrome/Perfetto"
        print(f"{kind} trace written to {args.trace_out}")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz.cli import cmd_fuzz

    return cmd_fuzz(args)


def _cmd_faults(args) -> int:
    from .resilience.cli import cmd_faults

    return cmd_faults(args)


def _cmd_profile(args) -> int:
    """Sample host time per stage and per simulator component."""
    from .trace import profile

    if args.target == "fuzz":
        sampler, diverged = profile.profile_fuzz(args.seed, args.count)
        title = (f"fuzz --seed {args.seed} --count {args.count} "
                 f"({diverged} diverged)")
        print(profile.report(title, sampler, profile.FUZZ_STAGES))
        return 1 if diverged else 0
    names = profile.workload_names()
    if args.target != "suite":
        if args.target not in names:
            raise SystemExit(f"unknown workload {args.target!r}; try "
                             f"'python -m repro list'")
        names = [args.target]
    sampler = profile.profile_workloads(names)
    print(profile.report(args.target, sampler, profile.WORKLOAD_STAGES))
    return 0


def _cmd_table(name: str) -> int:
    from . import experiments as exp

    if name == "table1":
        print(exp.format_table1())
    elif name == "table3":
        print(exp.format_table3(exp.table3()))
    elif name == "table4":
        print(exp.format_table4(exp.table4_rows(include_extensions=True)))
    elif name == "fig11":
        print(exp.format_figure11(exp.dnn_comparison()))
    else:
        rows = exp.machsuite_comparison()
        formatter = {
            "fig12": exp.format_figure12,
            "fig13": exp.format_figure13,
            "fig14": exp.format_figure14,
            "fig15": exp.format_figure15,
        }[name]
        print(formatter(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Stream-dataflow (Softbrain) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments")

    run_parser = sub.add_parser("run", help="simulate and verify a workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--units", type=int, default=1,
                            help="run a DNN layer partitioned across an "
                                 "N-unit device")
    run_parser.add_argument("--power", action="store_true",
                            help="print the per-component power breakdown")
    run_parser.add_argument("--trace-out", metavar="PATH",
                            help="record a structured trace "
                                 "(.jsonl = JSON Lines, else Chrome JSON)")

    timeline_parser = sub.add_parser(
        "timeline", help="render a command-lifetime timeline"
    )
    timeline_parser.add_argument("workload")
    timeline_parser.add_argument("--width", type=int, default=72)
    timeline_parser.add_argument("--trace-out", metavar="PATH",
                                 help="also record a structured trace")

    trace_parser = sub.add_parser(
        "trace",
        help="trace a workload: per-component metrics + optional trace file",
    )
    trace_parser.add_argument("workload", nargs="?")
    trace_parser.add_argument("--trace-out", metavar="PATH",
                              help="write the event stream "
                                   "(.jsonl = JSON Lines, else Chrome JSON "
                                   "loadable in Perfetto)")
    trace_parser.add_argument("--units", type=int, default=1,
                              help="run a DNN layer partitioned across an "
                                   "N-unit device")
    trace_parser.add_argument("--window", type=int, default=64,
                              help="utilization-series window, cycles")
    trace_parser.add_argument("--schema", action="store_true",
                              help="print the trace event vocabulary and exit")

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing: cycle sim vs functional interpreter "
             "vs pure DFG evaluation (see docs/FUZZING.md)",
    )
    fuzz_parser.add_argument("--count", type=int, default=None,
                             help="random cases to generate (default 100; "
                                  "12 with --smoke)")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="fuzz seed; same seed => same cases")
    fuzz_parser.add_argument("--time-budget", type=float, default=None,
                             metavar="SECONDS",
                             help="stop generating once elapsed")
    fuzz_parser.add_argument("--replay", metavar="CASE_JSON",
                             help="replay one saved case and exit")
    fuzz_parser.add_argument("--smoke", action="store_true",
                             help="replay the checked-in corpus plus a "
                                  "small random batch (CI job)")
    fuzz_parser.add_argument("--save-dir", default="fuzz-failures",
                             help="where shrunk repro cases are written")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="save diverging cases without minimising")
    fuzz_parser.add_argument("--faults", action="store_true",
                             help="run each case under a random fault plan; "
                                  "divergence = fault escaped undiagnosed "
                                  "(see docs/RESILIENCE.md)")

    from .resilience.cli import add_faults_parser
    add_faults_parser(sub)

    profile_parser = sub.add_parser(
        "profile",
        help="sampled host-time shares per stage and simulator component "
             "(Unix only; see docs/TRACING.md)",
    )
    profile_parser.add_argument(
        "target", help="a workload, 'suite' (all 21) or 'fuzz'")
    profile_parser.add_argument("--seed", type=int, default=0,
                                help="fuzz seed (fuzz only)")
    profile_parser.add_argument("--count", type=int, default=200,
                                help="fuzz cases (fuzz only)")

    for table in ("table1", "table3", "table4",
                  "fig11", "fig12", "fig13", "fig14", "fig15"):
        sub.add_parser(table, help=f"render {table}")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "profile":
        return _cmd_profile(args)
    return _cmd_table(args.command)


if __name__ == "__main__":
    sys.exit(main())

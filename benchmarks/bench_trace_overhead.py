"""Micro-benchmark: tracing must be free when disabled.

The observability layer's contract is that an untraced simulation pays
only one ``sink.enabled`` boolean test per would-be event — no event
objects, no string formatting.  This benchmark simulates the ``gemm``
MachSuite workload with no trace argument and with an explicit
:class:`repro.trace.NullSink` and asserts the NullSink run is within
``MAX_OVERHEAD`` (5%) of the untraced one.

Run directly (``python -m pytest benchmarks/bench_trace_overhead.py``) or
via the reduced smoke test in ``tests/test_trace.py``, which reuses
:func:`measure_null_sink_overhead` so the tier-1 suite exercises the same
machinery with fewer repetitions.
"""

import time

from repro.trace import NullSink
from repro.workloads.common import run_and_verify
from repro.workloads.machsuite import MACHSUITE

#: tolerated NullSink slowdown relative to an untraced run
MAX_OVERHEAD = 0.05


def best_of_interleaved(repeats: int, runner_a, runner_b) -> tuple:
    """Minimum wall time of each runner over ``repeats`` interleaved A/B
    rounds; min filters interference spikes and interleaving makes slow
    drift hit both runners equally."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        runner_a()
        best_a = min(best_a, time.perf_counter() - started)
        started = time.perf_counter()
        runner_b()
        best_b = min(best_b, time.perf_counter() - started)
    return best_a, best_b


def measure_null_sink_overhead(workload: str = "gemm",
                               repeats: int = 9) -> dict:
    """Time untraced vs NullSink-traced runs of one MachSuite workload.

    Returns ``{"untraced": s, "null_sink": s, "overhead": fraction,
    "cycles_match": bool}``.  Workloads are rebuilt per run because a
    simulation mutates its memory image.
    """
    builder = MACHSUITE[workload][0]
    cycles = []

    def untraced() -> None:
        cycles.append(run_and_verify(builder()).cycles)

    def with_null_sink() -> None:
        cycles.append(run_and_verify(builder(), trace=NullSink()).cycles)

    # Interleave-free warmup so imports/JIT-less caches don't bias run 1.
    untraced()
    with_null_sink()
    cycles.clear()

    base, traced = best_of_interleaved(repeats, untraced, with_null_sink)
    return {
        "untraced": base,
        "null_sink": traced,
        "overhead": traced / base - 1.0,
        "cycles_match": len(set(cycles)) == 1,
    }


def test_null_sink_overhead_under_5_percent():
    result = measure_null_sink_overhead("gemm")
    assert result["cycles_match"], "NullSink changed simulated cycles"
    assert result["overhead"] < MAX_OVERHEAD, (
        f"NullSink overhead {result['overhead']:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} (untraced {result['untraced']:.3f}s, "
        f"null-sink {result['null_sink']:.3f}s)"
    )


if __name__ == "__main__":
    stats = measure_null_sink_overhead()
    print(f"untraced  {stats['untraced']:.4f}s")
    print(f"null sink {stats['null_sink']:.4f}s")
    print(f"overhead  {stats['overhead']:+.2%} (budget {MAX_OVERHEAD:.0%})")

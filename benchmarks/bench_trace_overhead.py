"""Micro-benchmark: tracing must be free when disabled.

The observability layer's contract is that an untraced simulation pays
only one ``sink.enabled`` boolean test per would-be event — no event
objects, no string formatting.  This benchmark simulates the ``gemm``
MachSuite workload with no trace argument and with an explicit
:class:`repro.trace.NullSink` and asserts the NullSink run is within
``MAX_OVERHEAD`` (5%) of the untraced one: the median, over
interleaved pairs, of each pair's time ratio.  Only ``run_program`` is
timed: the workload is built once, and each run's fresh memory is made
before its timer starts and verified after it stops.

Run directly (``python -m pytest benchmarks/bench_trace_overhead.py``) or
via the reduced smoke test in ``tests/test_trace.py``, which reuses
:func:`measure_null_sink_overhead` so the tier-1 suite exercises the same
machinery with fewer repetitions.
"""

import statistics
import time
from typing import Callable, Dict, List

from repro.sim.softbrain import run_program
from repro.trace import NullSink
from repro.workloads.common import BuiltWorkload
from repro.workloads.machsuite import MACHSUITE

#: tolerated NullSink slowdown relative to an untraced run
MAX_OVERHEAD = 0.05


def interleaved_overhead(pairs: int, built: BuiltWorkload,
                         extra_a: Callable[[], Dict],
                         extra_b: Callable[[], Dict]) -> dict:
    """Time ``run_program`` of ``built`` on ``pairs`` interleaved pairs of
    runs, side A with the keyword arguments ``extra_a()`` and side B with
    ``extra_b()``, and compare them by the median of per-pair ratios.

    Each run gets ``built.fresh_memory()``, made before the timer starts
    and verified after it stops, so only ``run_program`` is timed.  The
    pairs alternate which side runs first.  A pair's ratio
    compares two runs made moments apart, so slow drift of the host
    cancels, and the median ignores the few pairs an interference spike
    hits.  Returns ``{"a": s, "b": s, "overhead": fraction,
    "cycles_match": bool}``: the median time of each side, the median
    ratio less one, and whether every run simulated the same cycles.
    """
    cycles: List[int] = []

    def timed(extra: Callable[[], Dict]) -> float:
        memory = built.fresh_memory()
        kwargs = extra()
        started = time.perf_counter()
        result = run_program(built.program, fabric=built.fabric,
                             memory=memory, **kwargs)
        elapsed = time.perf_counter() - started
        built.verify(memory)
        cycles.append(result.cycles)
        return elapsed

    timed(extra_a)  # warm-up, so first-run caches bias neither side
    timed(extra_b)
    times_a, times_b, ratios = [], [], []
    for pair in range(pairs):
        if pair % 2:
            b = timed(extra_b)
            a = timed(extra_a)
        else:
            a = timed(extra_a)
            b = timed(extra_b)
        times_a.append(a)
        times_b.append(b)
        ratios.append(b / a)
    return {
        "a": statistics.median(times_a),
        "b": statistics.median(times_b),
        "overhead": statistics.median(ratios) - 1.0,
        "cycles_match": len(set(cycles)) == 1,
    }


def measure_null_sink_overhead(workload: str = "gemm",
                               repeats: int = 24) -> dict:
    """Time untraced vs NullSink-traced runs of one MachSuite workload
    over ``repeats`` interleaved pairs (:func:`interleaved_overhead`).

    Returns ``{"untraced": s, "null_sink": s, "overhead": fraction,
    "cycles_match": bool}``.
    """
    result = interleaved_overhead(repeats, MACHSUITE[workload][0](), dict,
                                  lambda: {"trace": NullSink()})
    return {
        "untraced": result["a"],
        "null_sink": result["b"],
        "overhead": result["overhead"],
        "cycles_match": result["cycles_match"],
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

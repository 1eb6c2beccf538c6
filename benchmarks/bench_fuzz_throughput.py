"""Micro-benchmark: differential-fuzzing throughput.

The fuzzer is only useful if a CI smoke budget (60 s) buys a meaningful
number of cases, so this benchmark measures end-to-end cases/second —
plan generation, scheduling (every plan draws its own DFG, so each case
schedules once; the build and oracle legs reuse that schedule), program
build, and all three oracle legs — and asserts a floor well below
typical machines so it never flakes.  The rate is printed to stdout
only: ``record`` leaves just the host-independent line (cases and
divergences) in ``benchmarks/results-<timestamp>.txt``, so the results
files of two runs diff identical.
"""

import random
import time

from repro.fuzz import random_plan, run_case

from conftest import record

#: cases/second any machine should comfortably exceed (typical: >100/s)
MIN_CASES_PER_SECOND = 5.0


def measure_fuzz_throughput(count: int = 60, seed: int = 0) -> dict:
    """Generate and oracle-check ``count`` cases; return timing stats."""
    divergences = 0
    started = time.perf_counter()
    for index in range(count):
        rng = random.Random(f"bench:{seed}:{index}")
        plan = random_plan(rng, name=f"bench-{index}")
        check_rng = random.Random(f"bench-verify:{seed}:{index}")
        divergences += len(run_case(plan, rng=check_rng).divergences)
    wall = time.perf_counter() - started
    return {
        "cases": count,
        "wall": wall,
        "cases_per_second": count / wall,
        "divergences": divergences,
    }


def test_fuzz_throughput():
    stats = measure_fuzz_throughput(count=60)
    print(f"\n{stats['cases']} cases in {stats['wall']:.2f}s = "
          f"{stats['cases_per_second']:.1f} cases/s")
    record(
        "Differential fuzzing throughput",
        f"{stats['cases']} cases, {stats['divergences']} divergences",
    )
    assert stats["divergences"] == 0
    assert stats["cases_per_second"] > MIN_CASES_PER_SECOND


if __name__ == "__main__":
    result = measure_fuzz_throughput()
    print(f"{result['cases']} cases in {result['wall']:.2f}s "
          f"({result['cases_per_second']:.1f}/s), "
          f"{result['divergences']} divergences")

"""Shared fixtures for the table/figure benchmarks.

The MachSuite comparison (simulate 8 workloads + 20-point ASIC sweeps) is
the expensive step behind Figures 12-15; it runs once per session and the
four figure benchmarks derive their series from the cached rows.  Every
benchmark that renders a table appends it to a per-session
``benchmarks/results-<timestamp>.txt`` (gitignored) so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete
reproduction of the paper's evaluation on disk without clobbering the
previous run's results.  The file is created by the session's first
:func:`record`, so a session that renders no table leaves none.  Only
host-independent text goes into it (wall-clock rates are printed to
stdout instead), so the files of two runs of the same tree diff
identical.
"""

import pathlib
import time

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / (
    "results-" + time.strftime("%Y%m%d-%H%M%S") + ".txt"
)


@pytest.fixture(scope="session")
def machsuite_rows():
    from repro.experiments import machsuite_comparison

    return machsuite_comparison()


@pytest.fixture(scope="session")
def dnn_rows():
    from repro.experiments import dnn_comparison

    return dnn_comparison()


@pytest.fixture(scope="session", autouse=True)
def _report_results_file():
    yield
    if RESULTS_PATH.exists():
        print(f"\nbenchmark tables written to {RESULTS_PATH}")


def record(title: str, text: str) -> None:
    """Print a rendered table and append it to the results file, which
    the session's first call creates."""
    block = f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n"
    print(block)
    with RESULTS_PATH.open("a") as handle:
        handle.write(block)

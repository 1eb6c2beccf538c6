"""Golden-stats regression suite: every workload's observable fingerprint.

Each workload in ``repro.workloads`` (the full MachSuite port and every
DNN layer) runs through the simulator once, and the complete observable
fingerprint (SimStats, memory traffic, scratchpad traffic, command
timeline) must match the checked-in golden JSON under ``tests/golden/``.
This is the regression lock: any change to simulator timing shows up as
a diff here and must be re-blessed with ``--update-golden``
(docs/PERFORMANCE.md).
"""

import json
import pathlib

import pytest

from repro.workloads import run_and_verify
from repro.workloads.dnn import DNN_LAYERS, build_dnn_layer
from repro.workloads.machsuite import MACHSUITE

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def fingerprint(result):
    """Everything a simulation observably produced, as JSON-stable data."""
    return {
        "stats": result.stats.to_dict(),
        "memory": dict(sorted(vars(result.memory.stats).items())),
        "scratchpad": dict(sorted(vars(result.scratchpad.stats).items())),
        "timeline": [
            [t.index, t.enqueued, t.dispatched, t.completed]
            for t in result.timeline
        ],
    }


def dump_golden(data):
    """Golden JSON text: sorted keys, one timeline row per line."""
    rest = {key: value for key, value in data.items() if key != "timeline"}
    head = json.dumps(rest, indent=1, sort_keys=True)
    rows = ",\n".join(f"  {json.dumps(row)}" for row in data["timeline"])
    return f'{head[:-2]},\n "timeline": [\n{rows}\n ]\n}}\n'


def _machsuite_case(name):
    build = MACHSUITE[name][0]
    return lambda: build()


def _dnn_case(layer):
    return lambda: build_dnn_layer(layer)


CASES = [(f"machsuite-{name}", _machsuite_case(name)) for name in MACHSUITE]
CASES += [(f"dnn-{layer.name}", _dnn_case(layer)) for layer in DNN_LAYERS]


@pytest.mark.parametrize(
    "name,make", CASES, ids=[name for name, _ in CASES]
)
def test_golden_stats(name, make, update_golden):
    got = fingerprint(run_and_verify(make()))

    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(dump_golden(got))
        return
    assert path.exists(), (
        f"no golden file for {name}; run pytest with --update-golden")
    golden = json.loads(path.read_text())
    assert got == golden, (
        f"{name}: stats drifted from tests/golden/{name}.json — if the "
        f"timing change is intended, re-bless with --update-golden")

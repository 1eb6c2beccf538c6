"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
from repro.workloads import VerificationError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sim-suite": lambda seed: suite.sim_suite(seed, names=("fft", "pool1p")),
    "asic-dse": lambda seed: suite.asic_dse(seed, kernels=("backprop",)),
    "fuzz-oracle": lambda seed: suite.fuzz_oracle(seed, cases=5),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, factory in TINY.items():
        monkeypatch.setitem(suite.WORKLOADS, name, factory)
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)


def result_of(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_with_its_unit(tiny, capsys, workload, trace,
                                             kind):
    result = result_of(capsys, ["--workload", workload, "--seed", "1",
                                "--seconds", "0", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_failing_verifier_raises_error_rate(tiny, capsys, monkeypatch):
    real_build = suite.build_golden

    def build_with_bad_verifier(name, seed):
        built = real_build(name, seed)
        if name == "fft":
            def verify(memory):
                raise VerificationError("planted mismatch")
            built.verify = verify
        return built

    monkeypatch.setattr(suite, "build_golden", build_with_bad_verifier)
    result = result_of(capsys, ["--workload", "sim-suite", "--seconds", "0"])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_counts_that_change_between_passes_fail_the_operation():
    calls = []

    def op():
        calls.append(1)
        return suite.Outcome(1, {"cycles": len(calls)})

    workload = suite.Workload("fake", "units", [("op", op)])
    log = run.measure(workload, 0)
    assert log.attempted == 2 and log.failed == 1


def test_rescale_cancels_a_uniform_slowdown():
    slow = 2 * run.REFERENCE_S
    assert run.rescale(3.0, slow, slow) == pytest.approx(1.5)
    assert run.rescale(3.0, slow, 0.0) == pytest.approx(3.0)


def test_pass_s_sums_each_operations_median():
    log = run.PassLog(works=[10, 10, 10],
                      op_scaled={0: [1.0, 3.0, 2.0], 1: [0.5, 0.5, 9.0]})
    metrics = run.end_to_end(log, [1.0])
    assert metrics["pass_s"] == pytest.approx(2.5)
    assert metrics["work_per_s"] == pytest.approx(4.0)


def test_asic_points_match_the_full_sweep():
    from repro.baselines.asic import dse

    workload = suite.asic_dse(0, kernels=("backprop",))
    outcomes = [op() for _, op in workload.ops]
    full = dse.explore_design_space(suite.build_ddg("backprop", 0),
                                    base=suite.MACHSUITE["backprop"][3]())
    assert [o.counts["schedule_cycles"] for o in outcomes[:-1]] == [
        point.cycles for point in full]
    assert sum(o.work for o in outcomes) == len(full)


def test_traced_and_untraced_model_counts_agree(tiny):
    untraced = run.measure(suite.WORKLOADS["sim-suite"](0), 0).pass_counts
    _, log, metrics, _ = run.traced_run(suite, "sim-suite", 0)
    assert log.failed == 0
    for key in run.MODEL_KEYS:
        assert metrics[f"model.{key}"] == untraced[key], key
    assert metrics["model.cycles"] > 0
    assert metrics["sim.step.calls"] > 0


def test_tracer_self_times_account_for_the_root(tmp_path):
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def root():
        return traced_leaf() + traced_leaf()

    tracer.wrap("root", root)()
    layers = tracer.layers()
    assert layers["leaf"]["calls"] == 2
    assert (layers["root"]["self_s"] + layers["leaf"]["self_s"]
            == pytest.approx(layers["root"]["total_s"]))
    tracer.write(tmp_path / "spans.bin")
    names, rows = spans.load_spans(tmp_path / "spans.bin")
    assert sorted(names) == ["leaf", "root"]
    assert [(name, parent) for name, parent, _, _ in rows] == [
        ("root", -1), ("leaf", 0), ("leaf", 0)]


def test_patches_are_restored():
    functions, methods, counters = suite.trace_points()
    before = [vars(owner).get(attr) for _, owner, attr in methods + counters]
    tracer = spans.Tracer()
    tracer.install(functions, methods, counters, [suite])
    assert suite.build_golden is not functions[0][1]
    tracer.restore()
    assert suite.build_golden is functions[0][1]
    assert before == [vars(owner).get(attr)
                      for _, owner, attr in methods + counters]


def test_setup_in_fresh_process():
    assert run.setup_in_fresh_process("sim-suite", 0) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Tests for the sampling profiler (``repro.trace.profile``) and its
``python -m repro profile`` command."""

import ast
import pathlib
import random
import signal
import sys
import time

import pytest

from repro.__main__ import main

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="setitimer is Unix only")

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: samples the cost-ratio test takes, and how far the heavy function's
#: share may sit from 3/4: 0.1 is about four binomial standard errors
#: (sqrt(0.75 * 0.25 / 250) = 0.027); 30 runs on a 2-vCPU VM read
#: 0.68-0.80, standard deviation 0.025
RATIO_SAMPLES = 250
RATIO_TOLERANCE = 0.1


def _spin(n):
    total = 0
    for i in range(n):
        total += i
    return total


def light():
    return _spin(2_000)


def heavy():
    return _spin(6_000)


def test_shares_follow_a_one_to_three_cost_ratio():
    """The calls take ~0.1 and ~0.3 ms, in random order: work that
    repeats with a period near the timer's tick aliases with it (calls of
    1 and 3 ms in strict alternation read shares from 0.62 to 0.83)."""
    from repro.trace.profile import Sampler

    stages = {light.__code__: "light", heavy.__code__: "heavy"}
    pick = random.Random(0).random
    deadline = time.process_time() + 20
    with Sampler(stages) as sampler:
        while (sampler.total < RATIO_SAMPLES
               and time.process_time() < deadline):
            (light if pick() < 0.5 else heavy)()
    counts = sampler.stage_counts()
    timed = counts["light"] + counts["heavy"]
    assert timed >= 0.9 * RATIO_SAMPLES
    assert abs(counts["heavy"] / timed - 0.75) <= RATIO_TOLERANCE, counts


class _Base:
    def tick(self):
        return sys._getframe()


class _Left(_Base):
    pass


class _Right(_Base):
    pass


def _stage(make):
    return make()


def test_innermost_labels_and_shared_code_split_by_type():
    """A sample's stage is the innermost registered stage on the stack,
    its component the innermost registered component inside that stage;
    code that subclasses share is labelled by ``type(self)``."""
    from repro.trace.profile import OTHER, Sampler, _self_type_tick

    sampler = Sampler({_stage.__code__: "stage"},
                      {_Base.tick.__code__: _self_type_tick})
    for obj in (_Left(), _Right(), _Right()):
        sampler._on_sample(signal.SIGPROF, _stage(obj.tick))
    sampler._on_sample(signal.SIGPROF, _stage(sys._getframe))
    sampler._on_sample(signal.SIGPROF, _Left().tick())  # outside the stage
    assert sampler.counts == {
        ("stage", "_Left.tick"): 1, ("stage", "_Right.tick"): 2,
        ("stage", None): 1, (OTHER, "_Left.tick"): 1}
    assert sampler.component_counts("stage") == {
        "_Left.tick": 1, "_Right.tick": 2, OTHER: 1}


def test_sampler_restores_the_signal_state():
    from repro.trace.profile import Sampler

    before = signal.getsignal(signal.SIGPROF)
    with Sampler({}):
        assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before


def test_profile_fuzz_prints_the_legs(capsys):
    assert main(["profile", "fuzz", "--seed", "0", "--count", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz --seed 0 --count 20 (0 diverged): ")
    assert "stage " in out


def test_profile_workload_prints_the_stages(capsys):
    assert main(["profile", "pool1p"]) == 0
    assert capsys.readouterr().out.startswith("pool1p: ")


def test_profile_unknown_workload_is_a_clean_error():
    with pytest.raises(SystemExit) as exit_info:
        main(["profile", "nope"])
    assert "unknown workload 'nope'" in str(exit_info.value.code)


def test_only_the_cli_imports_the_profiler():
    """No workload, simulator or fuzz module imports the profiler, so
    none of their set-ups pays for it."""
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                module = node.module or ""
                if module.endswith("profile") or (
                        module.endswith("trace") and "profile" in names):
                    importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["__main__.py"]

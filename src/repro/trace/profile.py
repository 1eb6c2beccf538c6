"""A sampling profiler: where host time goes, per stage and per simulator
component, measured on the untraced code.

:class:`Sampler` arms ``signal.setitimer(ITIMER_PROF)`` on its own process.
Each ``SIGPROF`` hands its handler the interrupted frame, and the handler
only reads the frame chain; the program gets no hook.  Walking outward
from that frame, the innermost frame whose code is a registered
*component* names the sample's component, and the innermost registered
*stage* names its stage (a component counts only inside its stage).  A
component's label is a string, or a function of the frame for code that
several classes share: the stream engines inherit one ``tick``, so they are told
apart by ``type(self)`` (``co_qualname`` exists only from Python 3.11).

``signal`` delivers to the main thread only and ``setitimer`` exists only
on Unix, so the sampler works in the main thread of a Unix process.
``ITIMER_PROF`` counts the process's CPU time, so time spent waiting for
the CPU on a loaded host takes no samples.

``python -m repro profile <workload|suite>`` and ``python -m repro
profile fuzz --seed S --count N`` drive it (docs/TRACING.md); only that
command imports this module.
"""

from __future__ import annotations

import math
import random
import signal
import time
from collections import Counter
from types import CodeType, FrameType
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

#: a string, or a function of the frame that returns one
Label = Union[str, Callable[[FrameType], str]]

#: seconds of process CPU time asked for between samples; the kernel
#: fires the timer at its tick, so a coarser tick wins
INTERVAL = 0.001

#: what a sample outside every registered stage counts as
OTHER = "other"


class Sampler:
    """Count ``SIGPROF`` samples by ``(stage, component)`` while active.

    ``stages`` maps code objects to stage names and ``components`` to
    component labels.  Use it as a context manager; ``counts`` holds the
    samples, a component of ``None`` meaning no registered component was
    on the stack.
    """

    def __init__(self, stages: Dict[CodeType, str],
                 components: Optional[Dict[CodeType, Label]] = None) -> None:
        if not hasattr(signal, "setitimer"):
            raise RuntimeError("the sampling profiler needs "
                               "signal.setitimer (Unix only)")
        self.stages = stages
        self.components = components or {}
        self.counts: Counter = Counter()
        #: process CPU seconds spent while the sampler was active
        self.cpu_s = 0.0
        self._previous = None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        self.cpu_s -= time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_s += time.process_time()
        signal.signal(signal.SIGPROF, self._previous)

    def _on_sample(self, _signum: int, frame: Optional[FrameType]) -> None:
        stages, components = self.stages, self.components
        component = None
        stage = OTHER
        while frame is not None:
            code = frame.f_code
            if component is None:
                label = components.get(code)
                if label is not None:
                    component = label if isinstance(label, str) else label(frame)
            if code in stages:
                stage = stages[code]
                break
            frame = frame.f_back
        self.counts[stage, component] += 1

    def stage_counts(self) -> Counter:
        out: Counter = Counter()
        for (stage, _), count in self.counts.items():
            out[stage] += count
        return out

    def component_counts(self, stage: str) -> Counter:
        """Samples in ``stage`` by component; ``OTHER`` for those in no
        registered component."""
        out: Counter = Counter()
        for (where, component), count in self.counts.items():
            if where == stage:
                out[component or OTHER] += count
        return out


def format_shares(title: str, counts: Counter,
                  order: Iterable[str] = ()) -> str:
    """A table of sample counts and shares: the labels in ``order`` first,
    then the rest by count."""
    total = sum(counts.values())
    order = [label for label in order if label in counts]
    rest = sorted((label for label in counts if label not in order),
                  key=lambda label: (-counts[label], label))
    width = max([len(label) for label in order + rest] + [len(title)])
    lines = [f"{title:<{width}}  samples   share"]
    for label in order + rest:
        share = counts[label] / total if total else 0.0
        lines.append(f"  {label:<{width}}{counts[label]:>7}  {share:6.1%}")
    return "\n".join(lines)


def _self_type_tick(frame: FrameType) -> str:
    return f"{type(frame.f_locals['self']).__name__}.tick"


def simulator_components() -> Dict[CodeType, Label]:
    """The components of one ``run_program``: each component's ``tick``
    (the engines by class), the memory interface, loading a configuration
    (the CGRA executor and its compiled graph), the per-cycle step (its
    own lines and the event-heap callbacks it runs), the cycle loop and
    the unit's set-up and tear-down."""
    from ..sim.cgra_exec import CgraExecutor
    from ..sim.control_core import ControlCore
    from ..sim.dispatcher import Dispatcher
    from ..sim.memory import MemorySystem
    from ..sim.softbrain import SoftbrainSim, run_lockstep
    from ..sim.stream_engine import StreamEngineBase

    return {
        ControlCore.tick.__code__: "ControlCore.tick",
        Dispatcher.tick.__code__: "Dispatcher.tick",
        StreamEngineBase.tick.__code__: _self_type_tick,
        CgraExecutor.tick.__code__: "CgraExecutor.tick",
        CgraExecutor.deliver.__code__: "CgraExecutor.deliver",
        MemorySystem.issue.__code__: "MemorySystem.issue",
        SoftbrainSim.apply_config.__code__: "SoftbrainSim.apply_config",
        SoftbrainSim.step.__code__: "SoftbrainSim.step (self + events)",
        run_lockstep.__code__: "run_lockstep (cycle loop)",
        SoftbrainSim.__init__.__code__: "SoftbrainSim.__init__",
        SoftbrainSim.release.__code__: "SoftbrainSim.release",
    }


# -- what ``python -m repro profile`` runs --------------------------------------

#: the stages of one workload, in pipeline order
WORKLOAD_STAGES = ("build", "schedule", "simulate", "verify", "power")

#: the stages of one fuzz case: the plan draw and the four legs of
#: ``run_case``; ``run_case`` is its own lines (the comparisons)
FUZZ_STAGES = ("random_plan", "schedule", "build_case", "evaluate_case",
               "simulate", "interpret_program", "run_case")


def _build(name: str):
    from ..workloads.dnn import build_dnn_layer
    from ..workloads.machsuite import MACHSUITE

    if name in MACHSUITE:
        return MACHSUITE[name][0]()
    return build_dnn_layer(name)


def _verify(built, memory) -> None:
    built.verify(memory)


def workload_names() -> List[str]:
    """Every workload ``profile`` takes: the MachSuite kernels and the
    DNN layers, the 21 of the golden suite."""
    from ..workloads.dnn.layers import DNN_LAYERS
    from ..workloads.machsuite import MACHSUITE

    return list(MACHSUITE) + [layer.name for layer in DNN_LAYERS]


def profile_workloads(names: Iterable[str]) -> Sampler:
    """Build, simulate, verify and estimate the power of each workload
    once under the sampler (scheduling happens inside the builds)."""
    from ..core.compiler import scheduler
    from ..power import estimate_power
    from ..sim.softbrain import run_program

    stages = {
        _build.__code__: "build",
        scheduler.schedule.__code__: "schedule",
        run_program.__code__: "simulate",
        _verify.__code__: "verify",
        estimate_power.__code__: "power",
    }
    with Sampler(stages, simulator_components()) as sampler:
        for name in names:
            built = _build(name)
            memory = built.fresh_memory()
            result = run_program(built.program, fabric=built.fabric,
                                 memory=memory)
            _verify(built, memory)
            estimate_power(result, built.fabric)
    return sampler


def profile_fuzz(seed: int, count: int) -> Tuple[Sampler, int]:
    """Draw ``count`` cases as ``python -m repro fuzz --seed`` does and run
    each through the oracle under the sampler; returns the sampler and
    the number of diverging cases."""
    from ..core.compiler import scheduler
    from ..core.isa.interpreter import interpret_program
    from ..fuzz.case import build_case
    from ..fuzz.generators import random_plan
    from ..fuzz.oracle import evaluate_case, run_case
    from ..workloads.common import run_and_verify

    stages = {
        random_plan.__code__: "random_plan",
        scheduler.schedule.__code__: "schedule",
        build_case.__code__: "build_case",
        evaluate_case.__code__: "evaluate_case",
        run_and_verify.__code__: "simulate",
        interpret_program.__code__: "interpret_program",
        run_case.__code__: "run_case",
    }
    diverged = 0
    with Sampler(stages, simulator_components()) as sampler:
        for index in range(count):
            plan = random_plan(random.Random(f"{seed}:{index}"),
                               name=f"fuzz-{seed}-{index}")
            if not run_case(plan).ok:
                diverged += 1
    return sampler, diverged


def report(title: str, sampler: Sampler, stage_order: Iterable[str]) -> str:
    """The stage table, then the simulate stage's component table.

    The timer fires at the kernel's tick, not finer, so a sample may stand
    for more CPU time than the interval asked for; the header says how
    much.  A share p of n samples is uncertain by about sqrt(p(1-p)/n).
    """
    total = sampler.total
    per_sample = sampler.cpu_s / total * 1000 if total else 0.0
    error = 0.5 / math.sqrt(total) if total else 1.0
    lines = [f"{title}: {total} samples over {sampler.cpu_s:.2f} s of CPU "
             f"({per_sample:.1f} ms each; a share is good to about "
             f"±{error:.1%})",
             format_shares("stage", sampler.stage_counts(), stage_order)]
    components = sampler.component_counts("simulate")
    if components:
        lines += ["", format_shares("simulate, by component", components)]
    return "\n".join(lines)

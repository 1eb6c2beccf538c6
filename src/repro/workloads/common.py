"""Shared workload infrastructure: built programs, memory layout, checking.

Every workload — DNN layer or MachSuite kernel — reduces to a
:class:`BuiltWorkload`: a stream program bound to a fabric, an immutable
initial memory image, and a verifier that checks the simulated results
against the reference implementation.  :func:`run_and_verify` is the
one-stop entry the tests, examples and benchmarks all use;
:func:`run_units_and_verify` is its multi-unit twin, which runs one build
per unit as one device on a shared memory.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cgra.fabric import Fabric
from ..core.isa.patterns import LINE_BYTES
from ..core.isa.program import StreamProgram
from ..sim.memory import MemoryImage, MemoryParams, MemorySystem, load_image, pack_words
from ..sim.multi_unit import MultiUnitResult, run_multi_unit
from ..sim.softbrain import RunResult, SoftbrainParams, run_program
from ..trace import TraceSink


class Allocator:
    """Line-aligned bump allocator for laying out workload arrays."""

    def __init__(self, base: int = 0x1_0000) -> None:
        self._next = base

    def alloc(self, nbytes: int) -> int:
        addr = self._next
        self._next += (nbytes + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES
        return addr


def write_words(memory: MemorySystem, addr: int, values: Sequence[int],
                elem_bytes: int = 8) -> None:
    """Preload an array of integers (two's complement, little endian)."""
    memory.preload(addr, pack_words(values, elem_bytes))


def read_words(memory: MemorySystem, addr: int, count: int,
               elem_bytes: int = 8, signed: bool = True) -> List[int]:
    """Read back an array of integers after simulation."""
    return [
        memory.store.read_word(addr + i * elem_bytes, elem_bytes, signed=signed)
        for i in range(count)
    ]


class VerificationError(AssertionError):
    """Simulated output differs from the reference implementation."""


def check_equal(name: str, got: Sequence[int], expected: Sequence[int]) -> None:
    if list(got) != list(expected):
        bad = [
            (i, g, e)
            for i, (g, e) in enumerate(zip(got, expected))
            if g != e
        ][:8]
        raise VerificationError(
            f"{name}: {len(bad)}+ mismatches, first: {bad} "
            f"(lengths {len(got)} vs {len(expected)})"
        )


@dataclass
class BuiltWorkload:
    """A ready-to-simulate workload instance: every run starts from
    :meth:`fresh_memory`, and ``verify`` checks the memory it is handed."""

    name: str
    program: StreamProgram
    fabric: Fabric
    image: MemoryImage
    verify: Callable[[MemorySystem], None]
    #: free-form workload facts (sizes, op counts) used by reports
    meta: Dict[str, object] = field(default_factory=dict)

    def fresh_memory(self, params: Optional[MemoryParams] = None) -> MemorySystem:
        """A cold memory with ``params`` timing holding the initial image."""
        return load_image(self.image, params)

    @functools.cached_property
    def memory(self) -> MemorySystem:
        """A fresh memory made on first access and kept.  It exists because
        ``perfbench/suite.py``, the benchmark's fixed definition, runs on
        ``built.memory`` and then verifies it; all else calls fresh_memory."""
        return self.fresh_memory()


def run_and_verify(
    built: BuiltWorkload,
    params: Optional[SoftbrainParams] = None,
    trace: Optional[TraceSink] = None,
    faults=None,
) -> RunResult:
    """Simulate a built workload on a fresh memory and check its outputs;
    returns the result (its ``memory`` is the one the run used).

    ``trace`` forwards a :class:`repro.trace.TraceSink` to the simulator
    (the caller closes it), so every experiment harness built on this
    entry point can record structured traces.

    ``faults`` forwards a :class:`repro.resilience.FaultInjector` — the
    fault campaign and ``fuzz --faults`` run workloads under injected
    faults through this same entry point.
    """
    memory = built.fresh_memory()
    result = run_program(
        built.program, fabric=built.fabric, memory=memory, params=params,
        trace=trace, faults=faults,
    )
    built.verify(memory)
    return result


def run_units_and_verify(
    builts: Sequence[BuiltWorkload],
    params: Optional[SoftbrainParams] = None,
    trace: Optional[TraceSink] = None,
) -> MultiUnitResult:
    """Simulate one build per unit as one device and check every unit's
    outputs; returns the device result.

    Unit ``i`` runs ``builts[i].program`` on ``builts[i].fabric``.  The
    builds split one workload's work, not its data, so they hold one
    image, and the units share one fresh memory made from it.
    ``trace`` is forwarded as in :func:`run_and_verify`.
    """
    if not builts:
        raise ValueError("need at least one unit build")
    image = builts[0].image
    for built in builts[1:]:
        if built.image != image:
            raise ValueError(f"{built.name}: unit builds must share one "
                             f"memory image")
    memory = builts[0].fresh_memory()
    result = run_multi_unit(
        [built.program for built in builts],
        [built.fabric for built in builts],
        memory=memory, params=params, trace=trace,
    )
    for built in builts:
        built.verify(memory)
    return result


def make_rng(seed: int) -> random.Random:
    """Deterministic per-workload RNG."""
    return random.Random(0x5D5D ^ seed)


def draw_ints(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, draw for draw.

    It runs the ``getrandbits`` rejection loop that ``Random.randint``
    runs for each value, once per call rather than through two method
    calls per value, and leaves ``rng`` in the same state.
    """
    width = hi - lo + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    values = []
    append = values.append
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        append(lo + r)
    return values

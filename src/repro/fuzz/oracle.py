"""Three-way differential oracle for fuzz cases.

Every case runs on three independent implementations of the same
semantics:

1. the **cycle-level simulator** (``repro.sim``), via the standard
   :func:`~repro.workloads.common.run_and_verify` entry point;
2. the **functional interpreter** (``repro.core.isa.interpreter``), the
   untimed golden model;
3. a **pure evaluation** done here: feed streams are computed directly
   from the plan's segments, the DFG is fired ``num_instances`` times with
   :meth:`Dfg.execute` (NOT the simulator's ``CompiledDfg`` — that is what
   makes this a genuinely third implementation), and drains are applied as
   plain writes to a copy of the initial memory image.

Any disagreement — memory image, scratchpad image, deadlock, crash,
instance count, or leftover port data — is reported as a
:class:`Divergence`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.isa.interpreter import FunctionalDeadlock, interpret_program
from ..core.isa.patterns import SCRATCH_BYTES
from ..sim.errors import SimError, SimulationDeadlock, SimulationLimit
from ..sim.memory import PAGE_BYTES, BackingStore
from ..sim.softbrain import SoftbrainParams
from ..workloads.common import BuiltWorkload, VerificationError, run_and_verify
from .case import BuiltCase, CasePlan, build_case, element_indices

WORD_MASK = (1 << 64) - 1


@dataclass
class Expected:
    """The pure evaluation's final state."""

    store: BackingStore
    scratch: bytearray
    out_streams: Dict[str, List[int]]


@dataclass
class Divergence:
    """One disagreement between implementations."""

    kind: str  # e.g. "sim-memory", "interp-deadlock"
    detail: str
    #: the raising exception, when the divergence was an exception (the
    #: campaign inspects ``exception.report`` for the crash dump)
    exception: Optional[BaseException] = field(default=None, compare=False,
                                               repr=False)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class OracleReport:
    plan: CasePlan
    divergences: List[Divergence] = field(default_factory=list)
    #: cycles the simulator leg ran (0 when it crashed) — the fault
    #: campaign uses this to aim fault cycles inside the run window
    sim_cycles: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _extend(raw: int, elem_bytes: int, signed: bool) -> int:
    """Zero/sign-extend a raw element to a 64-bit word."""
    bits = 8 * elem_bytes
    raw &= (1 << bits) - 1
    if signed and raw >> (bits - 1):
        raw -= 1 << bits
    return raw & WORD_MASK


def evaluate_case(built: BuiltCase) -> Expected:
    """Compute the reference result of a case without either simulator.

    Fires ``built.config.dfg``: the graph the case's configuration was
    scheduled from, parsed from ``plan.dfg_spec`` once, when it was
    scheduled.
    """
    plan = built.plan
    dfg = built.config.dfg
    instances = plan.num_instances

    # Feed streams; recurrence elements are placeholders resolved from the
    # source port's output stream as instances fire.
    feed_streams: Dict[str, List[Optional[int]]] = {}
    recur_seed_len = 0
    for port in sorted(plan.feeds):
        stream: List[Optional[int]] = []
        for seg in plan.feeds[port]:
            if seg.kind == "const":
                stream.extend([seg.value & WORD_MASK] * seg.count)
            elif seg.kind == "mem":
                for idx in element_indices(seg.per_access, seg.stride_elems,
                                           seg.num_strides):
                    stream.append(_extend(seg.array[idx], seg.elem_bytes,
                                          seg.signed))
            elif seg.kind == "scratch":
                stream.extend(_extend(v, seg.elem_bytes, seg.signed)
                              for v in seg.array)
            elif seg.kind == "indirect":
                stream.extend(_extend(seg.array[i], seg.elem_bytes, seg.signed)
                              for i in seg.indices)
            elif seg.kind == "recur":
                recur_seed_len = len(stream)
                stream.extend([None] * seg.count)
        feed_streams[port] = stream

    out_streams: Dict[str, List[int]] = {port: [] for port in plan.drains}
    state = dfg.make_state()
    for k in range(instances):
        inputs = {}
        for name, port in dfg.inputs.items():
            words = []
            for pos in range(k * port.width, (k + 1) * port.width):
                value = feed_streams[name][pos]
                if value is None:  # recurrence: produced by an earlier fire
                    value = out_streams[plan.recur_out][pos - recur_seed_len]
                words.append(value)
            inputs[name] = words
        results = dfg.execute(inputs, state)
        for name, values in results.items():
            out_streams[name].extend(values)

    # Apply the drains to a fresh copy of the initial image.
    store = built.fresh_store()
    scratch = bytearray(SCRATCH_BYTES)
    for port in sorted(plan.feeds):
        for index, seg in enumerate(plan.feeds[port]):
            if seg.kind == "scratch":
                base = built.feed_layout[(port, index)]["scratch"]
                for i, value in enumerate(seg.array):
                    offset = base + i * seg.elem_bytes
                    scratch[offset:offset + seg.elem_bytes] = (
                        (value & ((1 << (8 * seg.elem_bytes)) - 1))
                        .to_bytes(seg.elem_bytes, "little"))
    for port in sorted(plan.drains):
        cursor = 0
        for index, seg in enumerate(plan.drains[port]):
            values = out_streams[port][cursor:cursor + seg.num_elements]
            cursor += seg.num_elements
            layout = built.drain_layout[(port, index)]
            if seg.kind == "mem":
                for eidx, value in zip(
                    element_indices(seg.per_access, seg.stride_elems,
                                    seg.num_strides), values
                ):
                    store.write_word(layout["base"] + eidx * seg.elem_bytes,
                                     value, seg.elem_bytes)
            elif seg.kind == "scatter":
                for idx, value in zip(seg.indices, values):
                    store.write_word(layout["base"] + idx * 8, value,
                                     seg.elem_bytes)
            elif seg.kind == "scratch":
                base = layout["scratch"]
                for i, value in enumerate(values):
                    offset = base + i * seg.elem_bytes
                    scratch[offset:offset + seg.elem_bytes] = (
                        (value & ((1 << (8 * seg.elem_bytes)) - 1))
                        .to_bytes(seg.elem_bytes, "little"))
            # "clean" and "recur" consume without storing
    return Expected(store, scratch, out_streams)


def diff_stores(got: BackingStore, want: BackingStore,
                limit: int = 4,
                sample_rng: Optional[random.Random] = None) -> List[str]:
    """Byte-level differences between two sparse stores (absent pages
    compare as zeros).  ``sample_rng`` randomises which differing pages
    are detailed when there are more than ``limit`` — handy for spotting
    patterns across fuzz reruns without dumping megabytes."""
    got_pages = got.snapshot_pages()
    want_pages = want.snapshot_pages()
    zeros = bytes(PAGE_BYTES)
    bad_pages = [
        pid for pid in sorted(set(got_pages) | set(want_pages))
        if got_pages.get(pid, zeros) != want_pages.get(pid, zeros)
    ]
    if sample_rng is not None and len(bad_pages) > limit:
        bad_pages = sorted(sample_rng.sample(bad_pages, limit))
    out = []
    for pid in bad_pages[:limit]:
        g = got_pages.get(pid, zeros)
        w = want_pages.get(pid, zeros)
        offset = next(i for i in range(PAGE_BYTES) if g[i] != w[i])
        addr = pid * PAGE_BYTES + offset
        out.append(f"addr=0x{addr:x}: got 0x{g[offset]:02x} "
                   f"want 0x{w[offset]:02x}")
    return out


def run_case(plan: CasePlan,
             rng: Optional[random.Random] = None,
             faults=None,
             params: Optional[SoftbrainParams] = None) -> OracleReport:
    """Run one plan through all three implementations and compare.

    ``rng`` picks which differing pages a memory divergence details
    (:func:`diff_stores`); without it the first pages are shown.
    ``faults`` (a :class:`repro.resilience.FaultInjector`) and ``params``
    apply to the cycle-level leg only; the interpreter and the pure
    evaluation always run fault-free, so under injection they serve as the
    reference against which a fault's effect is classified.
    """
    built = build_case(plan)
    expected = evaluate_case(built)
    report = OracleReport(plan)
    instances = plan.num_instances

    # -- leg 1: cycle-level simulator ----------------------------------------
    def verify(memory) -> None:
        mismatches = diff_stores(memory.store, expected.store,
                                 sample_rng=rng)
        if mismatches:
            raise VerificationError("; ".join(mismatches))

    workload = BuiltWorkload(plan.name, built.program, built.fabric,
                             built.image, verify)
    try:
        result = run_and_verify(workload, faults=faults, params=params)
    except VerificationError as exc:
        report.divergences.append(Divergence("sim-memory", str(exc),
                                             exception=exc))
    except (SimulationDeadlock, SimulationLimit) as exc:
        report.divergences.append(Divergence("sim-deadlock", str(exc),
                                             exception=exc))
    except SimError as exc:  # structured port/scratch/command failures
        report.divergences.append(
            Divergence("sim-error", f"{type(exc).__name__}: {exc}",
                       exception=exc))
    except Exception as exc:  # anything unstructured is a diagnostics bug
        report.divergences.append(
            Divergence("sim-crash", f"{type(exc).__name__}: {exc}",
                       exception=exc))
    else:
        report.sim_cycles = result.stats.cycles
        if result.scratchpad.snapshot() != bytes(expected.scratch):
            report.divergences.append(
                Divergence("sim-scratch", _scratch_diff(
                    result.scratchpad.snapshot(), expected.scratch)))
        if result.stats.instances_fired != instances:
            report.divergences.append(Divergence(
                "sim-instances",
                f"fired {result.stats.instances_fired}, expected {instances}"))

    # -- leg 2: functional interpreter ---------------------------------------
    store = built.fresh_store()
    try:
        final = interpret_program(built.program, store)
    except FunctionalDeadlock as exc:
        report.divergences.append(Divergence("interp-deadlock", str(exc)))
    except Exception as exc:
        report.divergences.append(
            Divergence("interp-crash", f"{type(exc).__name__}: {exc}"))
    else:
        mismatches = diff_stores(store, expected.store)
        if mismatches:
            report.divergences.append(
                Divergence("interp-memory", "; ".join(mismatches)))
        if bytes(final.scratch) != bytes(expected.scratch):
            report.divergences.append(
                Divergence("interp-scratch", _scratch_diff(
                    bytes(final.scratch), expected.scratch)))
        leftover = {
            f"{kind}{port_id}": len(queue)
            for (kind, port_id), queue in final.queues.items()
            if queue
        }
        if leftover:
            report.divergences.append(
                Divergence("interp-leftover",
                           f"undrained port data: {leftover}"))
    return report


def _scratch_diff(got: bytes, want: bytes) -> str:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"scratch[{i}]: got 0x{g:02x} want 0x{w:02x}"
    return f"scratch length {len(got)} vs {len(want)}"

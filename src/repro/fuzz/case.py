"""Fuzz-case plans: a JSON-serialisable genome for one stream program.

A :class:`CasePlan` is everything needed to *deterministically* rebuild a
fuzz case: the DFG spec, the schedule seed, and per-port feed/drain
segments holding concrete data (arrays, constants, indices).  Shrinking
and replay operate on plans, never on raw command lists — a plan is legal
by construction, so every shrink candidate is still a well-formed program.

:func:`build_case` lowers a plan to a :class:`StreamProgram` plus its
initial memory image.  The lowering is pure and deterministic: the same
plan always produces a byte-identical command encoding (the
seed-determinism test in ``tests/test_fuzz.py`` asserts exactly that).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cgra.fabric import broadly_provisioned
from ..core.compiler import schedule
from ..core.compiler.config import CgraConfig
from ..core.isa.patterns import SCRATCH_BYTES
from ..core.isa.program import StreamProgram
from ..sim.memory import BackingStore, MemoryImage, MemorySystem, load_image, pack_words
from ..workloads.common import Allocator

#: annealing effort for fuzz schedules — far less than the workloads use;
#: fuzz DFGs are tiny and throughput matters.  Must stay fixed: replaying
#: a corpus case re-runs the scheduler with these exact parameters.
FUZZ_ANNEAL_ITERATIONS = 150
FUZZ_SCHEDULE_ATTEMPTS = 4

CASE_VERSION = 1


class PlanError(ValueError):
    """A plan violates the generator's legality rules."""


# -- segments -----------------------------------------------------------------


@dataclass
class FeedSegment:
    """One stream of data into an input port.

    Kinds: ``const`` (SD_Const_Port), ``mem`` (SD_Mem_Port with affine
    geometry over ``array``), ``scratch`` (memory -> scratchpad ->
    port round-trip of ``array``), ``indirect`` (index fill + SD_IndPort_Port
    gather of ``array[indices]``) and ``recur`` (SD_Port_Port from output
    ``src``).
    """

    kind: str
    count: int = 0  # const/recur only; derived for the array kinds
    value: int = 0
    array: List[int] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    elem_bytes: int = 8
    signed: bool = False
    per_access: int = 1
    stride_elems: int = 0
    num_strides: int = 1
    src: str = ""

    @property
    def num_elements(self) -> int:
        if self.kind == "mem":
            return self.per_access * self.num_strides
        if self.kind == "scratch":
            return len(self.array)
        if self.kind == "indirect":
            return len(self.indices)
        return self.count

    # JSON keeps only the fields the kind uses, so case files stay legible.
    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "const":
            out.update(count=self.count, value=self.value)
        elif self.kind == "recur":
            out.update(count=self.count, src=self.src)
        elif self.kind == "mem":
            out.update(array=self.array, elem_bytes=self.elem_bytes,
                       signed=self.signed, per_access=self.per_access,
                       stride_elems=self.stride_elems,
                       num_strides=self.num_strides)
        elif self.kind == "scratch":
            out.update(array=self.array, elem_bytes=self.elem_bytes,
                       signed=self.signed)
        elif self.kind == "indirect":
            out.update(array=self.array, indices=self.indices,
                       elem_bytes=self.elem_bytes, signed=self.signed)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FeedSegment":
        return cls(**data)


@dataclass
class DrainSegment:
    """One stream of data out of an output port.

    Kinds: ``mem`` (SD_Port_Mem with non-overlapping affine geometry),
    ``scatter`` (index fill + SD_IndPort_Mem to distinct addresses),
    ``scratch`` (SD_Port_Scratch), ``clean`` (SD_Clean_Port) and ``recur``
    (placeholder for the elements a recurrence stream consumes; the
    command itself is emitted on the feed side).
    """

    kind: str
    count: int = 0  # scratch/clean/recur; derived for mem/scatter
    elem_bytes: int = 8
    per_access: int = 1
    stride_elems: int = 1
    num_strides: int = 1
    indices: List[int] = field(default_factory=list)

    @property
    def num_elements(self) -> int:
        if self.kind == "mem":
            return self.per_access * self.num_strides
        if self.kind == "scatter":
            return len(self.indices)
        return self.count

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "mem":
            out.update(elem_bytes=self.elem_bytes, per_access=self.per_access,
                       stride_elems=self.stride_elems,
                       num_strides=self.num_strides)
        elif self.kind == "scatter":
            out.update(elem_bytes=self.elem_bytes, indices=self.indices)
        elif self.kind == "scratch":
            out.update(count=self.count, elem_bytes=self.elem_bytes)
        else:  # clean / recur
            out.update(count=self.count)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DrainSegment":
        return cls(**data)


# -- the plan -----------------------------------------------------------------


@dataclass
class CasePlan:
    """A complete, replayable fuzz case."""

    name: str
    dfg_spec: dict
    schedule_seed: int
    num_instances: int
    feeds: Dict[str, List[FeedSegment]]
    drains: Dict[str, List[DrainSegment]]
    recur_in: str = ""
    recur_out: str = ""
    interleave_seed: int = 0
    #: ``(spec, key)``: :func:`spec_key` of the spec object ``dfg_spec``
    #: held when it was taken; neither compared nor serialised
    keyed_spec: Optional[Tuple[dict, str]] = field(
        default=None, compare=False, repr=False)

    def schedule_key(self) -> str:
        """``dfg_spec``'s schedule-memo key, serialised once per spec
        object: a plan whose ``dfg_spec`` is reassigned (as the shrinker
        does) takes a new key.  A spec is never edited in place once its
        plan is built."""
        keyed = self.keyed_spec
        if keyed is None or keyed[0] is not self.dfg_spec:
            keyed = self.keyed_spec = (self.dfg_spec, spec_key(self.dfg_spec))
        return keyed[1]


def plan_to_json(plan: CasePlan) -> str:
    """Canonical JSON text (stable key order => byte-identical replays)."""
    payload = {
        "version": CASE_VERSION,
        "name": plan.name,
        "dfg": plan.dfg_spec,
        "schedule_seed": plan.schedule_seed,
        "num_instances": plan.num_instances,
        "recur_in": plan.recur_in,
        "recur_out": plan.recur_out,
        "interleave_seed": plan.interleave_seed,
        "feeds": {
            port: [seg.to_dict() for seg in segs]
            for port, segs in sorted(plan.feeds.items())
        },
        "drains": {
            port: [seg.to_dict() for seg in segs]
            for port, segs in sorted(plan.drains.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def plan_from_json(text: str) -> CasePlan:
    data = json.loads(text)
    if data.get("version") != CASE_VERSION:
        raise PlanError(f"unsupported case version {data.get('version')!r}")
    return CasePlan(
        name=data["name"],
        dfg_spec=data["dfg"],
        schedule_seed=data["schedule_seed"],
        num_instances=data["num_instances"],
        feeds={
            port: [FeedSegment.from_dict(d) for d in segs]
            for port, segs in data["feeds"].items()
        },
        drains={
            port: [DrainSegment.from_dict(d) for d in segs]
            for port, segs in data["drains"].items()
        },
        recur_in=data.get("recur_in", ""),
        recur_out=data.get("recur_out", ""),
        interleave_seed=data.get("interleave_seed", 0),
    )


# -- validation ---------------------------------------------------------------


def element_indices(per_access: int, stride_elems: int,
                    num_strides: int) -> List[int]:
    """Element offsets an affine pattern touches, in stream order."""
    return [
        i * stride_elems + j
        for i in range(num_strides)
        for j in range(per_access)
    ]


def validate_plan(plan: CasePlan) -> None:
    """Raise :class:`PlanError` unless the plan obeys every legality rule.

    The DFG's port names and widths (an output's width is its source
    count) are read from ``plan.dfg_spec`` without parsing the graph.
    """
    spec = plan.dfg_spec
    in_width = {port["name"]: port["width"] for port in spec["inputs"]}
    out_width = {port["name"]: len(port["sources"]) for port in spec["outputs"]}
    if not 1 <= plan.num_instances <= 16:
        raise PlanError("num_instances must be in 1..16 (port depth)")
    if set(plan.feeds) != set(in_width):
        raise PlanError("feeds must cover exactly the DFG input ports")
    if set(plan.drains) != set(out_width):
        raise PlanError("drains must cover exactly the DFG output ports")

    scratch_used = 0
    for port, segments in sorted(plan.feeds.items()):
        width = in_width[port]
        total = 0
        for index, seg in enumerate(segments):
            if seg.num_elements <= 0:
                raise PlanError(f"{port}[{index}]: empty segment")
            total += seg.num_elements
            if seg.kind == "recur":
                if port != plan.recur_in or seg.src != plan.recur_out:
                    raise PlanError(f"{port}[{index}]: stray recurrence")
                if index != len(segments) - 1:
                    raise PlanError("recurrence must be the last feed segment")
            elif seg.kind == "mem":
                span = ((seg.num_strides - 1) * seg.stride_elems
                        + seg.per_access)
                if len(seg.array) != span:
                    raise PlanError(f"{port}[{index}]: array/geometry mismatch")
            elif seg.kind == "scratch":
                scratch_used += _aligned(len(seg.array) * seg.elem_bytes)
            elif seg.kind == "indirect":
                if any(not 0 <= i < len(seg.array) for i in seg.indices):
                    raise PlanError(f"{port}[{index}]: index out of range")
        if total != width * plan.num_instances:
            raise PlanError(
                f"{port}: feeds {total} elements, needs "
                f"{width * plan.num_instances}"
            )
    for port, segments in sorted(plan.drains.items()):
        width = out_width[port]
        total = 0
        for index, seg in enumerate(segments):
            if seg.num_elements <= 0:
                raise PlanError(f"{port}[{index}]: empty segment")
            total += seg.num_elements
            if seg.kind == "recur":
                if port != plan.recur_out or index != 0:
                    raise PlanError("recurrence must drain first")
                feed = plan.feeds[plan.recur_in][-1]
                if feed.kind != "recur" or feed.count != seg.count:
                    raise PlanError("recurrence feed/drain mismatch")
            elif seg.kind == "mem":
                if seg.num_strides > 1 and seg.stride_elems < seg.per_access:
                    raise PlanError(
                        f"{port}[{index}]: overlapping write pattern "
                        "(write completion order is not deterministic)"
                    )
            elif seg.kind == "scatter":
                if len(set(seg.indices)) != len(seg.indices):
                    raise PlanError(f"{port}[{index}]: duplicate scatter index")
            elif seg.kind == "scratch":
                scratch_used += _aligned(seg.count * seg.elem_bytes)
        if total != width * plan.num_instances:
            raise PlanError(
                f"{port}: drains {total} elements, produces "
                f"{width * plan.num_instances}"
            )
    if plan.recur_in:
        feed = plan.feeds[plan.recur_in][-1]
        width = in_width[plan.recur_in]
        if out_width[plan.recur_out] < width:
            raise PlanError("recurrence source narrower than destination")
        seed = width * plan.num_instances - feed.count
        if seed < width:
            raise PlanError("recurrence needs at least one seeded instance")
    if scratch_used > SCRATCH_BYTES:
        raise PlanError(f"plan needs {scratch_used} B scratch, have "
                        f"{SCRATCH_BYTES}")


def _aligned(nbytes: int) -> int:
    return (nbytes + 63) // 64 * 64


# -- lowering -----------------------------------------------------------------

#: the one fabric every fuzz DFG is scheduled on; nothing mutates a
#: fabric after it is built, so every case and config shares it
FUZZ_FABRIC = broadly_provisioned()

#: schedules the memo keeps; one seed's sweep of 2,000 plans fits, so a
#: replay of it schedules nothing twice
SCHEDULE_CACHE_SIZE = 2048

#: (DFG spec, schedule seed) -> configuration, least recently used first
_SCHEDULE_CACHE: Dict[Tuple[str, int], CgraConfig] = {}


def spec_key(dfg_spec: dict) -> str:
    """A DFG spec as the schedule memo's key text."""
    return json.dumps(dfg_spec, sort_keys=True)


def schedule_plan_dfg(dfg_spec: dict, schedule_seed: int,
                      key: Optional[str] = None) -> CgraConfig:
    """Schedule a plan's DFG on the fuzz fabric (memoised: the generator
    and the oracle's three legs all need the same configuration).

    ``key`` is :func:`spec_key` of ``dfg_spec`` when the caller holds it.
    The memo keeps the :data:`SCHEDULE_CACHE_SIZE` most recently used
    schedules, so a campaign's memory does not grow with its case count.
    """
    from .generators import dfg_from_spec

    key = (spec_key(dfg_spec) if key is None else key, schedule_seed)
    cache = _SCHEDULE_CACHE
    config = cache.pop(key, None)
    if config is not None:
        cache[key] = config  # reinserted: now the most recently used
        return config
    config = schedule(
        dfg_from_spec(dfg_spec),
        FUZZ_FABRIC,
        seed=schedule_seed,
        anneal_iterations=FUZZ_ANNEAL_ITERATIONS,
        max_attempts=FUZZ_SCHEDULE_ATTEMPTS,
    )
    cache[key] = config
    if len(cache) > SCHEDULE_CACHE_SIZE:
        del cache[next(iter(cache))]
    return config


@dataclass
class BuiltCase:
    """A plan lowered to a runnable program plus its initial memory image."""

    plan: CasePlan
    program: StreamProgram
    config: CgraConfig
    #: (port, segment index) -> symbolic address assignments
    feed_layout: Dict[Tuple[str, int], Dict[str, int]]
    drain_layout: Dict[Tuple[str, int], Dict[str, int]]
    image: MemoryImage

    @property
    def fabric(self):
        return self.config.fabric

    def fresh_memory(self) -> MemorySystem:
        return load_image(self.image)

    def fresh_store(self) -> BackingStore:
        return self.fresh_memory().store


def build_case(plan: CasePlan) -> BuiltCase:
    """Lower a plan to a program, deterministically.

    Layout, indirect-port assignment and command interleaving all follow
    from the plan alone (ports in sorted order, interleave driven by
    ``interleave_seed``), so equal plans produce byte-identical programs.
    """
    validate_plan(plan)
    config = schedule_plan_dfg(plan.dfg_spec, plan.schedule_seed,
                               plan.schedule_key())
    program = StreamProgram(plan.name, config)

    alloc = Allocator()
    scratch_next = 0
    ind_next = 0
    image: List[Tuple[int, bytes]] = []
    feed_layout: Dict[Tuple[str, int], Dict[str, int]] = {}
    drain_layout: Dict[Tuple[str, int], Dict[str, int]] = {}

    def take_scratch(nbytes: int) -> int:
        nonlocal scratch_next
        addr = scratch_next
        scratch_next += _aligned(nbytes)
        return addr

    def take_ind() -> int:
        nonlocal ind_next
        port = ind_next
        ind_next += 1
        return port

    # Phase 1: layout + per-chain emitter closures.  Scratch preloads are
    # collected separately: every memory->scratch load runs before the
    # scratch-write barrier, which runs before any chain command.
    preamble: List = []
    chains: Dict[str, List] = {}

    for port in sorted(plan.feeds):
        chain: List = []
        for index, seg in enumerate(plan.feeds[port]):
            layout: Dict[str, int] = {}
            if seg.kind == "const":
                chain.append(lambda s=seg, p=port:
                             program.const_port(s.value, s.count, p))
            elif seg.kind == "mem":
                base = alloc.alloc(len(seg.array) * seg.elem_bytes)
                layout["base"] = base
                image.append((base, pack_words(seg.array, seg.elem_bytes)))
                chain.append(lambda s=seg, b=base, p=port: program.mem_port(
                    b, s.stride_elems * s.elem_bytes,
                    s.per_access * s.elem_bytes, s.num_strides, p,
                    elem_bytes=s.elem_bytes, signed=s.signed))
            elif seg.kind == "scratch":
                nbytes = len(seg.array) * seg.elem_bytes
                staging = alloc.alloc(nbytes)
                saddr = take_scratch(nbytes)
                layout["staging"], layout["scratch"] = staging, saddr
                image.append((staging, pack_words(seg.array, seg.elem_bytes)))
                preamble.append(lambda s=seg, m=staging, sa=saddr, n=nbytes:
                                program.mem_scratch(m, n, n, 1, sa,
                                                    elem_bytes=s.elem_bytes))
                chain.append(lambda s=seg, sa=saddr, p=port, n=nbytes:
                             program.scratch_port(sa, n, n, 1, p,
                                                  elem_bytes=s.elem_bytes,
                                                  signed=s.signed))
            elif seg.kind == "indirect":
                table = alloc.alloc(len(seg.array) * seg.elem_bytes)
                idx = alloc.alloc(len(seg.indices) * 8)
                ind_id = take_ind()
                layout["table"], layout["indices"] = table, idx
                layout["ind_port"] = ind_id
                image.append((table, pack_words(seg.array, seg.elem_bytes)))
                image.append((idx, pack_words(seg.indices, 8)))
                chain.append(lambda s=seg, a=idx, k=ind_id:
                             program.mem_to_indirect(a, len(s.indices), k))
                chain.append(lambda s=seg, t=table, k=ind_id, p=port:
                             program.ind_port_port(
                                 k, t, p, len(s.indices),
                                 elem_bytes=s.elem_bytes,
                                 index_scale=s.elem_bytes, signed=s.signed))
            elif seg.kind == "recur":
                chain.append(lambda s=seg, p=port:
                             program.port_port(s.src, s.count, p))
            feed_layout[(port, index)] = layout
        chains[f"in:{port}"] = chain

    for port in sorted(plan.drains):
        chain = []
        for index, seg in enumerate(plan.drains[port]):
            layout = {}
            if seg.kind == "mem":
                span = ((seg.num_strides - 1) * seg.stride_elems
                        + seg.per_access)
                base = alloc.alloc(span * seg.elem_bytes)
                layout["base"] = base
                chain.append(lambda s=seg, b=base, p=port: program.port_mem(
                    p, s.stride_elems * s.elem_bytes,
                    s.per_access * s.elem_bytes, s.num_strides, b,
                    elem_bytes=s.elem_bytes))
            elif seg.kind == "scatter":
                base = alloc.alloc((max(seg.indices) + 1) * 8)
                idx = alloc.alloc(len(seg.indices) * 8)
                ind_id = take_ind()
                layout["base"], layout["indices"] = base, idx
                layout["ind_port"] = ind_id
                image.append((idx, pack_words(seg.indices, 8)))
                chain.append(lambda s=seg, a=idx, k=ind_id:
                             program.mem_to_indirect(a, len(s.indices), k))
                chain.append(lambda s=seg, b=base, k=ind_id, p=port:
                             program.ind_port_mem(
                                 k, p, b, len(s.indices),
                                 elem_bytes=s.elem_bytes, index_scale=8))
            elif seg.kind == "scratch":
                saddr = take_scratch(seg.count * seg.elem_bytes)
                layout["scratch"] = saddr
                chain.append(lambda s=seg, sa=saddr, p=port:
                             program.port_scratch(p, s.count, sa,
                                                  elem_bytes=s.elem_bytes))
            elif seg.kind == "clean":
                chain.append(lambda s=seg, p=port:
                             program.clean_port(s.count, p))
            # "recur": command already emitted by the feed side
            drain_layout[(port, index)] = layout
        chains[f"out:{port}"] = chain

    # A recurrence ties its feed chain to its drain chain: the SD_Port_Port
    # command must follow the seeds and precede every other drain of the
    # source port (same-(port, role) program order).
    if plan.recur_in:
        joined = chains.pop(f"in:{plan.recur_in}")
        joined.extend(chains.pop(f"out:{plan.recur_out}"))
        chains[f"in:{plan.recur_in}"] = joined

    # Phase 2: emit.  config -> scratch preloads -> barrier -> random
    # topological merge of the per-port chains -> full barrier.
    for emit in preamble:
        emit()
    if preamble:
        program.barrier_scratch_wr()
    rng = random.Random(plan.interleave_seed)
    order = sorted(chains)
    cursors = {name: 0 for name in order}
    live = [name for name in order if chains[name]]
    while live:
        name = rng.choice(live)
        chains[name][cursors[name]]()
        cursors[name] += 1
        if cursors[name] == len(chains[name]):
            live.remove(name)
    program.barrier_all()

    return BuiltCase(plan, program, config, feed_layout, drain_layout, tuple(image))

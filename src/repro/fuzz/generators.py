"""Random-but-legal artifact generators for differential fuzzing.

Three levels, mirroring the tentpole layering in docs/FUZZING.md:

1. **Random DFGs** — :func:`random_dfg` / :func:`random_inputs`, the pool
   the property-based tests always used (lifted here from
   ``tests/test_property_dfg.py`` so the fuzzer and the hypothesis
   strategies share one generator).  DFG specs serialise to plain JSON via
   :func:`dfg_to_spec` / :func:`dfg_from_spec` so a fuzz case replays
   without re-running the generator.
2. **Random stream segments** — per-port feed/drain plans with
   self-consistent widths, element sizes and non-overlapping regions.
3. **Whole programs** — :func:`random_plan` assembles a
   :class:`~repro.fuzz.case.CasePlan` whose reference result is computable
   by the pure evaluator in :mod:`repro.fuzz.oracle`.

Legality rules enforced here (the "why" lives in docs/FUZZING.md):

* per-port totals fit the vector-port FIFO (``num_instances`` ≤
  :data:`MAX_INSTANCES` ≤ port depth), so feed streams can always drain
  without requiring CGRA progress — generated programs cannot deadlock
  structurally;
* write patterns never overlap themselves (completion times of line
  requests are not monotonic, so overlapping writes would be
  timing-dependent);
* at most one recurrence per program, only from a wider-or-equal output
  port, seeded with at least one full instance of data.

Feed segments may come in any order on one port, because each vector port
delivers its writer streams in program order across engines.  The
generator still draws memory/indirect segments last and recurrence seeds
from const/scratch only; ``validate_plan`` accepts any order.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..core.dfg import Constant, Dfg, DfgError, ValueRef
from ..core.dfg.instructions import WORD_MASK
from .case import CasePlan, DrainSegment, FeedSegment

#: op pool for random graphs: (mnemonic, arity)
RANDOM_OPS = [
    ("add", 2), ("sub", 2), ("mul", 2), ("min", 2), ("max", 2),
    ("and", 2), ("or", 2), ("xor", 2), ("eq", 2), ("lt", 2),
    ("abs", 1), ("neg", 1), ("pass", 1), ("select", 3), ("hadd", 1),
]

#: computation instances per generated program; ≤ port depth (16) so every
#: port's total traffic fits its FIFO — the structural-deadlock-freedom rule
MAX_INSTANCES = 8

#: scratchpad bytes a generated plan may claim (below ``SCRATCH_BYTES``,
#: leaving headroom so line-aligned allocation never overflows)
SCRATCH_BUDGET = 3072

#: indirect ports available on the target fabrics
NUM_IND_PORTS = 4


def random_dfg(seed: int, num_inputs: int, num_insts: int) -> Dfg:
    """Build a random valid (connected, acyclic) DFG."""
    rng = random.Random(seed)
    dfg = Dfg(f"rand{seed}")
    values = []
    for i in range(num_inputs):
        width = rng.randint(1, 4)
        dfg.add_input(f"I{i}", width)
        values.extend(ValueRef(f"I{i}", lane) for lane in range(width))
    for n in range(num_insts):
        name, arity = rng.choice(RANDOM_OPS)
        operands = []
        for _ in range(arity):
            if rng.random() < 0.15:
                operands.append(Constant(rng.randint(0, 1000)))
            else:
                operands.append(rng.choice(values))
        lane_bits = rng.choice([64, 64, 64, 16, 32])
        dfg.add_instruction(f"n{n}", name, operands, lane_bits)
        values.append(ValueRef(f"n{n}"))
    # Route every otherwise-dead instruction into the output port.
    consumed = set()
    for inst in dfg.instructions.values():
        for ref in dfg.operand_refs(inst):
            consumed.add(ref.node)
    dead = [n for n in dfg.instructions if n not in consumed]
    sources = [ValueRef(n) for n in dead[:8]] or [values[-1]]
    dfg.add_output("O", sources)
    remaining = [ValueRef(n) for n in dead[8:]]
    for i in range(0, len(remaining), 8):
        dfg.add_output(f"O{i}", remaining[i : i + 8])
    return dfg


def random_inputs(dfg: Dfg, seed: int):
    rng = random.Random(seed * 31 + 7)
    return {
        name: [rng.randint(0, WORD_MASK) for _ in range(port.width)]
        for name, port in dfg.inputs.items()
    }


# -- DFG <-> JSON spec --------------------------------------------------------


def _operand_str(operand) -> str:
    return str(operand)  # "#5", "name" or "name.lane"


def _operand_from_str(text: str):
    if text.startswith("#"):
        return Constant(int(text[1:]))
    if "." in text:
        node, lane = text.rsplit(".", 1)
        return ValueRef(node, int(lane))
    return ValueRef(text)


def dfg_to_spec(dfg: Dfg) -> dict:
    """A JSON-serialisable description that rebuilds the DFG exactly."""
    return {
        "name": dfg.name,
        "inputs": [
            {"name": p.name, "width": p.width} for p in dfg.inputs.values()
        ],
        "instructions": [
            {
                "name": inst.name,
                "op": inst.op.name,
                "operands": [_operand_str(o) for o in inst.operands],
                "lane_bits": inst.lane_bits,
            }
            for inst in dfg.instructions.values()
        ],
        "outputs": [
            {"name": p.name, "sources": [str(ref) for ref in p.sources]}
            for p in dfg.outputs.values()
        ],
    }


def dfg_from_spec(spec: dict) -> Dfg:
    """Rebuild the DFG that :func:`dfg_to_spec` described.

    Raises :class:`DfgError` when an operand or an output source names no
    input and no instruction.
    """
    dfg = Dfg(spec["name"])
    for port in spec["inputs"]:
        dfg.add_input(port["name"], port["width"])
    for inst in spec["instructions"]:
        dfg.add_instruction(
            inst["name"],
            inst["op"],
            [_operand_from_str(o) for o in inst["operands"]],
            inst.get("lane_bits", 64),
        )
    for port in spec["outputs"]:
        dfg.add_output(
            port["name"], [_operand_from_str(s) for s in port["sources"]]
        )
    readers = [
        (inst.name, dfg.operand_refs(inst)) for inst in dfg.instructions.values()
    ] + [(f"output {port.name}", port.sources) for port in dfg.outputs.values()]
    for reader, refs in readers:
        for ref in refs:
            if ref.node not in dfg.inputs and ref.node not in dfg.instructions:
                raise DfgError(
                    f"DFG {dfg.name!r}: {reader} reads undefined value {ref}"
                )
    return dfg


def passthrough_dfg_spec(widths_in: Dict[str, int],
                         widths_out: Dict[str, int]) -> dict:
    """A minimal DFG with the given port shapes: every output lane is a
    ``pass`` of an input lane (round-robin).  The shrinker swaps this in to
    rule the computation out of a divergence."""
    dfg = Dfg("passthrough")
    lanes: List[ValueRef] = []
    for name, width in widths_in.items():
        dfg.add_input(name, width)
        lanes.extend(ValueRef(name, lane) for lane in range(width))
    counter = 0
    for name, width in widths_out.items():
        sources = []
        for _ in range(width):
            inst = f"p{counter}"
            dfg.add_instruction(inst, "pass", [lanes[counter % len(lanes)]])
            sources.append(ValueRef(inst))
            counter += 1
        dfg.add_output(name, sources)
    return dfg_to_spec(dfg)


# -- value pickers ------------------------------------------------------------

_INTERESTING_WORDS = [0, 1, 2, 0xFF, 0x8000_0000_0000_0000, WORD_MASK]


def _word(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return rng.choice(_INTERESTING_WORDS)
    return rng.getrandbits(64)


def _elem(rng: random.Random, elem_bytes: int) -> int:
    """A raw (unsigned) element value for an in-memory array."""
    bits = 8 * elem_bytes
    if rng.random() < 0.3:
        return rng.choice([0, 1, (1 << bits) - 1, 1 << (bits - 1)])
    return rng.getrandbits(bits)


def _split_count(rng: random.Random, total: int, max_parts: int) -> List[int]:
    """Partition ``total`` into 1..max_parts positive chunks."""
    parts = rng.randint(1, min(max_parts, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _mem_feed(rng: random.Random, count: int) -> FeedSegment:
    """An affine memory feed with random (possibly overlapping) geometry."""
    divisors = [d for d in range(1, count + 1) if count % d == 0]
    per_access = rng.choice(divisors)
    num_strides = count // per_access
    # Overlapping/repeating reads are legal; cap the stride so arrays stay
    # small.
    stride_elems = 0 if num_strides == 1 else rng.randint(0, per_access + 2)
    span = (num_strides - 1) * stride_elems + per_access
    elem_bytes = rng.choice([1, 2, 4, 8])
    signed = rng.random() < 0.5
    return FeedSegment(
        kind="mem",
        per_access=per_access,
        num_strides=num_strides,
        stride_elems=stride_elems,
        elem_bytes=elem_bytes,
        signed=signed,
        array=[_elem(rng, elem_bytes) for _ in range(span)],
    )


def _mem_drain(rng: random.Random, count: int) -> DrainSegment:
    """An affine memory drain; never overlaps itself (write completion
    times are not monotonic, so overlapping writes would be racy)."""
    divisors = [d for d in range(1, count + 1) if count % d == 0]
    per_access = rng.choice(divisors)
    num_strides = count // per_access
    stride_elems = per_access if num_strides == 1 else per_access + rng.randint(0, 2)
    return DrainSegment(
        kind="mem",
        per_access=per_access,
        num_strides=num_strides,
        stride_elems=stride_elems,
        elem_bytes=rng.choice([2, 4, 8]),
    )


class _ProgramBudget:
    """Shared resource tracking while one plan is generated."""

    def __init__(self) -> None:
        self.scratch_used = 0
        self.ind_ports = 0
        self.has_recurrence = False

    def scratch_ok(self, nbytes: int) -> bool:
        # Line-aligned allocation: round up pessimistically.
        return self.scratch_used + nbytes + 64 <= SCRATCH_BUDGET

    def take_scratch(self, nbytes: int) -> None:
        self.scratch_used += (nbytes + 63) // 64 * 64


def _feed_segments(rng: random.Random, width: int, instances: int,
                   budget: _ProgramBudget, recur_from: str) -> List[FeedSegment]:
    """Feed plan for one input port.

    If ``recur_from`` names an output port, the last segment is a
    recurrence fed by it, seeded from const/scratch segments.
    """
    total = width * instances
    if recur_from:
        recur_count = rng.randint(1, max(1, total - width))
        seeds = _split_count(rng, total - recur_count, 2)
        segments = [_const_or_scratch(rng, c, budget) for c in seeds]
        segments.append(FeedSegment(kind="recur", count=recur_count,
                                    src=recur_from))
        return segments
    counts = _split_count(rng, total, 3)
    segments = [_feed_segment(rng, c, budget) for c in counts]
    # Legality does not need this order; it keeps each seed's plans
    # unchanged, so fuzz runs and benchmark workloads stay comparable.
    return sorted(segments, key=lambda s: s.kind in ("mem", "indirect"))


def _const_or_scratch(rng: random.Random, count: int,
                      budget: _ProgramBudget) -> FeedSegment:
    if rng.random() < 0.4 and budget.scratch_ok(count * 8):
        return _scratch_feed(rng, count, budget)
    return FeedSegment(kind="const", count=count, value=_word(rng))


def _scratch_feed(rng: random.Random, count: int,
                  budget: _ProgramBudget) -> FeedSegment:
    elem_bytes = rng.choice([2, 4, 8])
    budget.take_scratch(count * elem_bytes)
    return FeedSegment(
        kind="scratch",
        elem_bytes=elem_bytes,
        signed=rng.random() < 0.5,
        array=[_elem(rng, elem_bytes) for _ in range(count)],
    )


def _feed_segment(rng: random.Random, count: int,
                  budget: _ProgramBudget) -> FeedSegment:
    roll = rng.random()
    if roll < 0.30:
        return FeedSegment(kind="const", count=count, value=_word(rng))
    if roll < 0.45 and budget.scratch_ok(count * 8):
        return _scratch_feed(rng, count, budget)
    if roll < 0.60 and budget.ind_ports < NUM_IND_PORTS and count <= 32:
        budget.ind_ports += 1
        elem_bytes = rng.choice([2, 4, 8])
        table = [_elem(rng, elem_bytes) for _ in range(rng.randint(4, 24))]
        return FeedSegment(
            kind="indirect",
            elem_bytes=elem_bytes,
            signed=rng.random() < 0.5,
            array=table,
            indices=[rng.randrange(len(table)) for _ in range(count)],
        )
    return _mem_feed(rng, count)


def _drain_segments(rng: random.Random, width: int, instances: int,
                    budget: _ProgramBudget, recur_count: int) -> List[DrainSegment]:
    """Drain plan for one output port; a recurrence (if any) consumes the
    first ``recur_count`` elements."""
    segments: List[DrainSegment] = []
    if recur_count:
        segments.append(DrainSegment(kind="recur", count=recur_count))
    remaining = width * instances - recur_count
    if remaining:
        for count in _split_count(rng, remaining, 2):
            segments.append(_drain_segment(rng, count, budget))
    return segments


def _drain_segment(rng: random.Random, count: int,
                   budget: _ProgramBudget) -> DrainSegment:
    roll = rng.random()
    if roll < 0.15:
        return DrainSegment(kind="clean", count=count)
    if roll < 0.30 and budget.scratch_ok(count * 8):
        elem_bytes = rng.choice([4, 8])
        budget.take_scratch(count * elem_bytes)
        return DrainSegment(kind="scratch", count=count, elem_bytes=elem_bytes)
    if roll < 0.50 and budget.ind_ports < NUM_IND_PORTS and count <= 32:
        budget.ind_ports += 1
        # Distinct indices => distinct target addresses (no write races).
        indices = rng.sample(range(2 * count + 4), count)
        return DrainSegment(
            kind="scatter",
            elem_bytes=rng.choice([4, 8]),
            indices=indices,
        )
    return _mem_drain(rng, count)


def random_plan(rng: random.Random, *, name: str = "fuzz") -> CasePlan:
    """Generate one legal-by-construction fuzz case.

    The DFG is drawn from the :func:`random_dfg` pool and retried until
    the spatial scheduler accepts it (narrow fabrics reject some port
    shapes); everything after that is legal by construction.
    """
    from .case import schedule_plan_dfg, spec_key  # local: import cycle

    instances = rng.randint(1, MAX_INSTANCES)
    for _ in range(32):
        dfg_seed = rng.randrange(1_000_000)
        dfg = random_dfg(dfg_seed, rng.randint(1, 3), rng.randint(1, 8))
        spec = dfg_to_spec(dfg)
        key = spec_key(spec)
        try:
            schedule_plan_dfg(spec, 0, key)
        except Exception:
            continue
        break
    else:  # pragma: no cover - the pool schedules within a few tries
        raise RuntimeError("could not draw a schedulable DFG")

    budget = _ProgramBudget()
    widths_in = {n: p.width for n, p in dfg.inputs.items()}
    widths_out = {n: p.width for n, p in dfg.outputs.items()}

    # Optional recurrence: one per program, output at least as wide as the
    # input it feeds, and only if there is room for a seed instance.
    recur_pairs = [
        (i, o)
        for i, wi in widths_in.items()
        for o, wo in widths_out.items()
        if wi <= wo and wi * instances - wi >= 1
    ]
    recur_in = recur_out = ""
    if recur_pairs and rng.random() < 0.35:
        recur_in, recur_out = rng.choice(recur_pairs)
        budget.has_recurrence = True

    feeds = {
        port: _feed_segments(rng, width, instances, budget,
                             recur_out if port == recur_in else "")
        for port, width in widths_in.items()
    }
    recur_count = 0
    if recur_in:
        recur_count = feeds[recur_in][-1].count
    drains = {
        port: _drain_segments(rng, width, instances, budget,
                              recur_count if port == recur_out else 0)
        for port, width in widths_out.items()
    }
    return CasePlan(
        name=name,
        dfg_spec=spec,
        schedule_seed=0,
        num_instances=instances,
        feeds=feeds,
        drains=drains,
        recur_in=recur_in,
        recur_out=recur_out,
        interleave_seed=rng.getrandbits(32),
        keyed_spec=(spec, key),
    )

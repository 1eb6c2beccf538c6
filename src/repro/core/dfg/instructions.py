"""Functional-unit operation semantics for stream-dataflow DFGs.

The Softbrain CGRA datapath is 64 bits wide and every functional unit can
operate on sub-words: one 64-bit lane, two 32-bit lanes or four 16-bit lanes
per firing (Section 4.4 of the paper).  This module defines the operation
registry shared by the DFG layer (software semantics), the CGRA hardware
model (latency/energy per op) and the spatial scheduler (which FU can run
which op).

All arithmetic is two's-complement integer arithmetic that wraps at the lane
width, mirroring fixed-point hardware.  Values travel between nodes as Python
ints holding the raw 64-bit word (``0 <= word < 2**64``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)

#: lane widths supported by the sub-word SIMD datapath
SUBWORD_WIDTHS = (64, 32, 16)


def mask_word(value: int) -> int:
    """Clamp an arbitrary Python int to a raw 64-bit word."""
    return value & WORD_MASK


def to_signed(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as a two's-complement int."""
    value &= (1 << bits) - 1
    sign_bit = 1 << (bits - 1)
    return (value ^ sign_bit) - sign_bit


def from_signed(value: int, bits: int) -> int:
    """Encode a Python int as a ``bits``-wide two's-complement field."""
    return value & ((1 << bits) - 1)


def split_lanes(word: int, lane_bits: int) -> List[int]:
    """Split a 64-bit word into unsigned lanes, lowest lane first."""
    lane_mask = (1 << lane_bits) - 1
    count = WORD_BITS // lane_bits
    return [(word >> (i * lane_bits)) & lane_mask for i in range(count)]


def join_lanes(lanes: Sequence[int], lane_bits: int) -> int:
    """Pack unsigned lane values (lowest first) back into a 64-bit word."""
    lane_mask = (1 << lane_bits) - 1
    word = 0
    for i, lane in enumerate(lanes):
        word |= (lane & lane_mask) << (i * lane_bits)
    return word


def fixed_point_sigmoid(x: int, frac_bits: int = 8) -> int:
    """Piecewise-linear sigmoid on fixed-point input, as a 16-bit FU would.

    Uses the classic hard-sigmoid approximation ``clamp(x/4 + 0.5, 0, 1)``
    which is what small lookup/PLA sigmoid units (e.g. DianNao's NFU-3)
    implement.  Input and output are Q(frac_bits) fixed point.
    """
    one = 1 << frac_bits
    y = (x >> 2) + (one >> 1)
    if y < 0:
        return 0
    if y > one:
        return one
    return y


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

#: a lane-level semantic function: (signed operands...) -> signed result
LaneFn = Callable[..., int]


@dataclass(frozen=True)
class Operation:
    """A functional-unit operation.

    Attributes:
        name: canonical lower-case mnemonic (``"add"``, ``"mul"``...).
        arity: number of data inputs.
        latency: pipeline depth in cycles on the CGRA.
        lane_fn: per-lane semantics on signed ints; result is re-encoded
            at the lane width with wraparound.
        whole_word: the op sees whole 64-bit words instead of lanes — used
            for horizontal reductions across sub-words (``hadd16`` etc.),
            where ``lane_bits`` selects the sub-word size being reduced.
    """

    name: str
    arity: int
    latency: int
    lane_fn: LaneFn
    whole_word: bool = False

    def evaluate(self, operands: Sequence[int], lane_bits: int = 64) -> int:
        """Apply the op to raw 64-bit words, lane-wise at ``lane_bits``."""
        if len(operands) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} operands, got {len(operands)}"
            )
        if lane_bits not in SUBWORD_WIDTHS:
            raise ValueError(f"unsupported lane width {lane_bits}")
        if self.whole_word:
            signed_result = self.lane_fn(
                *(mask_word(w) for w in operands), lane_bits
            )
            return mask_word(signed_result)
        if lane_bits == WORD_BITS:
            # One lane is the whole word: sign it, apply, wrap.
            return self.lane_fn(
                *[((w & WORD_MASK) ^ _SIGN_BIT) - _SIGN_BIT for w in operands]
            ) & WORD_MASK
        per_operand_lanes = [split_lanes(mask_word(w), lane_bits) for w in operands]
        out_lanes = []
        for lane_values in zip(*per_operand_lanes):
            signed = [to_signed(v, lane_bits) for v in lane_values]
            out_lanes.append(from_signed(self.lane_fn(*signed), lane_bits))
        return join_lanes(out_lanes, lane_bits)


_REGISTRY: Dict[str, Operation] = {}


def register(op: Operation) -> Operation:
    """Add an operation to the global registry (name must be unique)."""
    if op.name in _REGISTRY:
        raise ValueError(f"operation {op.name!r} already registered")
    _REGISTRY[op.name] = op
    return op


def get_operation(name: str) -> Operation:
    """Look up an operation by mnemonic; raises KeyError with suggestions."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown operation {name!r}; known: {known}") from None


def all_operations() -> Tuple[Operation, ...]:
    """All registered operations, sorted by name."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def div_trunc(a: int, b: int) -> int:
    """The hardware's divide: truncate toward zero; divide-by-zero yields
    -1 (all ones, as many DSP datapaths do) rather than trapping."""
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _mod(a: int, b: int) -> int:
    if b == 0:
        return a
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _rshift(a: int, b: int) -> int:
    return a >> (b & 63)


def _lshift(a: int, b: int) -> int:
    return a << (b & 63)


# Arithmetic -----------------------------------------------------------------
register(Operation("add", 2, 1, operator.add))
register(Operation("sub", 2, 1, operator.sub))
register(Operation("mul", 2, 2, operator.mul))
register(Operation("div", 2, 8, div_trunc))
register(Operation("mod", 2, 8, _mod))
register(Operation("abs", 1, 1, abs))
register(Operation("neg", 1, 1, operator.neg))
register(Operation("min", 2, 1, min))
register(Operation("max", 2, 1, max))

# Logic / shifts --------------------------------------------------------------
register(Operation("and", 2, 1, operator.and_))
register(Operation("or", 2, 1, operator.or_))
register(Operation("xor", 2, 1, operator.xor))
register(Operation("shl", 2, 1, _lshift))
register(Operation("shr", 2, 1, _rshift))

# Comparisons (produce 0/1 in the lane) ---------------------------------------
register(Operation("eq", 2, 1, lambda a, b: int(a == b)))
register(Operation("ne", 2, 1, lambda a, b: int(a != b)))
register(Operation("lt", 2, 1, lambda a, b: int(a < b)))
register(Operation("le", 2, 1, lambda a, b: int(a <= b)))
register(Operation("gt", 2, 1, lambda a, b: int(a > b)))
register(Operation("ge", 2, 1, lambda a, b: int(a >= b)))

# Predication: select(pred, a, b) == a if pred != 0 else b --------------------
register(Operation("select", 3, 1, lambda p, a, b: a if p != 0 else b))

# Routing / identity ----------------------------------------------------------
register(Operation("pass", 1, 1, lambda a: a))

# Horizontal reductions (whole-word: sum the sub-word lanes into a scalar) ----
def _hadd(word: int, lane_bits: int) -> int:
    return sum(to_signed(v, lane_bits) for v in split_lanes(word, lane_bits))


def _hmin(word: int, lane_bits: int) -> int:
    return min(to_signed(v, lane_bits) for v in split_lanes(word, lane_bits))


def _hmax(word: int, lane_bits: int) -> int:
    return max(to_signed(v, lane_bits) for v in split_lanes(word, lane_bits))


register(Operation("hadd", 1, 1, _hadd, whole_word=True))
register(Operation("hmin", 1, 1, _hmin, whole_word=True))
register(Operation("hmax", 1, 1, _hmax, whole_word=True))

# Fused / special units --------------------------------------------------------
register(Operation("madd", 3, 2, lambda a, b, c: a * b + c))
register(Operation("sigmoid", 1, 2, fixed_point_sigmoid))
# Stateful accumulators ---------------------------------------------------------
# The lane function is a placeholder: accumulation is stateful and handled by
# the DFG/CGRA execution engines using ``accumulate_combine`` below.  The
# operands are ``(value, reset)``: each firing outputs ``combine(state,
# value)``; a nonzero reset returns the state to the op's identity afterwards
# (the paper's Figure 6 ``acc``/``Port_R`` idiom).
register(Operation("acc", 2, 1, lambda a, r: a))
register(Operation("accmin", 2, 1, lambda a, r: a))
register(Operation("accmax", 2, 1, lambda a, r: a))

#: accumulator op name -> (combining op name, identity generator)
ACCUMULATOR_OPS = {"acc": "add", "accmin": "min", "accmax": "max"}


def accumulator_identity(op_name: str, lane_bits: int) -> int:
    """The 64-bit word holding the identity in every lane of an accumulator."""
    if op_name == "acc":
        return 0
    if op_name == "accmin":  # +max per lane
        lane = (1 << (lane_bits - 1)) - 1
    elif op_name == "accmax":  # -min per lane
        lane = 1 << (lane_bits - 1)
    else:
        raise KeyError(f"{op_name!r} is not an accumulator op")
    return join_lanes([lane] * (WORD_BITS // lane_bits), lane_bits)


def accumulate_combine(op_name: str, state: int, value: int, lane_bits: int) -> int:
    """Lane-wise combine of accumulator state with an incoming word."""
    combine = get_operation(ACCUMULATOR_OPS[op_name])
    return combine.evaluate([state, value], lane_bits)

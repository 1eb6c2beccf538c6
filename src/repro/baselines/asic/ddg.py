"""Dynamic data-dependence graphs (DDGs) — the heart of mini-Aladdin.

Aladdin (Shao et al., ISCA'14) estimates fixed-function accelerator
performance pre-RTL by executing the kernel once, recording every dynamic
operation and its data/memory dependences, then scheduling that graph under
candidate hardware constraints.

One kernel, two evaluators.  Each kernel is written once, against the
:class:`Evaluator` interface, as the original C loop nest reads.  Run on a
plain :class:`Evaluator` it computes the reference result the simulator's
output is checked against; run on a :class:`TraceBuilder` (our equivalent
of Aladdin's instrumented execution) it computes the same values and
records the dependence graph as a side effect.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.dfg.instructions import div_trunc

#: op kind -> (latency cycles, dynamic energy pJ at 55 nm)
OP_COSTS: Dict[str, Tuple[int, float]] = {
    "load": (2, 1.20),
    "store": (2, 1.50),
    "add": (1, 0.10),
    "mul": (3, 0.80),
    "div": (18, 2.40),
    "cmp": (1, 0.05),
    "shift": (1, 0.05),
    "logic": (1, 0.03),
    "special": (2, 0.40),  # sigmoid-class lookup units
}

#: which schedulable resource class each op consumes
OP_RESOURCE: Dict[str, str] = {
    "load": "mem",
    "store": "mem",
    "add": "alu",
    "cmp": "alu",
    "shift": "alu",
    "logic": "alu",
    "mul": "mul",
    "div": "div",
    "special": "special",
}


class Ddg:
    """A complete dynamic dependence graph plus array metadata.

    Ops are held as columns, one entry per op in program order; an op's id
    is its position.  ``mem_arrays`` and ``mem_indices`` name the array
    element a load or store touches (``None`` and 0 for other ops).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds: List[str] = []
        self.deps: List[Tuple[int, ...]] = []
        self.mem_arrays: List[Optional[str]] = []
        self.mem_indices: List[int] = []
        self.arrays: Dict[str, int] = {}  # array name -> element count
        # Kept by :meth:`add`, so design-point estimates do not walk every
        # op: a running op histogram, and the energy total cached on first
        # use (``sum`` itself, as its float result differs from a ``+=``
        # loop from Python 3.12 on).
        self._histogram: Dict[str, int] = {}
        self._energy_pj: Optional[float] = None

    def add(self, kind: str, deps: Sequence[int], array: Optional[str] = None,
            index: int = 0) -> int:
        if kind not in OP_COSTS:
            raise KeyError(f"unknown DDG op kind {kind!r}")
        op = len(self.kinds)
        self.kinds.append(kind)
        self.deps.append(tuple(deps))
        self.mem_arrays.append(array)
        self.mem_indices.append(index)
        self._histogram[kind] = self._histogram.get(kind, 0) + 1
        self._energy_pj = None
        return op

    def declare_array(self, name: str, elements: int) -> None:
        self.arrays[name] = elements

    @property
    def num_ops(self) -> int:
        return len(self.kinds)

    def op_histogram(self) -> Dict[str, int]:
        return dict(self._histogram)

    def total_energy_pj(self) -> float:
        if self._energy_pj is None:
            self._energy_pj = sum(OP_COSTS[kind][1] for kind in self.kinds)
        return self._energy_pj

    def critical_path(self) -> int:
        """Longest latency-weighted dependence chain (min possible cycles)."""
        finish: List[int] = []
        for kind, deps in zip(self.kinds, self.deps):
            start = max((finish[d] for d in deps), default=0)
            finish.append(start + OP_COSTS[kind][0])
        return max(finish, default=0)


class Evaluator:
    """Runs a kernel on plain ints: the kernel's reference result.

    Values are plain ints and every op is plain integer arithmetic.  Arrays
    hold the kernel's inputs and, after the run, its outputs.
    """

    def __init__(self) -> None:
        self._arrays: Dict[str, List[int]] = {}

    def array(self, name: str, initial: Sequence[int]) -> None:
        """Declare an array with initial contents."""
        self._arrays[name] = list(initial)

    def array_values(self, name: str) -> List[int]:
        """An array's current contents (the result, after a run)."""
        return list(self._arrays[name])

    def const(self, value: int) -> int:
        return value

    def load(self, name: str, index: int) -> int:
        return self._arrays[name][index]

    def store(self, name: str, index: int, value: int) -> None:
        self._arrays[name][index] = value

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(div_trunc)
    minimum = staticmethod(min)
    maximum = staticmethod(max)
    compare_eq = staticmethod(lambda a, b: int(a == b))
    select = staticmethod(lambda p, a, b: a if p else b)
    shift_right = staticmethod(operator.rshift)
    #: a special-function unit application (e.g. sigmoid)
    special = staticmethod(lambda fn, a: fn(a))


def evaluate(kernel, *args) -> Evaluator:
    """Run ``kernel(evaluator, *args)`` on plain ints; returns the
    evaluator, whose arrays then hold the kernel's results."""
    ev = Evaluator()
    kernel(ev, *args)
    return ev


class TracedValue:
    """A concrete value carrying its producer node id through the kernel.

    It converts to an int (``__index__``) so a loaded value can address a
    data-dependent load, as in ``load("x", load("nl", i))``.
    """

    __slots__ = ("value", "node")

    def __init__(self, value: int, node: int) -> None:
        self.value = value
        self.node = node

    def __index__(self) -> int:
        return self.value


def _traced_binop(kind: str, fn):
    """A two-operand :class:`TraceBuilder` op: ``fn`` on the values, one
    ``kind`` node depending on the operands' producers."""

    def op(self, a: TracedValue, b: TracedValue) -> TracedValue:
        node = self.ddg.add(kind, [v.node for v in (a, b) if v.node >= 0])
        return TracedValue(fn(a.value, b.value), node)

    return op


class TraceBuilder(Evaluator):
    """Instrumented execution: the :class:`Evaluator`'s values, plus the DDG.

    Every op computes its value with the :class:`Evaluator`'s function and
    records one node.  Memory dependence policy: loads depend on the last
    store to the same array element; stores depend on the last access (read
    or write) to the element — i.e. exact dynamic memory disambiguation,
    which is what Aladdin's trace gives it.
    """

    def __init__(self, name: str) -> None:
        super().__init__()
        self.ddg = Ddg(name)
        self._last_store: Dict[Tuple[str, int], int] = {}
        self._last_access: Dict[Tuple[str, int], int] = {}

    def array(self, name: str, initial: Sequence[int]) -> None:
        super().array(name, initial)
        self.ddg.declare_array(name, len(initial))

    def const(self, value: int) -> TracedValue:
        return TracedValue(value, -1)

    def load(self, name: str, index: int) -> TracedValue:
        index = operator.index(index)
        deps = []
        store = self._last_store.get((name, index))
        if store is not None:
            deps.append(store)
        node = self.ddg.add("load", deps, array=name, index=index)
        self._last_access[(name, index)] = node
        return TracedValue(self._arrays[name][index], node)

    def store(self, name: str, index: int, value: TracedValue) -> None:
        deps = [value.node] if value.node >= 0 else []
        prior = self._last_access.get((name, index))
        if prior is not None:
            deps.append(prior)
        node = self.ddg.add("store", deps, array=name, index=index)
        self._arrays[name][index] = value.value
        self._last_store[(name, index)] = node
        self._last_access[(name, index)] = node

    add = _traced_binop("add", Evaluator.add)
    sub = _traced_binop("add", Evaluator.sub)
    mul = _traced_binop("mul", Evaluator.mul)
    div = _traced_binop("div", Evaluator.div)
    minimum = _traced_binop("cmp", Evaluator.minimum)
    maximum = _traced_binop("cmp", Evaluator.maximum)
    compare_eq = _traced_binop("cmp", Evaluator.compare_eq)

    def select(self, p: TracedValue, a: TracedValue, b: TracedValue) -> TracedValue:
        node = self.ddg.add("logic", [v.node for v in (p, a, b) if v.node >= 0])
        return TracedValue(Evaluator.select(p.value, a.value, b.value), node)

    def shift_right(self, a: TracedValue, amount: int) -> TracedValue:
        node = self.ddg.add("shift", [a.node] if a.node >= 0 else [])
        return TracedValue(Evaluator.shift_right(a.value, amount), node)

    def special(self, fn, a: TracedValue) -> TracedValue:
        node = self.ddg.add("special", [a.node] if a.node >= 0 else [])
        return TracedValue(Evaluator.special(fn, a.value), node)


def trace(name: str, kernel, *args) -> Ddg:
    """Run ``kernel(builder, *args)`` on a :class:`TraceBuilder`; returns
    the DDG it recorded."""
    t = TraceBuilder(name)
    kernel(t, *args)
    return t.ddg

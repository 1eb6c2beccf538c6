"""In-memory span tracer for the benchmark's traced runs.

A traced run wraps program functions by patching the names their callers
look up (module attributes and class attributes).  Each wrapped call
records one span: its name, start, end and parent span.  Spans stay in
memory in flat arrays and are written out once, when the run ends.  A
layer's self time is its span time minus the time its child spans cover.

The program itself carries no tracing hooks for this: with the patches
removed, the code that runs is exactly the untraced code.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: calls of counter-only wrappers, by name
        self.calls: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[object], None]] = None) -> Callable:
        """``fn`` recording a span per call; ``observe`` sees each result."""
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls, without a span."""
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------------

    def patch_function(self, fn: Callable, wrapper: Callable,
                       modules: Iterable) -> None:
        """Rebind every module-level name bound to ``fn`` in ``modules``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def patch_attr(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def install(self, functions, methods, counters, modules,
                observers: Optional[Dict[str, Callable]] = None) -> None:
        """Patch the trace points (see ``suite.trace_points``)."""
        observers = observers or {}
        modules = list(modules)
        for name, fn in functions:
            self.patch_function(fn, self.wrap(name, fn, observers.get(name)),
                                modules)
        for name, owner, attr in methods:
            self.patch_attr(owner, attr,
                            self.wrap(name, getattr(owner, attr),
                                      observers.get(name)))
        for name, owner, attr in counters:
            self.patch_attr(owner, attr, self.counter(name, getattr(owner, attr)))

    # -- results ------------------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        n = len(self.name_of)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[name_of[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
        for name, calls in self.calls.items():
            out[name] = {"calls": calls, "total_s": 0.0, "self_s": 0.0}
        return out

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self.name_of),
                  "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for data in (self.name_of, self.parent, self.start, self.end):
                data.tofile(out)


def load_spans(path) -> Tuple[List[str], List[Tuple[str, int, float, float]]]:
    """Read a file from :meth:`Tracer.write`: ``names`` and
    ``(name, parent index, start, end)`` per span."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["spans"]
        arrays = []
        for spec in header["arrays"]:
            data = array(spec.split(":")[1])
            data.fromfile(src, count)
            if header["byteorder"] != sys.byteorder:
                data.byteswap()
            arrays.append(data)
    names = header["names"]
    name_of, parent, start, end = arrays
    return names, [(names[name_of[i]], parent[i], start[i], end[i])
                   for i in range(count)]

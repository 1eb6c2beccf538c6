"""Deterministic fault injection for the Softbrain simulator.

A :class:`FaultPlan` is a JSON-serialisable list of :class:`FaultSpec`
entries — *what* goes wrong, *when*, and *where*.  A :class:`FaultInjector`
executes one plan against one simulation: the simulator's components call
thin hooks (one ``is None`` test on the zero-fault path, mirroring the
trace layer's ``sink.enabled`` guard) and the injector mutates the data,
timing or command stream exactly as planned.  Same plan + same program =>
bit-identical run, which is what lets the campaign driver assert that a
failure reproduces.

Fault classes (:data:`FAULT_KINDS`):

``mem.delay``
    Stretch one memory response by ``arg`` extra cycles (transient
    contention / row-buffer miss).  Never changes data — must be benign.
``mem.corrupt``
    Flip bit ``arg % 64`` of the first word of one memory read response
    (a DRAM bit error past ECC).
``engine.stall``
    Freeze one stream engine (``target`` names it, empty = first to tick)
    for ``arg`` cycles (clock-gating glitch / arbitration livelock).
``cgra.bitflip``
    Flip bit ``arg % 64`` of lane 0 of the first (sorted) output of one
    CGRA instance (transient FU upset).
``port.drop``
    Drop one word from a stream-engine delivery into a vector port
    (``target`` = port name like ``in3``, empty = any port).
``cmd.illegal``
    Flip bit ``arg`` of the encoded command word at program index ``at``
    before it reaches the dispatcher (corrupted command queue entry).
    For this class ``at`` is a *program counter*, not a cycle.

Every fired fault is recorded in :attr:`FaultInjector.fired` and, when the
simulation is traced, emitted as a ``fault.inject`` event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.isa.commands import Command
from ..core.isa.program import ProgramItem
from ..sim.errors import IllegalCommandError
from ..trace import TraceEvent

#: the closed set of injectable fault classes
FAULT_KINDS: Tuple[str, ...] = (
    "mem.delay",
    "mem.corrupt",
    "engine.stall",
    "cgra.bitflip",
    "port.drop",
    "cmd.illegal",
)

WORD_MASK = (1 << 64) - 1
#: due-threshold sentinel for "no fault of this class pending"
NEVER = 1 << 62


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``at`` is the earliest cycle the fault may fire (program index for
    ``cmd.illegal``); the injector fires it at the first opportunity at or
    after ``at`` and exactly once.  ``target`` narrows the victim (engine
    name, port name); empty means "first eligible".  ``arg`` is the
    class-specific magnitude (delay cycles, stall cycles, bit index).
    """

    kind: str
    at: int
    target: str = ""
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault cycle must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at": self.at,
                "target": self.target, "arg": self.arg}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(kind=data["kind"], at=int(data["at"]),
                   target=data.get("target", ""), arg=int(data.get("arg", 0)))


@dataclass
class FaultPlan:
    """A named, ordered collection of faults for one run."""

    name: str
    specs: List[FaultSpec] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(name=data["name"],
                   specs=[FaultSpec.from_dict(s) for s in data["specs"]])

    @classmethod
    def random(cls, seed: int, count: int = 1) -> "FaultPlan":
        """A reproducible random plan (same seed => same plan): ``count``
        faults of any class, timed before cycle 2000."""
        rng = random.Random(f"faultplan:{seed}")
        specs = []
        for _ in range(count):
            kind = rng.choice(FAULT_KINDS)
            specs.append(random_spec(rng, kind, 2000))
        return cls(name=f"random-{seed}", specs=specs)


def random_spec(rng: random.Random, kind: str,
                max_cycle: int) -> FaultSpec:
    """Draw one spec of class ``kind`` from ``rng``."""
    at = rng.randrange(1, max(2, max_cycle))
    if kind == "mem.delay":
        return FaultSpec(kind, at, arg=rng.choice([7, 63, 511, 4095]))
    if kind == "mem.corrupt":
        return FaultSpec(kind, at, arg=rng.randrange(64))
    if kind == "engine.stall":
        target = rng.choice(["", "mse_read", "mse_write", "sse", "rse"])
        return FaultSpec(kind, at, target=target,
                         arg=rng.choice([16, 128, 1024]))
    if kind == "cgra.bitflip":
        return FaultSpec(kind, at, arg=rng.randrange(64))
    if kind == "port.drop":
        return FaultSpec(kind, at)
    assert kind == "cmd.illegal"
    # ``at`` is a program index; keep it small so it lands inside typical
    # programs (the injector simply never fires when it does not).
    return FaultSpec(kind, rng.randrange(0, 24), arg=rng.randrange(256))


class FaultInjector:
    """Executes one :class:`FaultPlan` against one simulation.

    Single-use: create a fresh injector per run.  All hooks are cheap when
    their pending list is empty, and the simulator skips them entirely when
    no injector is attached.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.sim = None  # attached by SoftbrainSim.__init__
        #: record of every fault that actually fired, in firing order
        self.fired: List[Dict[str, Any]] = []
        self._pending: Dict[str, List[FaultSpec]] = {k: [] for k in FAULT_KINDS}
        for spec in plan.specs:
            self._pending[spec.kind].append(spec)
        for specs in self._pending.values():
            specs.sort(key=lambda s: s.at, reverse=True)  # pop() = earliest
        #: engine name -> cycle until which an engine.stall freezes it
        self._stall_until: Dict[str, int] = {}
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        # Per-class due thresholds: hook sites compare the current cycle
        # (program index for cmd.illegal) against these plain attributes
        # and skip the method call while no fault of that class is due,
        # keeping an attached-but-not-yet-due injector near zero cost.
        pending = self._pending

        def due(kind: str) -> int:
            return pending[kind][-1].at if pending[kind] else NEVER

        self.mem_delay_at = due("mem.delay")
        self.mem_corrupt_at = due("mem.corrupt")
        self.cgra_at = due("cgra.bitflip")
        self.port_drop_at = due("port.drop")
        self.cmd_at = due("cmd.illegal")
        # an active stall window must keep the engine hook firing
        self.engine_stall_at = 0 if self._stall_until else due("engine.stall")

    def attach(self, sim) -> None:
        self.sim = sim

    @property
    def unfired(self) -> List[FaultSpec]:
        return [s for specs in self._pending.values() for s in specs]

    def _take(self, kind: str, now: int,
              target: str = "") -> Optional[FaultSpec]:
        """Pop the earliest pending spec of ``kind`` due at ``now``.

        A spec fires at the first hook call at or after its ``at`` (the
        fast-forwarding clock may never step the exact cycle).  A spec
        with a ``target`` only fires when the hook's target matches.
        """
        specs = self._pending[kind]
        if not specs or specs[-1].at > now:
            return None
        if specs[-1].target and target and specs[-1].target != target:
            return None
        spec = specs.pop()
        self._refresh_flags()
        return spec

    def _note(self, spec: FaultSpec, cycle: int, target: str,
              detail: str) -> None:
        self.fired.append({
            "kind": spec.kind, "planned_at": spec.at, "fired_at": cycle,
            "target": target, "arg": spec.arg, "detail": detail,
        })
        sim = self.sim
        if sim is not None and sim.trace.enabled:
            sim.trace.emit(TraceEvent(
                "fault.inject", cycle, sim.unit, "faults",
                {"fault": spec.kind, "target": target, "detail": detail},
            ))

    # -- hooks (called by the simulator when an injector is attached) --------

    def mem_delay(self, cycle: int, line_addr: int, is_write: bool) -> int:
        """Extra response latency for this memory request (``mem.delay``)."""
        spec = self._take("mem.delay", cycle)
        if spec is None:
            return 0
        self._note(spec, cycle, "memory",
                   f"line 0x{line_addr:x} {'write' if is_write else 'read'} "
                   f"delayed {spec.arg} cycles")
        return spec.arg

    def corrupt_read(self, cycle: int, words: List[int]) -> List[int]:
        """Flip one bit in a memory read response (``mem.corrupt``)."""
        if not words:
            return words
        spec = self._take("mem.corrupt", cycle)
        if spec is None:
            return words
        bit = spec.arg % 64
        out = list(words)
        out[0] = (out[0] ^ (1 << bit)) & WORD_MASK
        self._note(spec, cycle, "memory", f"read word bit {bit} flipped")
        return out

    def engine_stall_until(self, name: str, cycle: int) -> int:
        """Cycle until which engine ``name`` is frozen (``engine.stall``)."""
        spec = self._take("engine.stall", cycle, target=name)
        if spec is not None:
            until = cycle + max(1, spec.arg)
            self._stall_until[name] = max(self._stall_until.get(name, 0), until)
            self._note(spec, cycle, name, f"stalled until cycle {until}")
            self.engine_stall_at = 0
        elif (self._stall_until
              and not self._pending["engine.stall"]
              and all(u <= cycle for u in self._stall_until.values())):
            # every planned stall has fired and expired: drop back to the
            # zero-cost path for the rest of the run
            self._stall_until.clear()
            self._refresh_flags()
        return self._stall_until.get(name, 0)

    def stalled_until(self, name: str) -> int:
        """Read-only view of an active stall (used by the watchdog — must
        not fire pending specs post-mortem)."""
        return self._stall_until.get(name, 0)

    def flip_cgra_output(self, cycle: int,
                         results: Dict[str, List[int]]) -> None:
        """Flip one bit of one CGRA instance's output (``cgra.bitflip``)."""
        if not results:
            return
        spec = self._take("cgra.bitflip", cycle)
        if spec is None:
            return
        name = sorted(results)[0]
        bit = spec.arg % 64
        results[name][0] = (results[name][0] ^ (1 << bit)) & WORD_MASK
        self._note(spec, cycle, "cgra",
                   f"output {name} lane 0 bit {bit} flipped")

    def drop_port_words(self, cycle: int, port_name: str,
                        words: List[int]) -> List[int]:
        """Drop one word from a port delivery (``port.drop``)."""
        spec = self._take("port.drop", cycle, target=port_name)
        if spec is None:
            return words
        index = spec.arg % len(words)
        out = words[:index] + words[index + 1:]
        self._note(spec, cycle, port_name,
                   f"dropped word {index} of {len(words)}")
        return out

    def mangle_command(self, index: int, item: ProgramItem) -> ProgramItem:
        """Flip one bit of the encoded command word at program index
        ``at`` (``cmd.illegal``); raises :class:`IllegalCommandError` when
        the result no longer decodes to a command.  A decoded command that
        names hardware the unit lacks is rejected by the dispatcher's
        decode stage at enqueue, as in any other run."""
        specs = self._pending["cmd.illegal"]
        if not specs or specs[-1].at > index or not isinstance(item, Command):
            return item
        spec = specs.pop()
        self._refresh_flags()
        from ..core.isa.encoding import decode_item, encode_item

        data = bytearray(encode_item(item))
        bit = spec.arg % (len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        cycle = self.sim.cycle if self.sim is not None else 0
        self._note(spec, cycle, "core",
                   f"command #{index} ({type(item).__name__}) encoded bit "
                   f"{bit} flipped")
        try:
            decoded, _ = decode_item(bytes(data))
        except ValueError as exc:  # EncodingError, PatternError, field checks
            raise IllegalCommandError(
                f"illegal command word at program index {index}: "
                f"{type(item).__name__} with bit {bit} flipped does not "
                f"decode ({exc})") from None
        if not isinstance(decoded, Command):
            raise IllegalCommandError(
                f"illegal command word at program index {index}: decodes "
                f"to non-command {type(decoded).__name__}")
        return decoded

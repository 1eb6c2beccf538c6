"""Property tests: the simulator's shortcuts match simple references.

Seven properties, over the fuzz layer's random generators and corpus:

* **port-head dispatch** — 100 random legal stream programs per seed x
  3 seeds, and the fuzz corpus: running each with the production
  :class:`Dispatcher` and with a reference dispatcher that scans the
  whole queue on every tick must produce identical :class:`SimStats`,
  memory stats, ``BackingStore.snapshot_pages()``, scratchpad images and
  command timelines (docs/PERFORMANCE.md), and for the corpus identical
  trace events;
* **reuse from a pattern's second sighting** — the same, against a
  simulator that computes every stream's line requests afresh;
* **one-call reads** — the same, against per-element
  :func:`read_extended` reads of both memories, plus an indirect gather
  whose first and last addresses look like a run;
* **CGRA delivery queue** — the same fingerprint over the same random
  programs and the fuzz corpus, against a reference executor that
  evaluates with :meth:`Dfg.execute` and schedules one ``deliver``
  closure on the event heap and one :meth:`SimStats.note_firing` per
  firing, so ``fu_activity`` is counted per firing rather than folded;
* **one-pass balance unit** — the same fingerprint over the same
  programs and the corpus, against a read engine that builds the ready
  list every cycle and issues ``min(ready, key=score)``;
* **counting ports and one-pass engine ticks** — the same, against a
  vector port that keeps its words in a deque and computes its counts
  from it, and against engines that build a ready list with one
  ``_can_issue`` call per stream every cycle, walk the table once to
  retire and again to release early;
* **compiled-DFG closures** — the per-step closures of
  :class:`repro.sim.cgra_exec.CompiledDfg` must agree with the reference
  :meth:`Dfg.execute` on random DFGs and random inputs, including
  accumulator state across a firing sequence.
"""

import itertools
import json
import random
from collections import deque

import pytest

from repro.core.isa.patterns import affine_requests
from repro.fuzz.case import build_case, plan_from_json
from repro.fuzz.cli import corpus_paths
from repro.fuzz.generators import random_dfg, random_inputs, random_plan
from repro.fuzz.oracle import run_case
from repro.sim import softbrain, vector_port
from repro.sim.cgra_exec import CgraExecutor, CompiledDfg
from repro.sim.dispatcher import Dispatcher
from repro.sim.errors import PortRuntimeError
from repro.sim.memory import BackingStore
from repro.sim.scratchpad import Scratchpad
from repro.sim.stream_engine import (
    MemReadEngine,
    MemWriteEngine,
    RecurrenceEngine,
    ScratchEngine,
    StreamEngineBase,
)
from repro.trace import ListSink
from tests.test_sim_memory import read_extended

SEEDS = (0, 1, 2)
PLANS_PER_SEED = 100


def run_by_name(compiled, inputs, state):
    """:meth:`CompiledDfg.run` with :meth:`Dfg.execute`'s name-keyed
    ports: input words concatenated in ``dfg.inputs`` order, one result
    list per output port in ``dfg.outputs`` order."""
    dfg = compiled.dfg
    words = [word for name in dfg.inputs for word in inputs[name]]
    return dict(zip(dfg.outputs, compiled.run(words, state)))


class FullScanDispatcher(Dispatcher):
    """Reference: scan the whole queue every tick, in program order.

    Issue the first command that shares no port key with an earlier
    queued command and whose engine slot and ports are free.  Stop at a
    barrier, which releases only at the queue head, and at a config that
    cannot issue.  The waiting lists and ``heads`` are never read.
    """

    def tick(self, cycle: int) -> bool:
        queue = self.queue
        if not queue or self.sim.config_pending:
            return False
        blocked = set()
        for position, trace in enumerate(queue):
            if trace.kind == "barrier":
                if position == 0 and self._barrier_met(trace.command):
                    queue.popleft()
                    trace.dispatched = trace.completed = cycle
                    if self.sim.trace.enabled:
                        self._trace_barrier_release(self.sim.trace, trace,
                                                    cycle)
                    return True
                if position == 0 and self._barrier_blocked[0] != trace.index:
                    self._barrier_blocked = (trace.index, cycle)
                return False
            free = (blocked.isdisjoint(trace.ports)
                    and self.sim.engines[trace.command.engine].has_free_slot()
                    and not any(key in self.busy_ports
                                for key in trace.ports))
            if trace.kind == "config":
                if not (free and self.sim.quiesced()):
                    return False
            elif not free:
                blocked.update(trace.ports)
                continue
            del queue[position]
            self._dispatch(trace, cycle)
            return True
        return False


def reference_pattern_requests(self, pattern):
    """Reference: every stream's line requests computed afresh."""
    return affine_requests(pattern)


def reference_read_elements(self, addrs, size, signed, contiguous=False):
    """Reference reads: one :func:`read_extended` per element."""
    return [read_extended(self, addr, size, signed) for addr in addrs]


class ReferenceCgraExecutor(CgraExecutor):
    """Reference: one heap-scheduled ``deliver`` closure and one
    ``note_firing`` per firing, evaluating with :meth:`Dfg.execute`.

    Its ``deliveries`` queue stays empty, so the simulator sees its
    in-flight instances only as event-heap entries.
    """

    in_flight = 0

    def __init__(self, sim, config):
        super().__init__(sim, config)
        self.state = config.dfg.make_state()

    def tick(self, cycle: int) -> bool:
        if self.can_fire():
            return super().tick(cycle)  # the stall accounting
        inputs = {
            name: port.pop_words(width) for name, width, port in self.inputs
        }
        results = self.config.dfg.execute(inputs, self.state)
        for _, width, port in self.outputs:
            port.reserve(width)
        self.in_flight += 1

        def deliver() -> None:
            for name, _, port in self.outputs:
                port.push(results[name])
            self.in_flight -= 1

        self.sim.schedule(cycle + self.config.latency, deliver)
        self.sim.stats.note_firing(self.ops_per_instance,
                                   self.fu_ops_per_instance)
        return True

    def fold_activity(self) -> None:
        pass  # note_firing counted every firing already


class DequeVectorPortState:
    """Reference port: the words in a deque, ``occupancy`` and
    ``free_words`` computed from it on every read, and a word-by-word
    pop."""

    def __init__(self, spec):
        self.spec = spec
        self.capacity_words = spec.capacity_words
        self.fifo = deque()
        self.reserved = 0
        self.writers = deque()

    @property
    def occupancy(self):
        return len(self.fifo)

    @property
    def free_words(self):
        return self.capacity_words - len(self.fifo) - self.reserved

    def peek(self, nwords):
        return list(itertools.islice(self.fifo, nwords))

    def reserve(self, nwords):
        if nwords > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: reserve "
                f"{nwords} > free {self.free_words}"
            )
        self.reserved += nwords

    def push(self, words, reserved=True):
        if reserved:
            if len(words) > self.reserved:
                raise PortRuntimeError(
                    f"port {self.spec.name}: push "
                    f"{len(words)} exceeds reservation {self.reserved}"
                )
            self.reserved -= len(words)
        elif len(words) > self.free_words:
            raise PortRuntimeError(
                f"port {self.spec.name}: push "
                f"{len(words)} > free {self.free_words}"
            )
        self.fifo.extend(words)

    def pop_words(self, nwords):
        fifo = self.fifo
        if len(fifo) < nwords:
            raise PortRuntimeError(
                f"port {self.spec.name}: pop "
                f"{nwords} > occupancy {len(fifo)}"
            )
        return [fifo.popleft() for _ in range(nwords)]


def reference_tick(self, cycle):
    """Reference engine tick: drain, then a ready-list walk to retire,
    then (memory engines) a second walk to release early, then issue."""
    if self.sim.faults is not None and self._fault_stalled(cycle):
        return False
    drained = False
    for stream in self.streams:
        pending = stream.pending
        if (pending and pending[0][0] <= cycle
                and self._drain(stream, cycle)):
            drained = True
    progressed = drained
    if drained or self._may_retire:
        self._may_retire = False
        for stream in [s for s in self.streams
                       if s.issued_all and not s.pending]:
            self._retire(stream, cycle)
            progressed = True
    if self.MEMORY_ENGINE and self.sim.params.all_requests_in_flight:
        if reference_early_release(self):
            progressed = True
    if self._issue_step(cycle):
        self._may_retire = True
        return True
    return progressed


def reference_early_release(self):
    released = False
    for stream in self.streams:
        if stream.issued_all and not stream.early_released:
            stream.early_released = released = True
            for key in stream.trace.ports:
                self.sim.dispatcher.release_port(*key)
    return released


def reference_issue_step(self, cycle):
    """Reference round robin: a ready list of one ``_can_issue`` call per
    stream, rebuilt every cycle."""
    if self.MEMORY_ENGINE and not self.sim.memory.can_accept(cycle):
        return False
    ready = [s for s in self.streams if self._can_issue(s)]
    if not ready:
        return False
    chosen = self._choose(ready)
    self._issue(chosen, cycle)
    self._note_busy(cycle, chosen)
    return True


def reference_read_issue_step(self, cycle):
    if self.buffered >= self.BUFFER_LINES:
        return False
    if not self.sim.params.balance_unit:
        return reference_issue_step(self, cycle)
    if not self.sim.memory.can_accept(cycle):
        return False
    chosen = None
    best = 0
    for stream in self.streams:
        if not self._can_issue(stream):
            continue
        dest = stream.dest
        score = 0 if dest is None else dest.occupancy + dest.reserved
        if chosen is None or score < best:
            chosen, best = stream, score
    if chosen is None:
        return False
    self._issue(chosen, cycle)
    self._note_busy(cycle, chosen)
    return True


def reference_scratch_issue_step(self, cycle):
    """Reference SSE step: a read ready list and a write ready list."""
    progressed = False
    reads = [s for s in self.streams
             if s.next_request is not None and len(s.pending) < 4]
    if reads:
        chosen = self._choose(reads)
        self._issue_read(chosen, cycle)
        self._note_busy(cycle, chosen)
        progressed = True
    writes = [s for s in self.streams
              if s.elements_left > 0 and s.source.occupancy >= 1]
    if writes:
        self._issue_write(writes[0], cycle)
        self._note_busy(cycle, writes[0])
        progressed = True
    return progressed


def read_can_issue(self, stream):
    if stream.requests is not None:
        return stream.next_request is not None
    if stream.elements_left <= 0:
        return False
    return stream.index is None or stream.index.occupancy > 0


def write_can_issue(self, stream):
    source = stream.source
    if stream.requests is not None:
        request = stream.next_request
        return (request is not None
                and source.occupancy >= request.num_elements)
    return (stream.elements_left > 0 and stream.index.occupancy >= 1
            and source.occupancy >= 1)


def recurrence_can_issue(self, stream):
    if stream.elements_left <= 0:
        return False
    source, dest = stream.source, stream.dest
    if source is not None and source.occupancy < 1:
        return False
    return dest is None or (
        dest.writers[0] is stream and dest.free_words >= 1)


class ReferenceBalanceReadEngine(MemReadEngine):
    """Reference: the balance unit as a ready list over the whole stream
    table, rebuilt every cycle, and ``min(ready, key=score)``, where the
    score is the words queued at and reserved for the stream's port (0
    for a stream without one)."""

    _can_issue = read_can_issue

    def _issue_step(self, cycle: int) -> bool:
        if not self.sim.params.balance_unit:
            return reference_issue_step(self, cycle)
        if self.buffered >= self.BUFFER_LINES:
            return False
        if not self.sim.memory.can_accept(cycle):
            return False
        ready = [s for s in self.streams if self._can_issue(s)]
        if not ready:
            return False
        chosen = min(ready, key=lambda stream: 0 if stream.dest is None
                     else stream.dest.occupancy + stream.dest.reserved)
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True


def _fingerprint(built, traced=False):
    sink = ListSink() if traced else None
    result = softbrain.run_program(
        built.program, fabric=built.fabric, memory=built.fresh_memory(),
        trace=sink,
    )
    return (
        sink.events if traced else None,
        result.stats.to_dict(),
        vars(result.memory.stats),
        result.memory.store.snapshot_pages(),
        result.scratchpad.snapshot(),
        [(t.index, t.enqueued, t.dispatched, t.completed)
         for t in result.timeline],
    )


def _random_plans(seed):
    for index in range(PLANS_PER_SEED):
        rng = random.Random(f"fastpath:{seed}:{index}")
        yield random_plan(rng, name=f"fastpath-{seed}-{index}")


def _assert_matches_reference(plan, monkeypatch, patches, traced=False):
    """Run ``plan`` as is and with each ``(owner, name, reference)`` of
    ``patches`` patched in; the fingerprints must be equal."""
    built = build_case(plan)
    production = _fingerprint(built, traced)
    with monkeypatch.context() as patch:
        for owner, name, reference in patches:
            # the references add back methods the production code lacks
            patch.setattr(owner, name, reference, raising=False)
        assert _fingerprint(built, traced) == production, plan.name


FULL_SCAN = [(softbrain, "Dispatcher", FullScanDispatcher)]
NO_REUSE = [(softbrain.SoftbrainSim, "pattern_requests",
             reference_pattern_requests)]
PER_ELEMENT_READS = [(BackingStore, "read_elements", reference_read_elements),
                     (Scratchpad, "read_elements", reference_read_elements)]
DEQUE_PORTS = [(vector_port, "VectorPortState", DequeVectorPortState)]
MULTI_PASS_ENGINES = [
    (StreamEngineBase, "tick", reference_tick),
    (MemReadEngine, "_issue_step", reference_read_issue_step),
    (MemReadEngine, "_can_issue", read_can_issue),
    (MemWriteEngine, "_issue_step", reference_issue_step),
    (MemWriteEngine, "_can_issue", write_can_issue),
    (ScratchEngine, "_issue_step", reference_scratch_issue_step),
    (RecurrenceEngine, "_issue_step", reference_issue_step),
    (RecurrenceEngine, "_can_issue", recurrence_can_issue),
]
REFERENCES = {"full_scan": FULL_SCAN, "no_reuse": NO_REUSE,
              "per_element_reads": PER_ELEMENT_READS}
#: the per-cycle skeleton's references, checked with the trace compared
SKELETON_REFERENCES = {"deque_ports": DEQUE_PORTS,
                       "multi_pass_engines": MULTI_PASS_ENGINES}


@pytest.mark.parametrize("reference", sorted(REFERENCES))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_request_path_exact(seed, reference, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(plan, monkeypatch, REFERENCES[reference])


@pytest.mark.parametrize("reference", sorted(REFERENCES))
@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_request_path_exact(path, reference, monkeypatch):
    _assert_matches_reference(plan_from_json(path.read_text()), monkeypatch,
                              REFERENCES[reference], traced=True)


@pytest.mark.parametrize("reference", sorted(SKELETON_REFERENCES))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_skeleton_exact(seed, reference, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(plan, monkeypatch,
                                  SKELETON_REFERENCES[reference], traced=True)


@pytest.mark.parametrize("reference", sorted(SKELETON_REFERENCES))
@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_skeleton_exact(path, reference, monkeypatch):
    _assert_matches_reference(plan_from_json(path.read_text()), monkeypatch,
                              SKELETON_REFERENCES[reference], traced=True)


#: an indirect gather of indices 0, 0, 1, 3: its addresses' first and
#: last are as far apart as a 4-element run's, but the middle is not one
GATHER_0013 = {
    "dfg": {"inputs": [{"name": "I0", "width": 1}],
            "instructions": [{"lane_bits": 64, "name": "n0", "op": "add",
                              "operands": ["I0", "#1"]}],
            "name": "gather0013",
            "outputs": [{"name": "O", "sources": ["n0"]}]},
    "drains": {"O": [{"elem_bytes": 8, "kind": "mem", "num_strides": 1,
                      "per_access": 4, "stride_elems": 4}]},
    "feeds": {"I0": [{"array": [11, 22, 33, 44], "elem_bytes": 8,
                      "indices": [0, 0, 1, 3], "kind": "indirect",
                      "signed": False}]},
    "interleave_seed": 1, "name": "gather-0013", "num_instances": 4,
    "recur_in": "", "recur_out": "", "schedule_seed": 0, "version": 1,
}


def test_gather_with_run_shaped_ends_exact(monkeypatch):
    plan = plan_from_json(json.dumps(GATHER_0013))
    assert not run_case(plan).divergences
    _assert_matches_reference(plan, monkeypatch, PER_ELEMENT_READS,
                              traced=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_cgra_delivery_exact(seed, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(
            plan, monkeypatch, [(softbrain, "CgraExecutor",
                                 ReferenceCgraExecutor)])


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_cgra_delivery_exact(path, monkeypatch):
    _assert_matches_reference(
        plan_from_json(path.read_text()), monkeypatch,
        [(softbrain, "CgraExecutor", ReferenceCgraExecutor)])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_balance_unit_exact(seed, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(
            plan, monkeypatch, [(softbrain, "MemReadEngine",
                                 ReferenceBalanceReadEngine)])


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_balance_unit_exact(path, monkeypatch):
    _assert_matches_reference(
        plan_from_json(path.read_text()), monkeypatch,
        [(softbrain, "MemReadEngine", ReferenceBalanceReadEngine)])


@pytest.mark.parametrize("seed", range(40))
def test_compiled_dfg_specialisation_matches_reference(seed):
    rng = random.Random(f"compile:{seed}")
    dfg = random_dfg(seed, num_inputs=rng.randint(1, 3),
                     num_insts=rng.randint(1, 8))
    compiled = CompiledDfg(dfg)
    ref_state = dfg.make_state()
    state = compiled.make_state()
    for fire in range(8):
        inputs = random_inputs(dfg, seed * 1000 + fire)
        assert (run_by_name(compiled, inputs, state)
                == dfg.execute(inputs, ref_state))
    # compiled slots follow the accumulators' topological order
    assert state == [ref_state[inst.name] for inst in dfg.topological_order()
                     if inst.is_accumulator]

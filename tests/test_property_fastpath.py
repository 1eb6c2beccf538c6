"""Property tests: the simulator's shortcuts match simple references.

Four properties, over the fuzz layer's random generators and corpus:

* **dispatcher scan cache** — 100 random legal stream programs per seed x
  3 seeds: running each with the production :class:`Dispatcher` and with
  a reference dispatcher that rescans the queue on every tick must
  produce identical :class:`SimStats`, memory stats,
  ``BackingStore.snapshot_pages()``, scratchpad images and command
  timelines (docs/PERFORMANCE.md);
* **CGRA delivery queue** — the same fingerprint over the same random
  programs and the fuzz corpus, against a reference executor that
  evaluates with :meth:`Dfg.execute` and schedules one ``deliver``
  closure on the event heap and one :meth:`SimStats.note_firing` per
  firing, so ``fu_activity`` is counted per firing rather than folded;
* **one-pass balance unit** — the same fingerprint over the same
  programs and the corpus, against a read engine that builds the ready
  list every cycle and issues ``min(ready, key=score)``;
* **compiled-DFG closures** — the per-step closures of
  :class:`repro.sim.cgra_exec.CompiledDfg` must agree with the reference
  :meth:`Dfg.execute` on random DFGs and random inputs, including
  accumulator state across a firing sequence.
"""

import random

import pytest

from repro.fuzz.case import build_case, plan_from_json
from repro.fuzz.cli import corpus_paths
from repro.fuzz.generators import random_dfg, random_inputs, random_plan
from repro.sim import softbrain
from repro.sim.cgra_exec import CgraExecutor, CompiledDfg
from repro.sim.dispatcher import Dispatcher
from repro.sim.stream_engine import MemReadEngine

SEEDS = (0, 1, 2)
PLANS_PER_SEED = 100


def run_by_name(compiled, inputs, state):
    """:meth:`CompiledDfg.run` with :meth:`Dfg.execute`'s name-keyed
    ports: input words concatenated in ``dfg.inputs`` order, one result
    list per output port in ``dfg.outputs`` order."""
    dfg = compiled.dfg
    words = [word for name in dfg.inputs for word in inputs[name]]
    return dict(zip(dfg.outputs, compiled.run(words, state)))


class RescanningDispatcher(Dispatcher):
    """Reference: forget the cached empty scan before every tick."""

    def tick(self, cycle: int) -> bool:
        self._cache_version = -1
        return super().tick(cycle)


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


class ReferenceBalanceReadEngine(MemReadEngine):
    """Reference: the balance unit as a ready list over the whole stream
    table, rebuilt every cycle, and ``min(ready, key=score)``, where the
    score is the words queued at and reserved for the stream's port (0
    for a stream without one)."""

    def _issue_step(self, cycle: int) -> bool:
        if not self.sim.params.balance_unit:
            return super()._issue_step(cycle)
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


def _fingerprint(built):
    result = softbrain.run_program(
        built.program, fabric=built.fabric, memory=built.fresh_memory(),
    )
    return (
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


def _assert_matches_reference(plan, monkeypatch, name, reference):
    built = build_case(plan)
    production = _fingerprint(built)
    with monkeypatch.context() as patch:
        patch.setattr(softbrain, name, reference)
        assert _fingerprint(built) == production, plan.name


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_scan_cache_exact(seed, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(plan, monkeypatch, "Dispatcher",
                                  RescanningDispatcher)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_cgra_delivery_exact(seed, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(plan, monkeypatch, "CgraExecutor",
                                  ReferenceCgraExecutor)


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_cgra_delivery_exact(path, monkeypatch):
    _assert_matches_reference(plan_from_json(path.read_text()), monkeypatch,
                              "CgraExecutor", ReferenceCgraExecutor)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_balance_unit_exact(seed, monkeypatch):
    for plan in _random_plans(seed):
        _assert_matches_reference(plan, monkeypatch, "MemReadEngine",
                                  ReferenceBalanceReadEngine)


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_balance_unit_exact(path, monkeypatch):
    _assert_matches_reference(plan_from_json(path.read_text()), monkeypatch,
                              "MemReadEngine", ReferenceBalanceReadEngine)


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

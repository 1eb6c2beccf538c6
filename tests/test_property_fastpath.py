"""Property tests: the simulator's shortcuts match simple references.

Two properties, both over the fuzz layer's random generators:

* **dispatcher scan cache** — 100 random legal stream programs per seed x
  3 seeds: running each with the production :class:`Dispatcher` and with
  a reference dispatcher that rescans the queue on every tick must
  produce identical :class:`SimStats`, memory stats,
  ``BackingStore.snapshot_pages()``, scratchpad images and command
  timelines (docs/PERFORMANCE.md);
* **compiled-DFG closures** — the per-step closures of
  :class:`repro.sim.cgra_exec.CompiledDfg` must agree with the reference
  :meth:`Dfg.execute` on random DFGs and random inputs, including
  accumulator state across a firing sequence.
"""

import random

import pytest

from repro.fuzz.case import build_case
from repro.fuzz.generators import random_dfg, random_inputs, random_plan
from repro.sim import softbrain
from repro.sim.cgra_exec import CompiledDfg
from repro.sim.dispatcher import Dispatcher

SEEDS = (0, 1, 2)
PLANS_PER_SEED = 100


class RescanningDispatcher(Dispatcher):
    """Reference: forget the cached empty scan before every tick."""

    def tick(self, cycle: int) -> bool:
        self._cache_version = -1
        return super().tick(cycle)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_scan_cache_exact(seed, monkeypatch):
    for index in range(PLANS_PER_SEED):
        rng = random.Random(f"fastpath:{seed}:{index}")
        plan = random_plan(rng, name=f"fastpath-{seed}-{index}")
        built = build_case(plan)
        cached = _fingerprint(built)
        with monkeypatch.context() as patch:
            patch.setattr(softbrain, "Dispatcher", RescanningDispatcher)
            rescanned = _fingerprint(built)
        assert cached == rescanned, plan.name


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
        assert compiled.run(inputs, state) == dfg.execute(inputs, ref_state)
    # compiled slots follow the accumulators' topological order
    assert state == [ref_state[inst.name] for inst in dfg.topological_order()
                     if inst.is_accumulator]

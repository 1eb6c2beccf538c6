"""One initial memory image per built workload, a fresh memory per run.

A :class:`~repro.workloads.common.BuiltWorkload` holds its initial memory
as an immutable image, and every run starts from ``fresh_memory()``.  So
one build can be run any number of times, under any memory timing, or as
several units on one shared memory, and no caller outside ``repro.sim``
has to repoint or copy a store by hand.
"""

import ast
import pathlib
import random

import pytest

from repro.sim.memory import pack_words
from repro.workloads.common import draw_ints, run_and_verify
from repro.workloads.dnn import DNN_LAYERS_BY_NAME, build_dnn_layer
from repro.workloads.machsuite import MACHSUITE

from .test_golden_stats import fingerprint

ROOT = pathlib.Path(__file__).resolve().parent.parent

RERUN_BUILDERS = {
    "gemm": lambda: MACHSUITE["gemm"][0](n=8),
    "spmv-crs": lambda: MACHSUITE["spmv-crs"][0](n=16),
    "nw": lambda: MACHSUITE["nw"][0](length=10),
    "viterbi": lambda: MACHSUITE["viterbi"][0](n_states=8, n_steps=6),
    "class1p-u0": lambda: build_dnn_layer(DNN_LAYERS_BY_NAME["class1p"],
                                          unit_id=0, num_units=8),
}


@pytest.mark.parametrize("name", sorted(RERUN_BUILDERS))
def test_rerun_is_exact(name):
    """A second run of one build starts from the same cold memory as the
    first: same cycles, stats, memory traffic and final memory."""
    built = RERUN_BUILDERS[name]()
    first = run_and_verify(built)
    second = run_and_verify(built)
    assert first.memory is not second.memory
    assert fingerprint(second) == fingerprint(first)
    assert (second.memory.store.snapshot_pages()
            == first.memory.store.snapshot_pages())


# -- the guard: no hand-made store sharing outside repro.sim -------------------

GUARDED = ("src", "tests", "examples", "benchmarks")
SIM_DIR = ROOT / "src" / "repro" / "sim"


def _store_misuse(tree: ast.AST):
    """(line, what) for each store repoint, ``_pages`` access or copy of a
    store or memory in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "store"
                        and not (isinstance(target.value, ast.Name)
                                 and target.value.id == "self")):
                    yield node.lineno, "assignment to .store"
        elif isinstance(node, ast.Attribute) and node.attr == "_pages":
            yield node.lineno, "_pages access"
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            copied = ast.unparse(node.args[0]).lower()
            if name in ("copy", "deepcopy") and (
                    "store" in copied or "memory" in copied):
                yield node.lineno, f"{name} of {ast.unparse(node.args[0])}"


def test_no_store_sharing_outside_sim():
    """Outside ``src/repro/sim/`` nothing assigns a non-``self`` ``.store``,
    reads ``_pages`` or copies a store: a run that needs memory asks its
    build for ``fresh_memory()``."""
    found = []
    for top in GUARDED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if SIM_DIR in path.parents:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.relative_to(ROOT)}:{line}: {what}"
                      for line, what in _store_misuse(tree)]
    assert not found, "\n".join(found)


def test_guard_catches_each_misuse():
    source = (
        "memory.store = other.store\n"
        "self.store = store\n"
        "pages = built.memory.store._pages\n"
        "snapshot = copy.deepcopy(memory.store)\n"
        "twin = deepcopy(built.memory)\n"
        "plan = copy.deepcopy(plan)\n"
    )
    assert [line for line, _ in _store_misuse(ast.parse(source))] == [
        1, 3, 4, 5]


# -- the builders' exact bulk forms ---------------------------------------------

DRAW_RANGES = [(5, 5), (0, 0), (0, 1), (0, 3), (-4, 3), (-8, 7), (-128, 127),
               (1, 60), (-30, 30), (-100, 100), (-500, 500), (0, 2**32 - 1),
               (-(2**40), 2**40)]


@pytest.mark.parametrize("lo,hi", DRAW_RANGES)
@pytest.mark.parametrize("seed", [0, 1, 0x5D5D ^ 2, 12345])
def test_draw_ints_is_randint(seed, lo, hi):
    """Width 1, powers of two, negative bounds and widths past one
    32-bit word: the same values and the same generator state after."""
    drawn, expected = random.Random(seed), random.Random(seed)
    for count in (0, 1, 7, 300):
        assert draw_ints(drawn, lo, hi, count) == [
            expected.randint(lo, hi) for _ in range(count)]
        assert drawn.getstate() == expected.getstate()


def _pack_one_by_one(values, elem_bytes):
    mask = (1 << (8 * elem_bytes)) - 1
    return b"".join((v & mask).to_bytes(elem_bytes, "little") for v in values)


@pytest.mark.parametrize("elem_bytes", [1, 2, 4, 8])
def test_pack_words_is_the_per_value_join(elem_bytes):
    rng = random.Random(elem_bytes)
    bits = 8 * elem_bytes
    for count in (0, 1, 3, 512):
        values = [rng.randint(-(1 << bits), (1 << bits) - 1)
                  for _ in range(count)]
        values[:2] = [-1, -(1 << (bits - 1))][:count]
        assert pack_words(values, elem_bytes) == _pack_one_by_one(
            values, elem_bytes)

"""MachSuite ``spmv-crs`` and ``spmv-ellpack``: sparse matrix-vector multiply.

Table 4 characterisation:

* **spmv-crs** — indirect + linear patterns, *single* multiply-accumulate:
  each row's values stream linearly, its column indices fill an indirect
  port, and a gather stream fetches the matching vector elements.
* **spmv-ellpack** — indirect + linear + recurrence, *4-way*
  multiply-accumulate: the fixed row length lets values/columns/gathers
  run as single whole-matrix streams, with the per-row reset constants the
  only per-row commands.
"""

from __future__ import annotations

from typing import List, Tuple

from ...baselines.asic.ddg import Ddg, Evaluator, evaluate, trace
from ...baselines.asic.schedule import AsicDesign
from ...baselines.cpu import ScalarWorkload
from ...cgra.fabric import Fabric, broadly_provisioned
from ...core.compiler.scheduler import schedule
from ...core.dfg.builder import DfgBuilder
from ...core.dfg.graph import Dfg
from ...core.isa.program import StreamProgram
from ...sim.memory import MemorySystem, pack_words
from ..common import (Allocator, BuiltWorkload, check_equal, draw_ints,
                      make_rng, read_words)

#: matrix rows (and vector length)
N_ROWS = 96
#: ellpack fixed row length
ELL_L = 8


def crs_dfg() -> Dfg:
    """A x gathered V -> single multiply-accumulate -> C."""
    b = DfgBuilder("spmv-crs")
    a = b.input("A", 1)
    v = b.input("V", 1)
    r = b.input("R", 1)
    b.output("C", b.accumulate(b.mul(a[0], v[0]), r[0]))
    return b.build()


def ellpack_dfg() -> Dfg:
    """A(4) x gathered V(4) -> tree -> accumulate -> C."""
    b = DfgBuilder("spmv-ellpack")
    a = b.input("A", 4)
    v = b.input("V", 4)
    r = b.input("R", 1)
    products = [b.mul(a[j], v[j]) for j in range(4)]
    b.output("C", b.accumulate(b.reduce_tree("add", products), r[0]))
    return b.build()


def spmv_inputs(
    seed: int, n: int, min_nnz: int, max_nnz: int
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Random CRS-style matrix: per-row (values, column indices) + vector."""
    rng = make_rng(seed)
    values, columns = [], []
    for _ in range(n):
        nnz = rng.randint(min_nnz, max_nnz)
        cols = sorted(rng.sample(range(n), nnz))
        values.append(draw_ints(rng, -30, 30, nnz))
        columns.append(cols)
    vector = draw_ints(rng, -30, 30, n)
    return values, columns, vector


def spmv_kernel(
    ev: Evaluator,
    values: List[List[int]],
    columns: List[List[int]],
    vector: List[int],
) -> None:
    """``out`` = matrix x ``vec``, gathering ``vec`` through ``cols``."""
    ev.array("vals", [v for row in values for v in row])
    ev.array("cols", [c for row in columns for c in row])
    ev.array("vec", vector)
    ev.array("out", [0] * len(values))
    offset = 0
    for i, row in enumerate(values):
        acc = ev.const(0)
        for j in range(len(row)):
            col = ev.load("cols", offset + j)
            acc = ev.add(acc, ev.mul(ev.load("vals", offset + j), ev.load("vec", col)))
        ev.store("out", i, acc)
        offset += len(row)


def build_spmv_crs(
    fabric: Fabric = None, seed: int = 13, n: int = N_ROWS
) -> BuiltWorkload:
    fabric = fabric or broadly_provisioned()
    values, columns, vector = spmv_inputs(seed, n, 2, 12)
    result = evaluate(spmv_kernel, values, columns, vector)
    expected = result.array_values("out")

    image = []
    alloc = Allocator()
    flat_vals = [v for row in values for v in row]
    flat_cols = [c for row in columns for c in row]
    vals_addr = alloc.alloc(len(flat_vals) * 8)
    cols_addr = alloc.alloc(len(flat_cols) * 8)
    vec_addr = alloc.alloc(n * 8)
    out_addr = alloc.alloc(n * 8)
    image.append((vals_addr, pack_words(flat_vals)))
    image.append((cols_addr, pack_words(flat_cols)))
    image.append((vec_addr, pack_words(vector)))

    dfg = crs_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("spmv-crs", config)

    # Long streams ("streams should be as long as possible", Section 3.2):
    # values, column indices and the gather each run once over the whole
    # matrix; only the per-row accumulator coordination is short.
    total = len(flat_vals)
    program.mem_port(vals_addr, total * 8, total * 8, 1, "A")
    program.mem_to_indirect(cols_addr, total, 0)
    program.ind_port_port(0, vec_addr, "V", total)
    for i in range(n):
        nnz = len(values[i])
        if nnz > 1:
            program.const_port(0, nnz - 1, "R")
            program.clean_port(nnz - 1, "C")
        program.const_port(1, 1, "R")
        program.port_mem("C", 8, 8, 1, out_addr + i * 8)
        program.host(4)  # row loop: rowptr loads + address updates
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, out_addr, n)
        check_equal("spmv-crs", got, expected)

    return BuiltWorkload(
        name="spmv-crs",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={"n": n, "nnz": len(flat_vals), "instances": len(flat_vals)},
    )


def build_spmv_ellpack(
    fabric: Fabric = None, seed: int = 14, n: int = N_ROWS, ell: int = ELL_L
) -> BuiltWorkload:
    fabric = fabric or broadly_provisioned()
    values, columns, vector = spmv_inputs(seed, n, ell, ell)
    result = evaluate(spmv_kernel, values, columns, vector)
    expected = result.array_values("out")

    image = []
    alloc = Allocator()
    flat_vals = [v for row in values for v in row]
    flat_cols = [c for row in columns for c in row]
    vals_addr = alloc.alloc(len(flat_vals) * 8)
    cols_addr = alloc.alloc(len(flat_cols) * 8)
    vec_addr = alloc.alloc(n * 8)
    out_addr = alloc.alloc(n * 8)
    image.append((vals_addr, pack_words(flat_vals)))
    image.append((cols_addr, pack_words(flat_cols)))
    image.append((vec_addr, pack_words(vector)))

    dfg = ellpack_dfg()
    config = schedule(dfg, fabric)
    program = StreamProgram("spmv-ellpack", config)

    total = n * ell
    # Whole-matrix streams: values, column indices and the gather.
    program.mem_port(vals_addr, total * 8, total * 8, 1, "A")
    program.mem_to_indirect(cols_addr, total, 0)
    program.ind_port_port(0, vec_addr, "V", total)
    instances = ell // 4
    for i in range(n):
        if instances > 1:
            program.const_port(0, instances - 1, "R")
            program.clean_port(instances - 1, "C")
        program.const_port(1, 1, "R")
        program.port_mem("C", 8, 8, 1, out_addr + i * 8)
        program.host(2)
    program.barrier_all()

    def verify(mem: MemorySystem) -> None:
        got = read_words(mem, out_addr, n)
        check_equal("spmv-ellpack", got, expected)

    return BuiltWorkload(
        name="spmv-ellpack",
        program=program,
        fabric=fabric,
        image=tuple(image),
        verify=verify,
        meta={"n": n, "nnz": total, "instances": n * instances},
    )


def spmv_ddg(kind: str = "crs", n: int = N_ROWS, seed: int = 13) -> Ddg:
    """ellpack draws from ``seed + 1``: the default gives the inputs of
    ``build_spmv_ellpack``'s default seed, 14."""
    if kind == "crs":
        inputs = spmv_inputs(seed, n, 2, 12)
    else:
        inputs = spmv_inputs(seed + 1, n, ELL_L, ELL_L)
    return trace(f"spmv-{kind}", spmv_kernel, *inputs)


def spmv_asic_base() -> AsicDesign:
    return AsicDesign(base_alu=2, base_mul=1)


def spmv_census(kind: str = "crs", n: int = N_ROWS) -> ScalarWorkload:
    nnz = n * 7 if kind == "crs" else n * ELL_L  # mean density
    return ScalarWorkload(
        name=f"spmv-{kind}",
        int_ops=nnz + n,
        mul_ops=nnz,
        loads=3 * nnz,  # value, column, gathered vector element
        stores=n,
        branches=nnz,
        memory_bytes=8 * (2 * nnz + 2 * n),
        critical_path=0,
        mispredict_rate=0.15 if kind == "crs" else 0.06,
    )

"""Integration tests: every MachSuite kernel verifies end-to-end (small sizes)."""

import dataclasses
import hashlib
import inspect

import pytest

from repro.baselines.asic.ddg import evaluate
from repro.workloads.common import run_and_verify
from repro.workloads.machsuite import (
    MACHSUITE,
    backprop,
    bfs,
    fft,
    gemm,
    md_knn,
    nw,
    spmv,
    stencil2d,
    stencil3d,
    viterbi,
    build_bfs,
    build_gemm,
    build_md_knn,
    build_spmv_crs,
    build_spmv_ellpack,
    build_stencil2d,
    build_stencil3d,
    build_viterbi,
)


class TestGemm:
    def test_small(self):
        result = run_and_verify(build_gemm(n=8))
        assert result.stats.instances_fired == 8 * 8 * 1

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            build_gemm(n=10)

    def test_reference(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        result = evaluate(gemm.gemm_kernel, 2, a, b).array_values("c")
        assert result == [19, 22, 43, 50]


class TestStencils:
    def test_stencil2d_small(self):
        run_and_verify(build_stencil2d(width=10, height=6))

    def test_stencil2d_shape_checked(self):
        with pytest.raises(ValueError):
            build_stencil2d(width=11, height=6)

    def test_stencil3d_small(self):
        run_and_verify(build_stencil3d(side=6))

    def test_stencil3d_reference_boundary(self):
        from repro.workloads.machsuite.stencil3d import C0, C1

        side = 3
        grid = list(range(27))
        out = evaluate(stencil3d.stencil3d_kernel, side, grid).array_values("out")
        assert len(out) == 1
        centre = grid[13]
        neighbours = grid[14] + grid[12] + grid[16] + grid[10] + grid[22] + grid[4]
        assert out[0] == C0 * centre + C1 * neighbours


class TestSpmv:
    def test_crs_small(self):
        run_and_verify(build_spmv_crs(n=16))

    def test_ellpack_small(self):
        run_and_verify(build_spmv_ellpack(n=16, ell=8))

    def test_crs_single_element_rows_possible(self):
        # generator may produce rows with nnz as low as 2; run a few seeds
        for seed in (1, 2, 3):
            run_and_verify(build_spmv_crs(n=12, seed=seed))

    def test_ellpack_ddg_follows_its_seed(self):
        ellpack = [_ddg_sha(spmv.spmv_ddg("ellpack", seed=s)) for s in (13, 14)]
        assert ellpack[0] != ellpack[1]

    def test_reference(self):
        values = [[2, 3], [4]]
        columns = [[0, 2], [1]]
        vector = [10, 20, 30]
        result = evaluate(spmv.spmv_kernel, values, columns, vector)
        assert result.array_values("out") == [110, 80]


class TestBfs:
    def test_small(self):
        built = build_bfs(n=24, e=60)
        assert built.meta["depth"] >= 1
        run_and_verify(built)

    def test_reference_levels(self):
        # edges 0->1, 1->2, 0->3; node 4 is unreachable
        incoming = [[], [0], [1], [0], []]
        levels, depth = bfs.bfs_levels(incoming)
        assert levels == [0, 1, 2, 1, bfs.UNVISITED]
        assert depth == 2
        traced = evaluate(bfs.bfs_kernel, incoming, depth)
        assert traced.array_values("level") == levels

    def test_pull_formulation_handles_unreachable(self):
        # node with no in-edges stays at the sentinel
        run_and_verify(build_bfs(n=16, e=20, seed=7))


class TestMdKnn:
    def test_small(self):
        run_and_verify(build_md_knn(n=16, k=4))

    def test_reference_symmetry(self):
        pos = [(0, 0, 0), (2, 0, 0)]
        f = evaluate(md_knn.md_kernel, pos, [[1], [0]]).array_values("f")
        # equal and opposite forces along x
        assert f[0] == -f[3] != 0
        assert f[1] == 0 and f[2] == 0

    def test_div_semantics_match_hardware(self):
        from repro.core.dfg.instructions import div_trunc, get_operation

        div = get_operation("div")
        for a, b in [(7, 2), (-7, 2), (100, 7), (5, 0)]:
            hw = div.evaluate([a & (2**64 - 1), b & (2**64 - 1)])
            hw_signed = hw - 2**64 if hw >= 2**63 else hw
            assert hw_signed == div_trunc(a, b)


class TestViterbi:
    def test_small(self):
        run_and_verify(build_viterbi(n_states=8, n_steps=6))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            build_viterbi(n_states=6)

    def test_reference_dp(self):
        init = [0, 10]
        trans = [1, 5, 5, 1]
        emit = [0, 0, 2, 3]
        result = evaluate(viterbi.viterbi_kernel, init, trans, emit)
        # state 0: 2 + min(0+1, 10+5) = 3; state 1: 3 + min(0+5, 10+1) = 8;
        # two steps end in row 1 of the double buffer
        assert result.array_values("llike")[2:] == [3, 8]


class TestFft:
    def test_small(self):
        from repro.workloads.machsuite import build_fft

        run_and_verify(build_fft(n=16))

    def test_power_of_two_checked(self):
        from repro.workloads.machsuite import build_fft

        with pytest.raises(ValueError):
            build_fft(n=24)

    def test_reference_against_dft(self):
        # The fixed-point FFT must approximate the exact DFT closely.
        import cmath

        n = 16
        real = [(i * 37) % 101 - 50 for i in range(n)]
        imag = [0] * n
        result = evaluate(fft.fft_kernel, real, imag)
        got_re, got_im = result.array_values("re"), result.array_values("im")
        for k in range(n):
            exact = sum(
                real[j] * cmath.exp(-2j * cmath.pi * j * k / n)
                for j in range(n)
            )
            assert abs(got_re[k] - exact.real) < 8  # Q12 rounding error
            assert abs(got_im[k] - exact.imag) < 8


class TestRegistry:
    def test_paper_workloads_plus_extensions_registered(self):
        assert set(MACHSUITE) == {
            "bfs", "spmv-crs", "spmv-ellpack", "stencil", "stencil3d",
            "gemm", "md", "viterbi", "fft", "nw", "backprop",
        }

    def test_registry_entries_complete(self):
        for name, (builder, ddg_fn, census_fn, base_fn) in MACHSUITE.items():
            census = census_fn()
            assert census.total_instructions > 0
            base = base_fn()
            assert base.resources["mem"] >= 1

    @pytest.mark.parametrize("name", sorted(MACHSUITE))
    def test_ddg_builders_produce_graphs(self, name):
        ddg = MACHSUITE[name][1]()
        assert ddg.num_ops > 100
        assert ddg.critical_path() > 0


class TestNw:
    def test_small(self):
        from repro.workloads.machsuite.nw import build_nw

        run_and_verify(build_nw(length=10))

    def test_reference_known_alignment(self):
        from repro.workloads.machsuite.nw import GAP, MATCH

        # identical sequences: diagonal of matches (4 x 4, row-major)
        score = evaluate(nw.nw_kernel, [1, 2, 3], [1, 2, 3]).array_values("score")
        assert score[3 * 4 + 3] == 3 * MATCH
        assert score[0 * 4 + 3] == 3 * GAP

    def test_rectangularish_wavefront(self):
        # non-trivial sequences still verify end-to-end
        from repro.workloads.machsuite.nw import build_nw

        for seed in (3, 9):
            run_and_verify(build_nw(length=8, seed=seed))


class TestBackprop:
    def test_small(self):
        from repro.workloads.machsuite.backprop import build_backprop

        run_and_verify(build_backprop(n_in=6, n_out=8))

    def test_shape_checked(self):
        from repro.workloads.machsuite.backprop import build_backprop

        with pytest.raises(ValueError):
            build_backprop(n_out=10)

    def test_reference_learning_direction(self):
        # positive activation x positive delta must decrease the weight
        result = evaluate(backprop.backprop_kernel, [100], [32], [32])
        assert result.array_values("w")[0] < 100
        assert result.array_values("err") == [100 * 32]


class TestExtensionsRegistered:
    def test_all_footnote3_extensions(self):
        assert {"fft", "nw", "backprop"} <= set(MACHSUITE)


# -- the kernel lock ------------------------------------------------------------

#: kernel -> (DDG builder, its non-seed arguments)
DDG_FUNCTIONS = {
    "bfs": (bfs.bfs_ddg, {}),
    "spmv-crs": (spmv.spmv_ddg, {"kind": "crs"}),
    "spmv-ellpack": (spmv.spmv_ddg, {"kind": "ellpack"}),
    "stencil": (stencil2d.stencil2d_ddg, {}),
    "stencil3d": (stencil3d.stencil3d_ddg, {}),
    "gemm": (gemm.gemm_ddg, {}),
    "md": (md_knn.md_ddg, {}),
    "viterbi": (viterbi.viterbi_ddg, {}),
    "fft": (fft.fft_ddg, {}),
    "nw": (nw.nw_ddg, {}),
    "backprop": (backprop.backprop_ddg, {}),
}

#: (kernel, seed) -> SHA-256 of the DDG (see ``_ddg_sha``)
DDG_SHAS = {
    ("bfs", 15): "ab161801d93f0f2fec5683915c72cdf2bff492140e3e9603a9d53feb939f7d11",
    ("bfs", 16): "5f7822190cdc4206ab6d9bdfac636e724571952eba2ecb90e5a6a51763a9c8fc",
    ("spmv-crs", 13): "bfb99e587769001d48461f6d165dc08e6ca8690cc02232f7a0f8a7b0a00ab41e",
    ("spmv-crs", 14): "5acf2fa0fa69f5412d5f0f3712bc2b0457b0247b307e3ba9b9232bdea72f58dc",
    ("spmv-ellpack", 13): "6d6fd5d864504450e499dd0e8fa2cf1036720975e0db32e6c3774bd952847a92",
    ("spmv-ellpack", 14): "99d0a77287a022ed7d3a9162fd2d07276c21c3a5ec5b6f7f9fb96a31baaa4c9b",
    ("stencil", 11): "7b3ea4e008f0a90d48f62dd698724445e2ddc1c79b556025f13c92474173e26e",
    ("stencil", 12): "7b3ea4e008f0a90d48f62dd698724445e2ddc1c79b556025f13c92474173e26e",
    ("stencil3d", 12): "ffcc4624b16122872ab9414b9f027346e8bf85899e9c52d17d68c59685578309",
    ("stencil3d", 13): "ffcc4624b16122872ab9414b9f027346e8bf85899e9c52d17d68c59685578309",
    ("gemm", 10): "7c96c51526fe02e4cfef61391b8340938ad06a193559a765485b85cbe54017f7",
    ("gemm", 11): "7c96c51526fe02e4cfef61391b8340938ad06a193559a765485b85cbe54017f7",
    ("md", 16): "2f2c06da1f8cefd2d381634de1a73a716bc115fdcf67c27c5dcce9b832fce40a",
    ("md", 17): "bbb672ba4cacf3e8a64e3b03b4112152d459716ff64fb84310fb6df5f605fa67",
    ("viterbi", 17): "e157adf05d63cc9dc3855514a1dcc593e4c46d293e893747b526f5e77ff92290",
    ("viterbi", 18): "e157adf05d63cc9dc3855514a1dcc593e4c46d293e893747b526f5e77ff92290",
    ("fft", 18): "9f3843f7fe6ffd4a6856927d769bb5dced516bcbbfaf1cc8bcb5913a65125d5d",
    ("fft", 19): "9f3843f7fe6ffd4a6856927d769bb5dced516bcbbfaf1cc8bcb5913a65125d5d",
    ("nw", 19): "799bdf912716faeefba5fd1d326ce4601e1e3cc219e8ff4b7ada42ad782cff1c",
    ("nw", 20): "799bdf912716faeefba5fd1d326ce4601e1e3cc219e8ff4b7ada42ad782cff1c",
    ("backprop", 20): "56fd1f33a562c5df983a5b168c4922a558a937ff130b837d6240e07de91aec43",
    ("backprop", 21): "56fd1f33a562c5df983a5b168c4922a558a937ff130b837d6240e07de91aec43",
}

#: kernel -> its CPU census (``ScalarWorkload``), field by field
CENSUS = {
    # 4 sweeps, the default graph's depth (it was a hard-coded 6: loads
    # 6912, stores 576, int_ops and branches 4608, critical_path 72)
    "bfs": dict(name="bfs", int_ops=3072, mul_ops=0, div_ops=0, loads=4608,
                stores=384, branches=3072, critical_path=48,
                memory_bytes=3840, mispredict_rate=0.12),
    "spmv-crs": dict(name="spmv-crs", int_ops=768, mul_ops=672, div_ops=0,
                     loads=2016, stores=96, branches=672, critical_path=0,
                     memory_bytes=12288, mispredict_rate=0.15),
    "spmv-ellpack": dict(name="spmv-ellpack", int_ops=864, mul_ops=768,
                         div_ops=0, loads=2304, stores=96, branches=768,
                         critical_path=0, memory_bytes=13824,
                         mispredict_rate=0.06),
    "stencil": dict(name="stencil", int_ops=4608, mul_ops=4608, div_ops=0,
                    loads=9216, stores=512, branches=1152, critical_path=0,
                    memory_bytes=8992, mispredict_rate=0.02),
    "stencil3d": dict(name="stencil3d", int_ops=6000, mul_ops=2000, div_ops=0,
                      loads=7000, stores=1000, branches=500, critical_path=0,
                      memory_bytes=21824, mispredict_rate=0.02),
    "gemm": dict(name="gemm", int_ops=14400, mul_ops=13824, div_ops=0,
                 loads=27648, stores=576, branches=3456, critical_path=0,
                 memory_bytes=13824, mispredict_rate=0.02),
    "md": dict(name="md", int_ops=6912, mul_ops=6144, div_ops=1536,
               loads=3072, stores=192, branches=768, critical_path=0,
               memory_bytes=9216, mispredict_rate=0.02),
    "viterbi": dict(name="viterbi", int_ops=11776, mul_ops=0, div_ops=0,
                    loads=11776, stores=368, branches=5888, critical_path=184,
                    memory_bytes=5120, mispredict_rate=0.02),
    "fft": dict(name="fft", int_ops=1536, mul_ops=768, div_ops=0, loads=1152,
                stores=768, branches=192, critical_path=60, memory_bytes=1536,
                mispredict_rate=0.02),
    "nw": dict(name="nw", int_ops=3456, mul_ops=0, div_ops=0, loads=2880,
               stores=576, branches=1152, critical_path=188,
               memory_bytes=5000, mispredict_rate=0.08),
    "backprop": dict(name="backprop", int_ops=1152, mul_ops=768, div_ops=0,
                     loads=1152, stores=408, branches=96, critical_path=0,
                     memory_bytes=3392, mispredict_rate=0.02),
}


def _ddg_sha(ddg):
    """SHA-256 over every op's (kind, deps, array, index) and the arrays."""
    digest = hashlib.sha256()
    for op in zip(ddg.kinds, ddg.deps, ddg.mem_arrays, ddg.mem_indices):
        digest.update(repr(op).encode())
    digest.update(repr(sorted(ddg.arrays.items())).encode())
    return digest.hexdigest()


class TestKernelLock:
    """Every MachSuite DDG and census, pinned.  A change to how a kernel is
    written must leave each DDG byte-identical: the ASIC model schedules
    these graphs, so one moved node moves Section 7.3's figures."""

    @pytest.mark.parametrize("kernel, seed", sorted(DDG_SHAS))
    def test_ddg_sha(self, kernel, seed):
        builder, kwargs = DDG_FUNCTIONS[kernel]
        assert _ddg_sha(builder(seed=seed, **kwargs)) == DDG_SHAS[kernel, seed]

    def test_every_kernel_locked_at_its_default_seed(self):
        for kernel, (builder, _) in DDG_FUNCTIONS.items():
            seed = inspect.signature(builder).parameters["seed"].default
            assert (kernel, seed) in DDG_SHAS

    @pytest.mark.parametrize("kernel", sorted(CENSUS))
    def test_census(self, kernel):
        census = MACHSUITE[kernel][2]()
        assert dataclasses.asdict(census) == CENSUS[kernel]


#: kernel -> {census field: (census, kernel DDG)} for every field where the
#: CPU census and the kernel's own op counts disagree, as measured; every
#: other field agrees.  A census fix edits this table.
CENSUS_VS_KERNEL = {
    "bfs": {"loads": (4608, 3456), "int_ops": (3072, 1920)},
    "spmv-crs": {"loads": (2016, 2028), "int_ops": (768, 676),
                 "mul_ops": (672, 676)},
    "spmv-ellpack": {"int_ops": (864, 768)},
    "gemm": {"int_ops": (14400, 13824)},
    "viterbi": {"loads": (11776, 12144)},
    "nw": {"int_ops": (3456, 4032)},
    "backprop": {"loads": (1152, 792)},
}

#: census field -> the DDG op kinds it counts
CENSUS_KINDS = {
    "loads": ("load",),
    "stores": ("store",),
    "int_ops": ("add", "cmp", "shift", "logic"),
    "mul_ops": ("mul",),
    "div_ops": ("div",),
}


class TestCensusVsKernel:
    """The CPU census is written by hand; the kernel counts its own ops."""

    @pytest.mark.parametrize("kernel", sorted(MACHSUITE))
    def test_census_against_kernel(self, kernel):
        _, ddg_fn, census_fn, _ = MACHSUITE[kernel]
        census = census_fn()
        histogram = ddg_fn().op_histogram()
        assert set(histogram) <= {k for kinds in CENSUS_KINDS.values()
                                  for k in kinds}
        disagree = {}
        for field, kinds in CENSUS_KINDS.items():
            counted = sum(histogram.get(kind, 0) for kind in kinds)
            if getattr(census, field) != counted:
                disagree[field] = (getattr(census, field), counted)
        assert disagree == CENSUS_VS_KERNEL.get(kernel, {})

"""MachSuite workloads as stream-dataflow programs (Section 7.2)."""

from typing import Dict

from .backprop import (
    backprop_asic_base,
    backprop_census,
    backprop_ddg,
    build_backprop,
)
from .bfs import bfs_asic_base, bfs_census, bfs_ddg, build_bfs
from .fft import build_fft, fft_asic_base, fft_census, fft_ddg
from .gemm import build_gemm, gemm_asic_base, gemm_census, gemm_ddg
from .md_knn import build_md_knn, md_asic_base, md_census, md_ddg
from .nw import build_nw, nw_asic_base, nw_census, nw_ddg
from .spmv import (
    build_spmv_crs,
    build_spmv_ellpack,
    spmv_asic_base,
    spmv_census,
    spmv_ddg,
)
from .stencil2d import (
    build_stencil2d,
    stencil2d_asic_base,
    stencil2d_census,
    stencil2d_ddg,
)
from .stencil3d import (
    build_stencil3d,
    stencil3d_asic_base,
    stencil3d_census,
    stencil3d_ddg,
)
from .viterbi import (
    build_viterbi,
    viterbi_asic_base,
    viterbi_census,
    viterbi_ddg,
)

#: canonical name -> (softbrain builder, ddg builder, cpu census, asic base)
MACHSUITE: Dict[str, tuple] = {
    "bfs": (build_bfs, bfs_ddg, bfs_census, bfs_asic_base),
    "spmv-crs": (
        build_spmv_crs,
        lambda: spmv_ddg("crs"),
        lambda ddg=None: spmv_census("crs", ddg=ddg),
        spmv_asic_base,
    ),
    "spmv-ellpack": (
        build_spmv_ellpack,
        lambda: spmv_ddg("ellpack"),
        lambda ddg=None: spmv_census("ellpack", ddg=ddg),
        spmv_asic_base,
    ),
    "stencil": (
        build_stencil2d,
        stencil2d_ddg,
        stencil2d_census,
        stencil2d_asic_base,
    ),
    "stencil3d": (
        build_stencil3d,
        stencil3d_ddg,
        stencil3d_census,
        stencil3d_asic_base,
    ),
    "gemm": (build_gemm, gemm_ddg, gemm_census, gemm_asic_base),
    "md": (build_md_knn, md_ddg, md_census, md_asic_base),
    "viterbi": (build_viterbi, viterbi_ddg, viterbi_census, viterbi_asic_base),
    # Extensions beyond the paper's evaluated eight: three of the four
    # workloads footnote 3 identifies as fitting the paradigm.
    "fft": (build_fft, fft_ddg, fft_census, fft_asic_base),
    "nw": (build_nw, nw_ddg, nw_census, nw_asic_base),
    "backprop": (build_backprop, backprop_ddg, backprop_census,
                 backprop_asic_base),
}

__all__ = [
    "MACHSUITE",
    "build_backprop",
    "build_bfs",
    "build_fft",
    "build_gemm",
    "build_md_knn",
    "build_nw",
    "build_spmv_crs",
    "build_spmv_ellpack",
    "build_stencil2d",
    "build_stencil3d",
    "build_viterbi",
]

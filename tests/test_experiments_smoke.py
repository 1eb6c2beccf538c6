"""Smoke tests for the experiment harnesses (full runs live in benchmarks/).

These use one small workload per harness so the full pipeline — simulate,
baseline models, ASIC DSE, figure derivation — is covered by the fast test
suite without the benchmark suite's runtime.
"""

import pytest

from repro.experiments import (
    dnn_comparison,
    format_figure11,
    format_figure12,
    format_figure13,
    format_figure14,
    format_figure15,
    format_sweep,
    machsuite_comparison,
    sweep_dram_bandwidth,
)
from repro.workloads.dnn.layers import PoolLayer


class TestDnnHarness:
    def test_single_layer_row(self):
        layer = PoolLayer("smoke-pool", in_w=16, in_h=16, maps=8, window=2)
        rows = dnn_comparison([layer])
        (row,) = rows
        assert row.cpu_cycles > 0
        assert row.softbrain_speedup > 0
        assert row.gpu_speedup > 0
        assert row.diannao_speedup > 0
        text = format_figure11(rows)
        assert "smoke-pool" in text and "GM" in text


class TestMachSuiteHarness:
    @pytest.fixture(scope="class")
    def rows(self):
        return machsuite_comparison(["backprop"])

    def test_row_fields(self, rows):
        (row,) = rows
        assert row.softbrain_cycles > 0
        assert row.asic.cycles > 0
        assert row.softbrain_power_mw > 0
        assert row.asic.power_mw > 0

    def test_all_figures_render(self, rows):
        for formatter in (
            format_figure12,
            format_figure13,
            format_figure14,
            format_figure15,
        ):
            text = formatter(rows)
            assert "backprop" in text

    def test_efficiency_identities(self, rows):
        (row,) = rows
        # energy efficiency == power efficiency x speedup (by construction)
        assert row.softbrain_energy_eff == pytest.approx(
            row.softbrain_power_eff * row.softbrain_speedup
        )
        assert row.asic_energy_eff == pytest.approx(
            row.asic_power_eff * row.asic_speedup
        )

    def test_area_ratio_positive(self, rows):
        (row,) = rows
        assert 0 < row.asic_area_ratio < 1


class TestSensitivityHarness:
    def test_dram_sweep_monotone_for_bw_bound(self):
        from repro.workloads.machsuite import build_stencil2d

        result = sweep_dram_bandwidth(
            lambda **kw: build_stencil2d(width=18, height=10, **kw),
            gaps=(2, 8, 32),
        )
        cycles = [p.cycles for p in result.points]
        assert cycles == sorted(cycles)  # less bandwidth, more cycles
        assert "stencil" in format_sweep(result)

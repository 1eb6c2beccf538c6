"""Unit tests for the CPU, GPU and DianNao analytical baselines."""

import pytest

from repro.baselines import (
    CpuParams,
    DnnLayerCost,
    GpuWorkload,
    ScalarWorkload,
    estimate_cpu_cycles,
    estimate_diannao_cycles,
    estimate_gpu_cycles,
)
from repro.baselines.diannao import DIANNAO_AREA_MM2, DIANNAO_POWER_MW, DianNaoParams
from repro.power.tech import scale_area, scale_power


class TestCpuModel:
    def test_issue_bound(self):
        w = ScalarWorkload("w", int_ops=2800, mispredict_rate=0.0)
        estimate = estimate_cpu_cycles(w)
        assert estimate.cycles == pytest.approx(1000)
        assert estimate.limiting_factor == "issue"

    def test_memory_port_bound(self):
        w = ScalarWorkload("w", loads=10_000, mispredict_rate=0.0)
        estimate = estimate_cpu_cycles(w)
        assert estimate.cycles == pytest.approx(5000)
        assert estimate.limiting_factor == "memory_ports"

    def test_divide_bound(self):
        w = ScalarWorkload("w", div_ops=100, mispredict_rate=0.0)
        assert estimate_cpu_cycles(w).cycles == pytest.approx(2000)

    def test_bandwidth_bound(self):
        w = ScalarWorkload("w", memory_bytes=120_000, mispredict_rate=0.0)
        assert estimate_cpu_cycles(w).cycles == pytest.approx(10_000)

    def test_critical_path_bound(self):
        w = ScalarWorkload("w", int_ops=10, critical_path=5000,
                           mispredict_rate=0.0)
        assert estimate_cpu_cycles(w).cycles == pytest.approx(5000)

    def test_mispredicts_add(self):
        w = ScalarWorkload("w", int_ops=2800, branches=100, mispredict_rate=0.5)
        estimate = estimate_cpu_cycles(w)
        issue = (2800 + 100) / (4.0 * 0.70)
        assert estimate.cycles == pytest.approx(issue + 0.5 * 100 * 14)

    def test_minimum_one_cycle(self):
        assert estimate_cpu_cycles(ScalarWorkload("empty")).cycles >= 1

    def test_cpu_power_is_watts_class(self):
        assert 3000 < CpuParams().power_mw < 20_000


class TestGpuModel:
    def test_compute_bound_conv(self):
        w = GpuWorkload("c", "conv", mac_ops=10**7, simple_ops=0, memory_bytes=0)
        cycles = estimate_gpu_cycles(w)
        assert cycles > 2 * 10**7 / 512  # utilisation < 1 slows it down

    def test_memory_bound_pool(self):
        w = GpuWorkload("p", "pool", mac_ops=0, simple_ops=100,
                        memory_bytes=10**6)
        cycles = estimate_gpu_cycles(w)
        assert cycles >= 10**6 / 80

    def test_launch_overhead_counts(self):
        w = GpuWorkload("p", "pool", mac_ops=0, simple_ops=1, memory_bytes=1,
                        kernels=2)
        assert estimate_gpu_cycles(w) > 15_000

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            estimate_gpu_cycles(
                GpuWorkload("x", "raytrace", mac_ops=1, simple_ops=0,
                            memory_bytes=0)
            )


class TestDianNaoModel:
    def test_compute_bound(self):
        layer = DnnLayerCost("l", mac_ops=256_000, simple_ops=0, unique_bytes=0)
        assert estimate_diannao_cycles(layer) == pytest.approx(1000)

    def test_memory_bound(self):
        layer = DnnLayerCost("l", mac_ops=100, simple_ops=0, unique_bytes=160_000)
        assert estimate_diannao_cycles(layer) == pytest.approx(10_000)

    def test_refetch_factor_inflates_traffic(self):
        base = DnnLayerCost("l", 0, 0, 16_000)
        inflated = DnnLayerCost("l", 0, 0, 16_000, refetch_factor=1.5)
        assert estimate_diannao_cycles(inflated) == pytest.approx(
            1.5 * estimate_diannao_cycles(base)
        )

    def test_published_figures(self):
        assert DIANNAO_AREA_MM2 == pytest.approx(2.16)
        assert DIANNAO_POWER_MW == pytest.approx(418.3)


class TestTechScaling:
    def test_area_scales_quadratically(self):
        assert scale_area(1.0, 28, 56) == pytest.approx(4.0)

    def test_power_scales_linearly(self):
        assert scale_power(1.0, 28, 56) == pytest.approx(2.0)

    def test_identity(self):
        assert scale_area(3.3, 55, 55) == pytest.approx(3.3)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            scale_area(1.0, 0, 55)
        with pytest.raises(ValueError):
            scale_power(1.0, 55, -1)

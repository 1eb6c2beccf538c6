"""Tests for the power model, Table 3/Table 1/Table 4 harnesses."""

import pytest

from repro.cgra import dnn_provisioned
from repro.experiments import (
    capability_scores,
    format_table1,
    format_table3,
    format_table4,
    geomean,
    table3,
)
from repro.power import (
    SOFTBRAIN_COMPONENTS,
    activity_factors,
    estimate_power,
    softbrain_area_mm2,
    softbrain_peak_power_mw,
)
from repro.experiments.capabilities import ARCHITECTURES, CAPABILITIES
from repro.workloads.characterization import UNSUITABLE, characterize
from repro.workloads.common import run_and_verify
from repro.workloads.machsuite import build_spmv_ellpack, build_stencil2d


class TestPowerModel:
    def test_unit_area_matches_table3(self):
        assert softbrain_area_mm2() == pytest.approx(0.47, abs=0.01)

    def test_unit_peak_power_matches_table3(self):
        assert softbrain_peak_power_mw() == pytest.approx(119.3, abs=1.0)

    def test_eight_units_match_table3(self):
        assert softbrain_area_mm2(8) == pytest.approx(3.76, abs=0.05)
        assert softbrain_peak_power_mw(8) == pytest.approx(954.4, abs=5.0)

    def test_component_set(self):
        assert set(SOFTBRAIN_COMPONENTS) == {
            "control_core", "cgra_network", "fus", "stream_engines",
            "scratchpad", "vector_ports",
        }

    def test_one_activity_per_component(self):
        # Each activity factor feeds one component's power, and no other
        # key is derived: a device run's shared memory would count every
        # unit's requests.
        built = build_spmv_ellpack(n=16)
        result = run_and_verify(built)
        activity = activity_factors(result, built.fabric)
        assert list(activity) == list(SOFTBRAIN_COMPONENTS)

    def test_measured_power_below_peak(self):
        built = build_spmv_ellpack(n=16)
        result = run_and_verify(built)
        breakdown = estimate_power(result, built.fabric)
        assert 0 < breakdown.total_mw <= softbrain_peak_power_mw()

    def test_busier_run_uses_more_power(self):
        light = run_and_verify(build_spmv_ellpack(n=16))
        heavy = run_and_verify(build_stencil2d(width=18, height=10))
        light_power = estimate_power(light, dnn_provisioned()).total_mw
        heavy_power = estimate_power(heavy, dnn_provisioned()).total_mw
        assert heavy_power > light_power * 0.8  # same order; busier >= lighter

    def test_breakdown_table_renders(self):
        built = build_spmv_ellpack(n=16)
        result = run_and_verify(built)
        text = estimate_power(result, built.fabric).table()
        assert "TOTAL" in text


class TestTable3:
    def test_overheads_match_paper(self):
        data = table3()
        assert data.area_overhead == pytest.approx(1.74, abs=0.05)
        assert data.power_overhead == pytest.approx(2.28, abs=0.05)

    def test_render(self):
        text = format_table3(table3())
        assert "DianNao" in text
        assert "Softbrain/DianNao overhead" in text


class TestTable1:
    def test_stream_dataflow_scores_highest(self):
        scores = {s.architecture: s.score for s in capability_scores()}
        best = max(scores.values())
        assert scores["Stream-Dataflow"] == best

    def test_render_includes_all_architectures(self):
        text = format_table1()
        for arch in ("SIMD", "SIMT", "Vector Threads", "Spatial Dataflow",
                     "Stream-Dataflow"):
            assert arch in text

    def test_labels_hold_their_full_capability_text(self):
        rows = format_table1().splitlines()[4:4 + len(CAPABILITIES)]
        for line, (_, capability, _) in zip(rows, CAPABILITIES):
            assert capability + " " in line, (line, capability)

    def test_cells_separated_by_spaces(self):
        """Each right-aligned cell has a space before it, so a longest
        verdict such as "Yes SIMD/ No Scalar" cannot run into the cell
        to its left."""
        def assert_spaced(line, cells):
            for cell in reversed(cells):
                assert line.endswith(cell), (line, cell)
                line = line[:-len(cell)]
                assert line.endswith(" "), (line, cell)
                line = line.rstrip(" ")

        lines = format_table1().splitlines()
        assert_spaced(lines[2], ARCHITECTURES)
        rows = lines[4:4 + len(CAPABILITIES)]
        for line, (_, _, verdicts) in zip(rows, CAPABILITIES):
            assert_spaced(line, verdicts)
        assert_spaced(lines[-1], [f"{s.score:.1f}/{s.max_score}"
                                  for s in capability_scores()])


class TestTable4:
    def test_characterization_matches_paper_rows(self):
        built = build_spmv_ellpack(n=16)
        row = characterize(built)
        assert "Indirect Loads" in row.patterns
        assert "Linear" in row.patterns
        assert "Recurrence" in row.patterns
        assert row.datapath == "4-Way Multiply-Accumulate"

    def test_stencil_has_affine_and_recurrence(self):
        row = characterize(build_stencil2d(width=10, height=6))
        assert "Affine" in row.patterns or "Overlapped" in row.patterns
        assert "Recurrence" in row.patterns
        assert row.datapath == "8-Way Multiply-Accumulate"

    def test_unsuitable_list_matches_paper(self):
        assert [name for name, _ in UNSUITABLE] == [
            "aes", "kmp", "merge-sort", "radix-sort",
        ]


class TestHelpers:
    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0

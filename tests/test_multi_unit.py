"""Tests for the multi-unit simulator and its bandwidth-sharing behaviour."""

import json

import pytest

from repro.sim import run_multi_unit, run_program
from repro.workloads.common import run_units_and_verify
from repro.workloads.dnn import DNN_LAYERS, build_classifier, build_dnn_layer
from repro.workloads.dnn.layers import ClassifierLayer

from .test_golden_stats import GOLDEN_DIR, dump_golden, fingerprint


def build_units(layer, units):
    return [build_classifier(layer, unit_id=u, num_units=units)
            for u in range(units)]


class TestMultiUnit:
    @pytest.mark.parametrize("layer", DNN_LAYERS, ids=lambda layer: layer.name)
    def test_units_share_one_image(self, layer):
        # A layer's units split the work, not the data: every unit's build
        # holds the single-unit build's image, so one memory serves them all.
        image = build_dnn_layer(layer).image
        for unit in range(8):
            assert build_dnn_layer(layer, unit_id=unit,
                                   num_units=8).image == image, unit

    def test_results_verify_across_units(self):
        layer = ClassifierLayer("mu", ni=128, nn=16)
        result = run_units_and_verify(build_units(layer, 4))
        assert len(result.unit_results) == 4
        assert result.total_instances == 16 * (128 // 16)

    def test_four_unit_golden(self, update_golden):
        # Locks the lock-step loop for N units: each unit's fingerprint
        # plus the device cycle count, one golden file per unit.
        layer = ClassifierLayer("mu", ni=128, nn=16)
        result = run_units_and_verify(build_units(layer, 4))
        for index, unit in enumerate(result.unit_results):
            got = dict(fingerprint(unit), device_cycles=result.cycles)
            path = GOLDEN_DIR / f"multi-unit-mu-u{index}.json"
            if update_golden:
                path.write_text(dump_golden(got))
                continue
            assert got == json.loads(path.read_text()), (
                f"unit {index} drifted from {path.name}; re-bless an "
                f"intended timing change with --update-golden")

    def test_units_on_one_configuration_compile_it_once(self, monkeypatch):
        from repro.fuzz import build_case, trivial_plan

        from .test_property_dfg import count_compiles

        built = build_case(trivial_plan())
        compiled = count_compiles(monkeypatch)
        result = run_multi_unit([built.program] * 4, [built.fabric] * 4,
                                memory=built.fresh_memory())
        assert [r.stats.instances_fired for r in result.unit_results] == [1] * 4
        assert compiled == [built.config.dfg]

    def test_device_cycles_is_slowest_unit(self):
        layer = ClassifierLayer("mu2", ni=64, nn=8)
        result = run_units_and_verify(build_units(layer, 2))
        assert result.cycles == max(r.cycles for r in result.unit_results)

    def test_shared_interface_creates_contention(self):
        # One unit alone vs the same share with three competing units:
        # the shared single-accept-per-cycle interface must slow it down.
        layer = ClassifierLayer("cont", ni=256, nn=16)
        solo_built = build_classifier(layer, unit_id=0, num_units=4)
        solo = run_program(
            solo_built.program, fabric=solo_built.fabric,
            memory=solo_built.fresh_memory(),
        )

        shared = run_units_and_verify(build_units(layer, 4))
        assert shared.unit_results[0].cycles > solo.cycles

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_multi_unit([], [])
        with pytest.raises(ValueError):
            run_units_and_verify([])

    def test_one_fabric_per_program(self):
        built = build_classifier(ClassifierLayer("pair", ni=64, nn=4))
        with pytest.raises(ValueError, match="2 unit programs but 1"):
            run_multi_unit([built.program] * 2, [built.fabric])

    def test_units_must_share_one_image(self):
        # Units built from different data cannot share one memory.
        first = build_classifier(ClassifierLayer("a", ni=64, nn=4),
                                 unit_id=0, num_units=2)
        other = build_classifier(ClassifierLayer("b", ni=64, nn=8),
                                 unit_id=1, num_units=2)
        with pytest.raises(ValueError, match="share one memory image"):
            run_units_and_verify([first, other])

    def test_single_unit_multi_matches_run_program(self):
        layer = ClassifierLayer("solo", ni=64, nn=4)
        built = build_classifier(layer)
        expected = run_program(
            built.program, fabric=built.fabric, memory=built.fresh_memory()
        )
        assert run_units_and_verify([built]).cycles == expected.cycles

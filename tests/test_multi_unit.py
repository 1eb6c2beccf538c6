"""Tests for the multi-unit simulator and its bandwidth-sharing behaviour."""

import json

import pytest

from repro.cgra import dnn_provisioned
from repro.sim import MemoryParams, run_multi_unit, run_program
from repro.workloads.dnn import DNN_LAYERS, build_classifier, build_dnn_layer
from repro.workloads.dnn.layers import ClassifierLayer

from .test_golden_stats import GOLDEN_DIR, dump_golden, fingerprint


def build_units(layer, units):
    builts = [
        build_classifier(layer, unit_id=u, num_units=units) for u in range(units)
    ]
    return builts, builts[0].fresh_memory()


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
        builts, memory = build_units(layer, 4)
        result = run_multi_unit(
            [b.program for b in builts], dnn_provisioned, memory=memory
        )
        for built in builts:
            built.verify(memory)
        assert len(result.unit_results) == 4
        assert result.total_instances == 16 * (128 // 16)

    def test_four_unit_golden(self, update_golden):
        # Locks the lock-step loop for N units: each unit's fingerprint
        # plus the device cycle count, one golden file per unit.
        layer = ClassifierLayer("mu", ni=128, nn=16)
        builts, memory = build_units(layer, 4)
        result = run_multi_unit(
            [b.program for b in builts], dnn_provisioned, memory=memory
        )
        for index, unit in enumerate(result.unit_results):
            got = dict(fingerprint(unit), device_cycles=result.cycles)
            path = GOLDEN_DIR / f"multi-unit-mu-u{index}.json"
            if update_golden:
                path.write_text(dump_golden(got))
                continue
            assert got == json.loads(path.read_text()), (
                f"unit {index} drifted from {path.name}; re-bless an "
                f"intended timing change with --update-golden")

    def test_device_cycles_is_slowest_unit(self):
        layer = ClassifierLayer("mu2", ni=64, nn=8)
        builts, memory = build_units(layer, 2)
        result = run_multi_unit(
            [b.program for b in builts], dnn_provisioned, memory=memory
        )
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

        builts, memory = build_units(layer, 4)
        shared = run_multi_unit(
            [b.program for b in builts], dnn_provisioned, memory=memory
        )
        assert shared.unit_results[0].cycles > solo.cycles

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_multi_unit([], dnn_provisioned)

    def test_single_unit_multi_matches_run_program(self):
        layer = ClassifierLayer("solo", ni=64, nn=4)
        built = build_classifier(layer)
        expected = run_program(
            built.program, fabric=built.fabric, memory=built.fresh_memory()
        )
        result = run_multi_unit(
            [built.program], dnn_provisioned, memory=built.fresh_memory()
        )
        assert result.cycles == expected.cycles

    def test_bandwidth_approximation_sane(self):
        # The DNN harness approximates N units by giving one unit 1/N DRAM
        # bandwidth.  Cross-validate: the approximation must land within
        # 2x of the true multi-unit simulation.
        layer = ClassifierLayer("xval", ni=256, nn=16)
        units = 4

        builts, memory = build_units(layer, units)
        true_result = run_multi_unit(
            [b.program for b in builts], dnn_provisioned, memory=memory
        )

        approx_built = build_classifier(layer, unit_id=0, num_units=units)
        base = MemoryParams()
        approx_memory = approx_built.fresh_memory(
            MemoryParams(dram_gap_cycles=base.dram_gap_cycles * units)
        )
        approx = run_program(
            approx_built.program, fabric=approx_built.fabric,
            memory=approx_memory,
        )
        ratio = approx.cycles / true_result.cycles
        assert 0.5 < ratio < 2.0, ratio

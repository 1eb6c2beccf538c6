"""Integration tests: every DNN layer verifies end-to-end on the simulator.

Small layer instances keep these fast; the full Figure 11 sizes run in the
benchmark harness.
"""

import itertools
import random

import pytest

from repro.workloads.common import run_and_verify
from repro.workloads.dnn import (
    ClassifierLayer,
    ConvLayer,
    DNN_LAYERS,
    PoolLayer,
    build_classifier,
    build_conv,
    build_dnn_layer,
    build_pool,
    classifier_dfg,
    reference_classifier,
)
from repro.workloads.dnn.conv import reference_conv
from repro.core.dfg.instructions import fixed_point_sigmoid


class TestClassifier:
    def test_dfg_one_instance(self):
        dfg = classifier_dfg()
        state = dfg.make_state()
        # 16 MACs: s.n with all ones = 16, reset -> sigmoid(16)
        packed_ones = 0x0001000100010001
        out = dfg.execute(
            {"S": [packed_ones] * 4, "N": [packed_ones] * 4, "R": [1]}, state
        )
        assert out["C"] == [fixed_point_sigmoid(16)]

    def test_reference_matches_manual(self):
        assert reference_classifier([[2, 3]], [4, 5]) == [
            fixed_point_sigmoid(23)
        ]

    def test_small_layer_end_to_end(self):
        layer = ClassifierLayer("tiny", ni=32, nn=4)
        result = run_and_verify(build_classifier(layer))
        assert result.stats.instances_fired == 4 * 2  # nn * ni/16

    def test_unit_partitioning(self):
        layer = ClassifierLayer("split", ni=32, nn=8)
        for unit in range(2):
            run_and_verify(build_classifier(layer, unit_id=unit, num_units=2))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            build_classifier(ClassifierLayer("odd", ni=20, nn=4))
        with pytest.raises(ValueError):
            build_classifier(
                ClassifierLayer("odd2", ni=32, nn=5), num_units=2
            )


class TestConv:
    def test_small_conv_end_to_end(self):
        layer = ConvLayer("tiny", out_w=8, out_h=4, n_in=2, k=3, n_out=2)
        result = run_and_verify(build_conv(layer))
        assert result.stats.instances_fired > 0

    def test_conv_5x5_kernel(self):
        layer = ConvLayer("k5", out_w=4, out_h=2, n_in=2, k=5, n_out=1)
        run_and_verify(build_conv(layer))

    def test_conv_unit_partitioning(self):
        layer = ConvLayer("split", out_w=8, out_h=4, n_in=2, k=3, n_out=2)
        for unit in range(2):
            run_and_verify(build_conv(layer, unit_id=unit, num_units=2))

    @pytest.mark.parametrize("k", [3, 5])
    def test_reference_is_the_plain_loop(self, k):
        # Wide data wraps past 16 bits, both ways.
        layer = ConvLayer("ref", out_w=4, out_h=3, n_in=2, k=k, n_out=3)
        rng = random.Random(k)
        inputs = [[[rng.randint(-3000, 3000) for _ in range(layer.in_w)]
                   for _ in range(layer.in_h)] for _ in range(layer.n_in)]
        weights = [[[[rng.randint(-300, 300) for _ in range(k)]
                     for _ in range(k)] for _ in range(layer.n_in)]
                   for _ in range(layer.n_out)]
        expected = [[[0] * layer.out_w for _ in range(layer.out_h)]
                    for _ in range(layer.n_out)]
        for o, y, x in itertools.product(range(layer.n_out),
                                         range(layer.out_h),
                                         range(layer.out_w)):
            total = sum(weights[o][i][ky][kx] * inputs[i][y + ky][x + kx]
                        for i in range(layer.n_in) for ky in range(k)
                        for kx in range(k)) & 0xFFFF
            expected[o][y][x] = total - 0x10000 if total >= 0x8000 else total
        assert reference_conv(layer, inputs, weights) == expected

    def test_scratch_capacity_checked(self):
        huge = ConvLayer("huge", out_w=64, out_h=64, n_in=8, k=3, n_out=2)
        with pytest.raises(ValueError, match="scratchpad"):
            build_conv(huge)


class TestPool:
    def test_avg_pool_end_to_end(self):
        layer = PoolLayer("tinyavg", in_w=16, in_h=8, maps=2, window=2)
        run_and_verify(build_pool(layer))

    def test_max_pool_end_to_end(self):
        layer = PoolLayer("tinymax", in_w=16, in_h=8, maps=2, window=2,
                          mode="max")
        run_and_verify(build_pool(layer))

    def test_4x4_two_pass(self):
        layer = PoolLayer("two", in_w=16, in_h=16, maps=1, window=4)
        built = build_pool(layer)
        assert built.meta["passes"] == 2
        run_and_verify(built)

    def test_negative_data_avg_rounding(self):
        # avg uses arithmetic shift: floor division semantics on negatives
        from repro.workloads.dnn.pooling import reference_pool2

        rows = [[-1, -1], [-1, -1]]
        assert reference_pool2(rows, "avg") == [[-1]]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            PoolLayer("bad", in_w=8, in_h=8, maps=1, window=3)


class TestLayerSet:
    def test_figure11_set_complete(self):
        names = [l.name for l in DNN_LAYERS]
        assert names == [
            "class1p", "class3p", "pool1p", "pool3p", "pool5p",
            "conv1p", "conv2p", "conv3p", "conv4p", "conv5p",
        ]

    def test_build_by_name(self):
        built = build_dnn_layer("pool1p", unit_id=0, num_units=8)
        assert built.name == "pool1p"

    def test_cost_models_positive(self):
        from repro.workloads.dnn import gpu_workload, layer_cost

        for layer in DNN_LAYERS:
            cost = layer_cost(layer)
            assert cost.unique_bytes > 0
            gpu = gpu_workload(layer)
            assert gpu.kind in ("classifier", "conv", "pool")
            census = layer.cpu_census()
            assert census.total_instructions > 0

    def test_pool_refetch_factor(self):
        from repro.workloads.dnn import layer_cost
        from repro.workloads.dnn.layers import DNN_LAYERS_BY_NAME

        assert layer_cost(DNN_LAYERS_BY_NAME["pool1p"]).refetch_factor > 1.0
        assert layer_cost(DNN_LAYERS_BY_NAME["conv1p"]).refetch_factor == 1.0

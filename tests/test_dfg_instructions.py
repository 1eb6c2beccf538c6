"""Unit tests for functional-unit operation semantics."""

import itertools
import random

import pytest

from repro.core.dfg.instructions import (
    ACCUMULATOR_OPS,
    SUBWORD_WIDTHS,
    Operation,
    accumulate_combine,
    accumulator_identity,
    all_operations,
    fixed_point_sigmoid,
    from_signed,
    get_operation,
    join_lanes,
    mask_word,
    split_lanes,
    to_signed,
)


class TestWordHelpers:
    def test_mask_word_wraps(self):
        assert mask_word(2**64) == 0
        assert mask_word(2**64 + 5) == 5
        assert mask_word(-1) == 2**64 - 1

    def test_to_signed_positive(self):
        assert to_signed(5, 16) == 5

    def test_to_signed_negative(self):
        assert to_signed(0xFFFF, 16) == -1
        assert to_signed(0x8000, 16) == -(2**15)

    def test_from_signed_round_trip(self):
        for value in (-5, 0, 7, -(2**15), 2**15 - 1):
            assert to_signed(from_signed(value, 16), 16) == value

    def test_split_join_lanes_inverse(self):
        word = 0x0123_4567_89AB_CDEF
        for bits in (16, 32, 64):
            assert join_lanes(split_lanes(word, bits), bits) == word

    def test_split_lanes_order_low_first(self):
        word = 0x0004_0003_0002_0001
        assert split_lanes(word, 16) == [1, 2, 3, 4]


class TestRegistry:
    def test_get_operation_known(self):
        assert get_operation("add").name == "add"

    def test_get_operation_case_insensitive(self):
        assert get_operation("Mul").name == "mul"

    def test_get_operation_unknown_lists_known(self):
        with pytest.raises(KeyError, match="add"):
            get_operation("frobnicate")

    def test_all_operations_sorted_unique(self):
        names = [op.name for op in all_operations()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_expected_ops_present(self):
        names = {op.name for op in all_operations()}
        expected = {
            "add", "sub", "mul", "div", "min", "max", "select", "pass",
            "acc", "accmin", "accmax", "hadd", "sigmoid", "eq", "shl",
        }
        assert expected <= names


class TestArithmetic:
    def test_add_simple(self):
        assert get_operation("add").evaluate([3, 4]) == 7

    def test_add_wraps_at_64(self):
        assert get_operation("add").evaluate([2**64 - 1, 1]) == 0

    def test_sub_negative_result_encoding(self):
        assert get_operation("sub").evaluate([3, 5]) == mask_word(-2)

    def test_mul_signed(self):
        result = get_operation("mul").evaluate([mask_word(-3), 4])
        assert to_signed(result, 64) == -12

    def test_div_truncates_toward_zero(self):
        div = get_operation("div")
        assert to_signed(div.evaluate([7, 2]), 64) == 3
        assert to_signed(div.evaluate([mask_word(-7), 2]), 64) == -3

    def test_div_by_zero_yields_all_ones(self):
        assert get_operation("div").evaluate([5, 0]) == mask_word(-1)

    def test_mod_sign_follows_dividend(self):
        mod = get_operation("mod")
        assert to_signed(mod.evaluate([7, 3]), 64) == 1
        assert to_signed(mod.evaluate([mask_word(-7), 3]), 64) == -1

    def test_min_max(self):
        assert to_signed(get_operation("min").evaluate([mask_word(-2), 5]), 64) == -2
        assert get_operation("max").evaluate([mask_word(-2), 5]) == 5

    def test_abs_neg(self):
        assert get_operation("abs").evaluate([mask_word(-9)]) == 9
        assert to_signed(get_operation("neg").evaluate([9]), 64) == -9

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="expects 2"):
            get_operation("add").evaluate([1])


class TestSubword:
    def test_add_16bit_lanes_independent(self):
        a = join_lanes([1, 2, 3, 4], 16)
        b = join_lanes([10, 20, 30, 40], 16)
        result = get_operation("add").evaluate([a, b], 16)
        assert split_lanes(result, 16) == [11, 22, 33, 44]

    def test_add_16bit_no_carry_across_lanes(self):
        a = join_lanes([0xFFFF, 0], 16)  # lane 0 = -1
        b = join_lanes([1, 0], 16)
        result = get_operation("add").evaluate([a, b], 16)
        assert split_lanes(result, 16)[0] == 0
        assert split_lanes(result, 16)[1] == 0  # no carry into lane 1

    def test_mul_16bit_lanes(self):
        a = join_lanes([from_signed(-3, 16), 5, 0, 1], 16)
        b = join_lanes([7, 7, 7, 7], 16)
        lanes = split_lanes(get_operation("mul").evaluate([a, b], 16), 16)
        assert [to_signed(v, 16) for v in lanes] == [-21, 35, 0, 7]

    def test_32bit_lanes(self):
        a = join_lanes([100, from_signed(-100, 32)], 32)
        b = join_lanes([3, 3], 32)
        lanes = split_lanes(get_operation("mul").evaluate([a, b], 32), 32)
        assert [to_signed(v, 32) for v in lanes] == [300, -300]

    def test_bad_lane_width_rejected(self):
        with pytest.raises(ValueError, match="lane width"):
            get_operation("add").evaluate([1, 2], 8)


class TestHorizontalReductions:
    def test_hadd_sums_lanes(self):
        word = join_lanes([1, 2, 3, 4], 16)
        assert get_operation("hadd").evaluate([word], 16) == 10

    def test_hadd_signed_lanes(self):
        word = join_lanes([from_signed(-5, 16), 3, 0, 0], 16)
        assert to_signed(get_operation("hadd").evaluate([word], 16), 64) == -2

    def test_hmin_hmax(self):
        word = join_lanes([from_signed(-5, 16), 3, 100, 0], 16)
        assert to_signed(get_operation("hmin").evaluate([word], 16), 64) == -5
        assert get_operation("hmax").evaluate([word], 16) == 100

    def test_hadd_32(self):
        word = join_lanes([7, from_signed(-3, 32)], 32)
        assert get_operation("hadd").evaluate([word], 32) == 4


class TestComparesAndSelect:
    def test_compares_produce_flags(self):
        assert get_operation("lt").evaluate([mask_word(-1), 0]) == 1
        assert get_operation("gt").evaluate([mask_word(-1), 0]) == 0
        assert get_operation("eq").evaluate([5, 5]) == 1
        assert get_operation("ne").evaluate([5, 5]) == 0
        assert get_operation("ge").evaluate([5, 5]) == 1
        assert get_operation("le").evaluate([6, 5]) == 0

    def test_select_by_predicate(self):
        select = get_operation("select")
        assert select.evaluate([1, 11, 22]) == 11
        assert select.evaluate([0, 11, 22]) == 22

    def test_shifts(self):
        assert get_operation("shl").evaluate([1, 4]) == 16
        assert get_operation("shr").evaluate([16, 4]) == 1
        # arithmetic right shift on negatives
        assert to_signed(get_operation("shr").evaluate([mask_word(-8), 1]), 64) == -4


class TestSigmoid:
    def test_sigmoid_midpoint(self):
        assert fixed_point_sigmoid(0) == 128  # 0.5 in Q8

    def test_sigmoid_saturates(self):
        assert fixed_point_sigmoid(10_000) == 256
        assert fixed_point_sigmoid(-10_000) == 0

    def test_sigmoid_monotone(self):
        values = [fixed_point_sigmoid(x) for x in range(-600, 600, 7)]
        assert values == sorted(values)


class TestAccumulators:
    def test_identity_acc_is_zero(self):
        assert accumulator_identity("acc", 64) == 0

    def test_identity_accmin_is_lane_max(self):
        word = accumulator_identity("accmin", 16)
        assert split_lanes(word, 16) == [0x7FFF] * 4

    def test_identity_accmax_is_lane_min(self):
        word = accumulator_identity("accmax", 16)
        assert all(to_signed(v, 16) == -(2**15) for v in split_lanes(word, 16))

    def test_identity_unknown_rejected(self):
        with pytest.raises(KeyError):
            accumulator_identity("add", 64)

    def test_combine_acc_adds(self):
        assert accumulate_combine("acc", 10, 5, 64) == 15

    def test_combine_accmin(self):
        result = accumulate_combine("accmin", mask_word(-1), 5, 64)
        assert to_signed(result, 64) == -1

    def test_combine_lanewise_16(self):
        state = join_lanes([1, 1, 1, 1], 16)
        value = join_lanes([10, 20, 30, 40], 16)
        result = accumulate_combine("acc", state, value, 16)
        assert split_lanes(result, 16) == [11, 21, 31, 41]

    def test_all_accumulator_ops_registered(self):
        for name in ACCUMULATOR_OPS:
            assert get_operation(name).name == name


def reference_evaluate(op: Operation, operands, lane_bits: int) -> int:
    """The lane loop at every width: split each operand into lanes, sign
    each lane, apply the op and re-encode its result at the lane width,
    then join the lanes.  ``Operation.evaluate`` takes a shorter route at
    64-bit lanes; this is the route it must agree with."""
    if op.whole_word:
        return mask_word(op.lane_fn(*(mask_word(w) for w in operands),
                                    lane_bits))
    per_operand_lanes = [split_lanes(mask_word(w), lane_bits)
                         for w in operands]
    out_lanes = []
    for lane_values in zip(*per_operand_lanes):
        signed = [to_signed(v, lane_bits) for v in lane_values]
        out_lanes.append(from_signed(op.lane_fn(*signed), lane_bits))
    return join_lanes(out_lanes, lane_bits)


def _edge_words(lane_bits: int):
    """Words whose every lane sits at a sign or wrap boundary, plus words
    outside 0..2**64 that evaluation must mask first."""
    lanes = (0, 1, 2, (1 << (lane_bits - 1)) - 1, 1 << (lane_bits - 1),
             (1 << lane_bits) - 1)
    words = [join_lanes([lane] * (64 // lane_bits), lane_bits)
             for lane in lanes]
    words += [0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0001, 63, 64, -1,
              2**64 + 5]
    return words


def _operand_cases(lane_bits: int, arity: int):
    """Every pair (or single) of edge words, then 200 random tuples."""
    rng = random.Random(f"evaluate:{lane_bits}:{arity}")
    edges = _edge_words(lane_bits)
    if arity <= 2:
        cases = list(itertools.product(edges, repeat=arity))
    else:
        cases = [tuple(rng.choice(edges) for _ in range(arity))
                 for _ in range(200)]
    cases += [tuple(rng.getrandbits(64) for _ in range(arity))
              for _ in range(200)]
    return cases


class TestEvaluateExactness:
    """``Operation.evaluate`` and ``accumulate_combine`` equal the lane
    loop for every registered op at every lane width, on edge words and
    random words."""

    @pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
    @pytest.mark.parametrize("op", all_operations(), ids=lambda op: op.name)
    def test_evaluate_matches_lane_loop(self, op, lane_bits):
        mismatches = []
        for words in _operand_cases(lane_bits, op.arity):
            got = op.evaluate(list(words), lane_bits)
            want = reference_evaluate(op, words, lane_bits)
            if got != want:
                mismatches.append((words, got, want))
        assert not mismatches, mismatches[:4]

    @pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
    @pytest.mark.parametrize("name", sorted(ACCUMULATOR_OPS))
    def test_accumulate_combine_matches_lane_loop(self, name, lane_bits):
        combine = get_operation(ACCUMULATOR_OPS[name])
        mismatches = []
        for state, value in _operand_cases(lane_bits, 2):
            got = accumulate_combine(name, state, value, lane_bits)
            want = reference_evaluate(combine, (state, value), lane_bits)
            if got != want:
                mismatches.append((state, value, got, want))
        assert not mismatches, mismatches[:4]

"""Unit tests for affine/indirect access patterns and AGU coalescing."""

import random
from collections import deque

import pytest

from repro.core.isa.patterns import (
    Affine2D,
    LINE_BYTES,
    MAX_REQUEST_ELEMENTS,
    PatternError,
    affine_requests,
    coalesce_indirect,
)


def is_contiguous(addrs, elem_bytes):
    """Each element starts where the previous one ends."""
    return addrs == tuple(range(addrs[0], addrs[0] + len(addrs) * elem_bytes,
                                elem_bytes))


class TestAffine2D:
    def test_linear_helper(self):
        p = Affine2D.linear(0x100, 64)
        assert p.total_bytes == 64
        assert p.num_elements == 8
        assert p.classify() == "linear"

    def test_equal_patterns_hash_equal(self):
        # The simulator memoises line requests by pattern.
        a = Affine2D(64, 16, 32, 4, 2, True)
        b = Affine2D(64, 16, 32, 4, 2, True)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((64, 16, 32, 4, 2, True))
        assert a != Affine2D(64, 16, 32, 4, 2, False)
        assert len({a, b, Affine2D.linear(64, 16)}) == 2

    def test_total_bytes_and_elements(self):
        p = Affine2D(0, access_size=16, stride=32, num_strides=4)
        assert p.total_bytes == 64
        assert p.num_elements == 8

    def test_extent(self):
        p = Affine2D(100, access_size=16, stride=32, num_strides=4)
        assert p.extent == 100 + 3 * 32 + 16

    def test_element_addresses_strided(self):
        p = Affine2D(0, access_size=8, stride=32, num_strides=3)
        assert list(p.element_addresses()) == [0, 32, 64]

    def test_element_addresses_2d(self):
        p = Affine2D(0, access_size=16, stride=32, num_strides=2, elem_bytes=8)
        assert list(p.element_addresses()) == [0, 8, 32, 40]

    def test_element_addresses_narrow(self):
        p = Affine2D(0, access_size=4, stride=10, num_strides=2, elem_bytes=2)
        assert list(p.element_addresses()) == [0, 2, 10, 12]

    def test_classify_families(self):
        assert Affine2D(0, 8, 8, 4).classify() == "linear"
        assert Affine2D(0, 8, 32, 4).classify() == "strided"
        assert Affine2D(0, 32, 8, 4).classify() == "overlapped"
        assert Affine2D(0, 8, 0, 4).classify() == "repeating"

    def test_single_stride_is_linear(self):
        assert Affine2D(0, 8, 999, 1).classify() == "linear"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=0, access_size=0, stride=8, num_strides=1),
            dict(start=0, access_size=8, stride=8, num_strides=0),
            dict(start=0, access_size=8, stride=-8, num_strides=1),
            dict(start=-1, access_size=8, stride=8, num_strides=1),
            dict(start=0, access_size=8, stride=8, num_strides=1, elem_bytes=3),
            dict(start=0, access_size=6, stride=8, num_strides=1, elem_bytes=4),
        ],
    )
    def test_invalid_patterns_rejected(self, kwargs):
        with pytest.raises(PatternError):
            Affine2D(**kwargs)


class TestLineRequests:
    def test_linear_one_request_per_line(self):
        p = Affine2D.linear(0, 128)  # 16 words over 2 lines
        requests = list(affine_requests(p))
        assert len(requests) == 2
        assert requests[0].line_addr == 0
        assert requests[1].line_addr == 64
        assert requests[0].num_elements == 8

    def test_unaligned_start_splits(self):
        p = Affine2D.linear(32, 64)  # straddles one line boundary
        requests = list(affine_requests(p))
        assert [r.line_addr for r in requests] == [0, 64]
        assert [r.num_elements for r in requests] == [4, 4]

    def test_strided_one_request_per_access(self):
        p = Affine2D(0, access_size=8, stride=256, num_strides=4)
        requests = list(affine_requests(p))
        assert len(requests) == 4
        assert [r.line_addr for r in requests] == [0, 256, 512, 768]

    def test_small_stride_coalesces_within_line(self):
        # 2-byte elements every 4 bytes: 16 fit in one line
        p = Affine2D(0, access_size=2, stride=4, num_strides=16, elem_bytes=2)
        requests = list(affine_requests(p))
        assert len(requests) == 1
        assert requests[0].num_elements == 16

    def test_stream_order_preserved(self):
        p = Affine2D(0, access_size=16, stride=8, num_strides=3)  # overlapped
        addrs = [a for r in affine_requests(p) for a in r.element_addrs]
        assert addrs == list(p.element_addresses())

    def test_repeating_pattern_refetches(self):
        p = Affine2D(0, access_size=8, stride=0, num_strides=3)
        requests = list(affine_requests(p))
        # same word three times, coalesced into one request per line visit
        total = sum(r.num_elements for r in requests)
        assert total == 3

    def test_bytes_used(self):
        p = Affine2D.linear(0, 64, elem_bytes=2)
        (request,) = list(affine_requests(p))
        assert request.bytes_used == 64

    def test_max_elements_cap(self):
        p = Affine2D(0, access_size=2, stride=0, num_strides=100, elem_bytes=2)
        requests = affine_requests(p)
        assert [r.num_elements for r in requests] == [32, 32, 32, 4]
        assert all(r.element_addrs == (0,) * r.num_elements for r in requests)

    def test_contiguous_flag(self):
        linear, = affine_requests(Affine2D.linear(0, 64))
        assert linear.contiguous
        repeating, = affine_requests(Affine2D(0, 8, 0, 3))
        assert repeating.element_addrs == (0, 0, 0)
        assert not repeating.contiguous
        # two accesses that meet in one line: back to back, then not
        joined, = affine_requests(Affine2D(0, 16, 16, 2))
        assert joined.contiguous
        gapped, = affine_requests(Affine2D(0, 16, 24, 2))
        assert not gapped.contiguous
        overlapped, = affine_requests(Affine2D(0, 16, 8, 2))
        assert overlapped.element_addrs == (0, 8, 8, 16)
        assert not overlapped.contiguous


def random_pattern(rng):
    """A random :class:`Affine2D`: unaligned starts, linear, strided,
    overlapped and stride-0 patterns, elements that straddle a line, and
    1-byte elements long enough to reach the 32-element cap."""
    elem_bytes = rng.choice((1, 2, 4, 8))
    access_size = elem_bytes * rng.randint(1, 48)
    stride = rng.choice((0, access_size, rng.randint(0, 3 * LINE_BYTES),
                         elem_bytes * rng.randint(0, 12),
                         access_size + rng.randint(1, 9)))
    return Affine2D(rng.randint(0, 4 * LINE_BYTES), access_size, stride,
                    rng.randint(1, 12), elem_bytes, rng.random() < 0.5)


def assert_minimal_requests(pattern):
    """The requests of ``pattern`` hold its elements in stream order, each
    in the line its first byte is in; a request closes only when the next
    element starts in another line or the request is full; and each
    ``contiguous`` flag matches its definition."""
    requests = affine_requests(pattern)
    assert [a for r in requests for a in r.element_addrs] == list(
        pattern.element_addresses())
    for request, following in zip(requests, requests[1:] + (None,)):
        assert request.elem_bytes == pattern.elem_bytes
        assert 1 <= request.num_elements <= MAX_REQUEST_ELEMENTS
        assert request.line_addr % LINE_BYTES == 0
        assert all(a - a % LINE_BYTES == request.line_addr
                   for a in request.element_addrs)
        assert request.contiguous == is_contiguous(request.element_addrs,
                                                   request.elem_bytes)
        if following is not None:
            assert (following.line_addr != request.line_addr
                    or request.num_elements == MAX_REQUEST_ELEMENTS)


class TestRequestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_patterns(self, seed):
        rng = random.Random(f"agu:{seed}")
        for _ in range(500):
            assert_minimal_requests(random_pattern(rng))

    @pytest.mark.parametrize("pattern", [
        Affine2D(3, 40, 40, 1, 1),           # unaligned 1-byte run
        Affine2D(0, 64, 64, 2, 1),           # 1-byte: the cap splits a line
        Affine2D(0, 1, 0, 70, 1),            # stride 0 past the cap
        Affine2D(60, 16, 16, 3, 8),          # 8-byte elements at 60, 68, ...
        Affine2D(4, 8, 61, 9, 4),            # odd stride, 4-byte elements
        Affine2D(56, 24, 8, 5, 8),           # overlapped across lines
        Affine2D(62, 4, 64, 4, 2),           # each access straddles a line
    ], ids=["unaligned", "cap_1_byte", "stride_0", "straddle_8",
            "odd_stride", "overlapped", "straddle_2"])
    def test_edge_patterns(self, pattern):
        assert_minimal_requests(pattern)


def indirect_batches(addrs):
    """Drive the indirect AGU over ``addrs`` as the engines do: one
    request of up to four elements per call."""
    indices = deque(addrs)
    batches = []
    while indices:
        batch, line = coalesce_indirect(indices, 0, 1, min(4, len(indices)))
        assert line == batch[0] // LINE_BYTES * LINE_BYTES
        batches.append(batch)
        for _ in batch:
            indices.popleft()
    return batches


@pytest.mark.parametrize("addrs,batches", [
    ([0, 8, 16, 24, 32], [[0, 8, 16, 24], [32]]),
    ([0, 64], [[0], [64]]),
    ([16, 8], [[16], [8]]),
    ([8, 8, 8], [[8, 8, 8]]),
    ([], []),
    ([0, 200, 100, 104], [[0], [200], [100, 104]]),
], ids=[
    "coalesces_up_to_four_in_line",
    "does_not_coalesce_across_lines",
    "does_not_coalesce_decreasing",
    "duplicate_addresses_coalesce",
    "empty",
    "scattered_addresses",
])
def test_indirect_agu(addrs, batches):
    assert indirect_batches(addrs) == batches


"""Unit tests for the memory substrate and scratchpad.

:func:`read_extended` here is the per-element read that the one-call
``read_elements`` of both memories is checked against.
"""

import random
import re

import pytest

from repro.sim.memory import BackingStore, MemoryParams, MemorySystem
from repro.sim.scratchpad import Scratchpad, ScratchpadError
from repro.trace import ListSink


def read_extended(memory, addr, size, signed):
    """Reference read of one narrow element of a :class:`BackingStore` or
    :class:`Scratchpad` as a raw 64-bit word (zero- or sign-extended)."""
    value = int.from_bytes(memory.read(addr, size), "little", signed=signed)
    return value & 0xFFFF_FFFF_FFFF_FFFF


def runs(size, limit):
    """Element address lists that start anywhere below ``limit``: runs of
    back-to-back elements (the ``contiguous`` case), and lists that are
    not, among them an indirect gather of indices 0, 0, 1, 3 whose first
    and last addresses are as far apart as a 4-element run's."""
    rng = random.Random(f"runs:{size}:{limit}")
    out = [(0, 0 + size, 0 + 2 * size), (0, 0, size, 3 * size)]
    for _ in range(60):
        start = rng.randrange(limit)
        count = rng.randint(1, 32)
        out.append(tuple(range(start, start + count * size, size)))
        out.append(tuple(start + size * rng.choice((0, 1, 1, 2))
                         * index for index in range(count)))
    return out


def is_run(addrs, size):
    return addrs == tuple(range(addrs[0], addrs[0] + len(addrs) * size,
                                size))


#: name -> (size, signed, element addresses) of a strided line request
#: (not a run), inside page 0, which is also the whole scratchpad
NAMED_READS = {
    "stride_2": (8, False, tuple(range(64, 64 + 8 * 16, 16))),
    "signed_4_byte": (4, True, (8, 20, 24, 40, 44)),
    "stride_0": (8, False, (128,) * 4),
    "overlapped": (4, False, (256, 258, 260)),
    # the last element ends at the end of the page (and the scratchpad)
    "page_end": (8, False, tuple(range(4096 - 8 - 3 * 16, 4096, 16))),
}


class TestBackingStore:
    def test_read_write_round_trip(self):
        store = BackingStore()
        store.write(0x1234, b"hello world")
        assert store.read(0x1234, 11) == b"hello world"

    def test_uninitialised_reads_zero(self):
        assert BackingStore().read(0x9999, 4) == b"\x00" * 4

    def test_cross_page_access(self):
        store = BackingStore()
        addr = 4096 - 3
        store.write(addr, b"abcdef")
        assert store.read(addr, 6) == b"abcdef"

    def test_word_round_trip(self):
        store = BackingStore()
        store.write_word(0x100, -5, 8)
        assert store.read_word(0x100, 8, signed=True) == -5
        assert store.read_word(0x100, 8) == (1 << 64) - 5

    def test_narrow_word(self):
        store = BackingStore()
        store.write_word(0x10, -1, 2)
        assert store.read_word(0x10, 2, signed=True) == -1
        assert store.read_word(0x10, 2) == 0xFFFF

    def test_read_extended_sign(self):
        store = BackingStore()
        store.write_word(0, -2, 2)
        assert read_extended(store, 0, 2, signed=True) == (1 << 64) - 2
        assert read_extended(store, 0, 2, signed=False) == 0xFFFE

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_read_elements_matches_read_extended(self, size, signed):
        def filled():
            store = BackingStore()
            for page in (0, 1):
                store.write(page * 4096, bytes(
                    (i * 37 + 0x80 * (i % 2)) & 0xFF for i in range(4096)))
            return store

        # in-page elements, negative and positive lanes, an element
        # straddling the page-0/page-1 boundary, and an untouched page
        addrs = [0, 1, 8, 4096 - size, 4096 - size + 1, 4096 + 5,
                 5 * 4096 + 16]
        batched, single = filled(), filled()
        got = batched.read_elements(addrs, size, signed)
        want = [read_extended(single, a, size, signed) for a in addrs]
        assert got == want
        if signed and size < 8:
            assert any(w >> 63 for w in want)  # sign extension exercised
        # the same pages are materialised either way
        assert batched.snapshot_pages() == single.snapshot_pages()

    def test_read_elements_sign_extends_straddling_element(self):
        store = BackingStore()
        store.write_word(4096 - 2, -3, 4)  # two bytes on each page
        assert store.read_elements([4096 - 2], 4, True) == [(1 << 64) - 3]
        assert store.read_elements([4096 - 2], 4, False) == [0xFFFF_FFFD]

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_one_call_reads_match_per_element(self, size, signed):
        def filled():
            store = BackingStore()
            for page in (0, 1):
                store.write(page * 4096, bytes(
                    (i * 91 + 0x80 * (i % 3)) & 0xFF for i in range(4096)))
            return store

        # runs inside a page, runs that cross into the next page or into
        # an untouched one, and address lists that are not runs
        for addrs in runs(size, 3 * 4096):
            batched, single = filled(), filled()
            got = batched.read_elements(addrs, size, signed,
                                        is_run(addrs, size))
            want = [read_extended(single, a, size, signed) for a in addrs]
            assert got == want, addrs
            assert batched.snapshot_pages() == single.snapshot_pages()

    @pytest.mark.parametrize("name", sorted(NAMED_READS))
    def test_one_call_reads_named_cases(self, name):
        size, signed, addrs = NAMED_READS[name]
        store = BackingStore()
        store.write(0, bytes((i * 91 + 0x80 * (i % 3)) & 0xFF
                             for i in range(4096)))
        want = [read_extended(store, a, size, signed) for a in addrs]
        if signed:
            assert any(w >> 63 for w in want)  # sign extension exercised
        assert store.read_elements(addrs, size, signed) == want

    def test_sparse_pages_far_apart(self):
        store = BackingStore()
        store.write_word(0, 1)
        store.write_word(1 << 40, 2)
        assert store.read_word(0) == 1
        assert store.read_word(1 << 40) == 2


class TestMemoryTiming:
    def test_cold_miss_pays_dram_latency(self):
        memory = MemorySystem(MemoryParams(l2_hit_latency=10, dram_latency=90))
        ready = memory.issue(0, 0, False, 64)
        assert ready == 90

    def test_hit_after_fill(self):
        memory = MemorySystem(MemoryParams(l2_hit_latency=10, dram_latency=90))
        memory.issue(0, 0, False, 64)
        assert memory.issue(1, 0, False, 64) == 1 + 10
        assert memory.stats.hits == 1
        assert memory.stats.misses == 1

    def test_warm_makes_hits(self):
        memory = MemorySystem()
        memory.warm(0, 256)
        ready = memory.issue(0, 64, False, 64)
        assert ready == memory.params.l2_hit_latency

    def test_dram_bandwidth_serialises_misses(self):
        params = MemoryParams(dram_latency=90, dram_gap_cycles=4)
        memory = MemorySystem(params)
        first = memory.issue(0, 0, False, 64)
        second = memory.issue(1, 64, False, 64)
        assert second == first + 4

    def test_accepts_per_cycle_enforced(self):
        memory = MemorySystem()
        assert memory.can_accept(5)
        memory.issue(5, 0, False, 64)
        assert not memory.can_accept(5)
        assert memory.can_accept(6)
        with pytest.raises(RuntimeError):
            memory.issue(5, 64, False, 64)

    def test_lru_eviction(self):
        params = MemoryParams(l2_size_bytes=2 * 64)  # two lines
        memory = MemorySystem(params)
        memory.issue(0, 0, False, 64)
        memory.issue(1, 64, False, 64)
        memory.issue(2, 128, False, 64)  # evicts line 0
        memory.issue(3, 0, False, 64)
        assert memory.stats.misses == 4

    def test_stats_track_traffic(self):
        memory = MemorySystem()
        memory.issue(0, 0, False, 48)
        memory.issue(1, 64, True, 16)
        assert memory.stats.bytes_read == 48
        assert memory.stats.bytes_written == 16
        assert memory.stats.requests == 2


class TestScratchpad:
    def test_round_trip(self):
        scratch = Scratchpad()
        scratch.write(100, b"data!")
        assert scratch.read(100, 5) == b"data!"

    def test_bounds_checked(self):
        scratch = Scratchpad()
        with pytest.raises(ScratchpadError):
            scratch.read(4090, 10)
        with pytest.raises(ScratchpadError):
            scratch.write(-1, b"x")

    def test_stats(self):
        scratch = Scratchpad()
        scratch.write(0, b"12345678")
        scratch.read(0, 8)
        assert scratch.stats.writes == 1
        assert scratch.stats.reads == 1
        assert scratch.stats.bytes_read == 8

    def test_read_elements_matches_read_extended(self):
        from repro.trace import ListSink

        def filled():
            scratch = Scratchpad()
            scratch.write(0, bytes((i * 53) & 0xFF for i in range(4096)))
            sink = ListSink()
            scratch.attach_trace(sink, 0, lambda: 7)
            return scratch, sink

        addrs = [0, 6, 64, 4094]
        batched, batched_sink = filled()
        single, single_sink = filled()
        for signed in (False, True):
            assert batched.read_elements(addrs, 2, signed) == [
                read_extended(single, a, 2, signed) for a in addrs]
        assert vars(batched.stats) == vars(single.stats)
        assert batched_sink.events == single_sink.events
        assert len(batched_sink.events) == 2 * len(addrs)
        with pytest.raises(ScratchpadError):
            batched.read_elements([4095], 2, False)

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_one_call_reads_match_per_element(self, size, signed):
        """Values, stats and trace events, also for runs that leave the
        scratchpad: the read raises at the first element outside it, with
        the elements before it counted, exactly as per-element reads do."""
        def filled():
            scratch = Scratchpad()
            scratch.write(0, bytes((i * 29 + 0x80 * (i % 2)) & 0xFF
                                   for i in range(4096)))
            sink = ListSink()
            scratch.attach_trace(sink, 0, lambda: 3)
            return scratch, sink

        for addrs in runs(size, 4096 + 4 * size):
            batched, batched_sink = filled()
            single, single_sink = filled()
            try:
                want = [read_extended(single, a, size, signed) for a in addrs]
            except ScratchpadError as exc:
                with pytest.raises(ScratchpadError, match=re.escape(str(exc))):
                    batched.read_elements(addrs, size, signed,
                                          is_run(addrs, size))
            else:
                assert batched.read_elements(
                    addrs, size, signed, is_run(addrs, size)) == want
            assert vars(batched.stats) == vars(single.stats), addrs
            assert batched_sink.events == single_sink.events
            assert batched.snapshot() == single.snapshot()

    @pytest.mark.parametrize("name", sorted(NAMED_READS))
    def test_one_call_reads_named_cases(self, name):
        size, signed, addrs = NAMED_READS[name]

        def filled():
            scratch = Scratchpad()
            scratch.write(0, bytes((i * 29 + 0x80 * (i % 2)) & 0xFF
                                   for i in range(4096)))
            sink = ListSink()
            scratch.attach_trace(sink, 0, lambda: 3)
            return scratch, sink

        batched, batched_sink = filled()
        single, single_sink = filled()
        want = [read_extended(single, a, size, signed) for a in addrs]
        assert batched.read_elements(addrs, size, signed) == want
        assert vars(batched.stats) == vars(single.stats)
        assert batched_sink.events == single_sink.events

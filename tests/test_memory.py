"""Cache hierarchy, DRAM, prefetcher, TLB."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (Cache, DRAMModel, HierarchyConfig, MemoryHierarchy,
                          StreamPrefetcher, TLB)


class TestCache:
    def test_cold_miss_then_hit(self):
        c = Cache("L1", 1024, 2, hit_latency=4)
        assert not c.lookup(0x100)
        c.insert(0x100)
        assert c.lookup(0x100)
        assert c.miss_rate() == 0.5

    def test_same_line_hits(self):
        c = Cache("L1", 1024, 2, hit_latency=4, line_size=64)
        c.insert(0x100)
        assert c.lookup(0x13F)       # same 64B line
        assert not c.lookup(0x140)   # next line

    def test_lru_eviction(self):
        c = Cache("L1", 2 * 64, 2, hit_latency=1, line_size=64)  # 1 set
        c.insert(0 * 64)
        c.insert(1 * 64)
        c.lookup(0 * 64)             # 0 MRU
        victim = c.insert(2 * 64)
        assert victim == (1, False)
        assert c.contains(0)

    def test_dirty_writeback_flag(self):
        c = Cache("L1", 2 * 64, 2, hit_latency=1, line_size=64)
        c.insert(0, dirty=True)
        c.insert(64)
        victim = c.insert(128)
        assert victim == (0, True)

    def test_invalidate(self):
        c = Cache("L1", 1024, 2, hit_latency=1)
        c.insert(0x40)
        assert c.invalidate(0x40)
        assert not c.contains(0x40)
        assert not c.invalidate(0x40)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 1)

    def test_probing_untouched_sets_allocates_nothing(self):
        c = Cache("L2", 256 * 1024, 8, hit_latency=12)
        for addr in range(0, 64 * 64, 64):
            assert not c.lookup(addr)
            assert not c.lookup(addr, is_write=True)
            assert not c.contains(addr)
            assert not c.invalidate(addr)
        assert c._sets == [None] * c.num_sets
        c.insert(3 * 64)
        assert [i for i, s in enumerate(c._sets) if s is not None] == [3]


@st.composite
def _cache_ops(draw):
    """200 (op, byte address) pairs over a small pool of lines, so sets
    fill, evict and re-touch lines that are already present."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lines = draw(st.integers(1, 24))
    kinds = ("lookup", "write", "insert", "dirty", "invalidate", "contains")
    return [(rng.choice(kinds), rng.randrange(lines) * 64 + rng.randrange(64))
            for _ in range(200)]


class TestCacheMatchesReference:
    """The lazily allocated sets behave exactly like a cache whose sets
    all exist up front: per-set LRU lists of ``[line, dirty]``."""

    @settings(max_examples=80, deadline=None)
    @given(ops=_cache_ops(), sets=st.sampled_from([1, 2, 8]),
           ways=st.integers(1, 4))
    def test_lru_eviction_and_dirty_state(self, ops, sets, ways):
        c = Cache("L1", sets * ways * 64, ways, hit_latency=1)
        ref = [[] for _ in range(sets)]        # LRU first
        hits = misses = 0
        touched = set()
        for op, addr in ops:
            line = addr // 64
            lines = ref[line % sets]
            slot = next((s for s in lines if s[0] == line), None)
            if op in ("lookup", "write"):
                if slot is not None:
                    hits += 1
                    lines.remove(slot)
                    lines.append(slot)
                    slot[1] |= op == "write"
                else:
                    misses += 1
                assert c.lookup(addr, is_write=op == "write") == \
                    (slot is not None)
            elif op in ("insert", "dirty"):
                dirty = op == "dirty"
                touched.add(line % sets)
                victim = None
                if slot is not None:
                    lines.remove(slot)
                    slot[1] |= dirty
                elif len(lines) >= ways:
                    victim = tuple(lines.pop(0))
                lines.append(slot or [line, dirty])
                assert c.insert(addr, dirty=dirty) == victim
            elif op == "invalidate":
                if slot is not None:
                    lines.remove(slot)
                assert c.invalidate(addr) == (slot is not None)
            else:
                assert c.contains(addr) == (slot is not None)
            assert [[list(kv) for kv in (s or {}).items()]
                    for s in c._sets] == ref
            assert (c.accesses, c.hits, c.misses) == \
                (hits + misses, hits, misses)
            assert {i for i, s in enumerate(c._sets)
                    if s is not None} == touched


class TestDRAM:
    def test_fixed_latency_when_idle(self):
        d = DRAMModel(access_latency=100, banks=4)
        assert d.access(0, cycle=0) == 100

    def test_bank_conflicts_queue(self):
        d = DRAMModel(access_latency=100, banks=4)
        first = d.access(0, cycle=0)
        second = d.access(0, cycle=0)   # same bank, same time
        assert first == 100
        assert second == 200

    def test_different_banks_parallel(self):
        d = DRAMModel(access_latency=100, banks=16)
        latencies = {d.access(line * 64, 0) for line in range(4)}
        assert latencies == {100}

    def test_power_of_two_strides_spread(self):
        """The XOR-fold must spread page-strided accesses across banks."""
        d = DRAMModel(access_latency=100, banks=16)
        latencies = [d.access(i * 8192, 0) for i in range(8)]
        assert latencies.count(100) >= 4


class TestPrefetcher:
    def test_stream_detected_after_two_misses(self):
        p = StreamPrefetcher(streams=4, degree=2)
        assert p.on_miss(0 * 64) == []
        assert p.on_miss(1 * 64) == []          # direction learned
        prefetches = p.on_miss(2 * 64)
        assert prefetches == [3 * 64, 4 * 64]

    def test_descending_stream(self):
        p = StreamPrefetcher(streams=4, degree=1)
        p.on_miss(10 * 64)
        p.on_miss(9 * 64)
        assert p.on_miss(8 * 64) == [7 * 64]

    def test_random_misses_never_prefetch(self):
        p = StreamPrefetcher(streams=4, degree=2)
        for line in (5, 90, 17, 200, 3):
            assert p.on_miss(line * 64) == []

    def test_stream_capacity_bounded(self):
        p = StreamPrefetcher(streams=2, degree=1)
        for line in range(0, 100, 10):
            p.on_miss(line * 64)
        assert len(p._streams) <= 2


class TestTLB:
    def test_miss_then_hit(self):
        t = TLB(entries=4, walk_latency=30)
        assert t.translate(0x1000).latency == 30
        assert t.translate(0x1008).latency == 0   # same page

    def test_capacity_eviction(self):
        t = TLB(entries=2, page_size=4096)
        t.translate(0 * 4096)
        t.translate(1 * 4096)
        t.translate(2 * 4096)
        assert t.translate(0 * 4096).latency == 30  # evicted

    def test_fault_flag(self):
        t = TLB()
        result = t.translate(0x2000, fault=True)
        assert result.fault
        assert t.faults == 1


class TestHierarchy:
    def test_l1_hit_latency(self):
        h = MemoryHierarchy()
        first = h.load(0x100, 0)
        assert first > h.config.l1_latency      # cold miss
        assert h.load(0x100, first + 1) == h.config.l1_latency

    def test_miss_fills_all_levels(self):
        h = MemoryHierarchy()
        h.load(0x4000, 0)
        assert h.l1.contains(0x4000)
        assert h.l2.contains(0x4000)
        assert h.llc.contains(0x4000)

    def test_mshr_exhaustion_returns_none(self):
        config = HierarchyConfig(mshrs=2, prefetch_streams=0)
        h = MemoryHierarchy(config)
        assert h.load(0x10000, 0) is not None
        assert h.load(0x20000, 0) is not None
        assert h.load(0x30000, 0) is None
        assert h.mshr_stalls == 1

    def test_pending_fill_merges(self):
        h = MemoryHierarchy()
        first = h.load(0x8000, 0)
        merged = h.load(0x8000, 5)
        assert merged <= first

    def test_store_write_allocates_through_mshr(self):
        h = MemoryHierarchy()
        latency = h.store(0x9000, 0)
        assert latency == h.config.l1_latency   # absorbed by MSHR
        assert h.l1.contains(0x9000)

    def test_store_mshr_full_returns_none(self):
        config = HierarchyConfig(mshrs=1, prefetch_streams=0)
        h = MemoryHierarchy(config)
        h.load(0x10000, 0)
        assert h.store(0x20000, 0) is None

    def test_sequential_loads_trigger_prefetch(self):
        h = MemoryHierarchy()
        for i in range(6):
            h.load(i * 64, i * 10)
        assert h.prefetcher.issued > 0

    def test_stats_shape(self):
        h = MemoryHierarchy()
        h.load(0, 0)
        stats = h.stats()
        assert set(stats) == {"l1_miss_rate", "l2_miss_rate",
                              "llc_miss_rate", "dram_requests",
                              "mshr_stalls", "prefetches_issued"}

"""Unit tests for the cache models and hierarchy."""

import pytest

from repro.uarch import Cache, CacheConfig, MemoryHierarchy


def small_cache(size=1024, assoc=2, line=64, latency=2):
    return Cache(CacheConfig(size_bytes=size, assoc=assoc, line_bytes=line,
                             latency=latency))


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=32 * 1024, assoc=2, line_bytes=32,
                             latency=2)
        assert config.num_sets == 512

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=2, line_bytes=32, latency=1)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=96, assoc=1, line_bytes=32, latency=1)


class TestCache:
    def test_sets_are_built_on_first_touch(self):
        cache = small_cache(size=1024, assoc=2, line=64)  # 8 sets
        assert all(ways is None for ways in cache._sets)
        assert not cache.probe(0x1000)  # an untouched set is a miss
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert sum(ways is not None for ways in cache._sets) == 1
        assert cache.probe(0x1000)
        assert not cache.probe(0x1000 + 64)  # another untouched set
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_same_line_hits(self):
        cache = small_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F)  # same 64B line
        assert not cache.access(0x1040)  # next line

    def test_lru_eviction(self):
        # 2-way: three conflicting lines evict the least recent.
        cache = small_cache(size=128, assoc=2, line=64)  # 1 set
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x80)  # evicts 0x0
        assert not cache.access(0x0)

    def test_lru_refresh_on_hit(self):
        cache = small_cache(size=128, assoc=2, line=64)
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x0)  # refresh 0x0
        cache.access(0x80)  # should evict 0x40
        assert cache.access(0x0)
        assert not cache.access(0x40)

    def test_probe_does_not_fill(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        assert not cache.probe(0x1000)
        assert cache.hits == 0 and cache.misses == 0

    def test_line_address(self):
        cache = small_cache(line=64)
        assert cache.line_address(0x1234) == 0x1200

    def test_set_mapping_disjoint(self):
        cache = small_cache(size=4096, assoc=1, line=64)
        cache.access(0x0)
        cache.access(0x40)  # different set, no conflict
        assert cache.access(0x0)
        assert cache.access(0x40)


class TestHierarchy:
    def make(self):
        return MemoryHierarchy(
            il1=CacheConfig(1024, 2, 64, 1),
            dl1=CacheConfig(1024, 2, 32, 2),
            l2=CacheConfig(8192, 2, 128, 10),
            memory_latency=100)

    def test_dread_miss_costs_full_path(self):
        hierarchy = self.make()
        assert hierarchy.dread(0x5000) == 2 + 10 + 100

    def test_dread_l1_hit(self):
        hierarchy = self.make()
        hierarchy.dread(0x5000)
        assert hierarchy.dread(0x5000) == 2

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = self.make()
        hierarchy.dread(0x0)
        # Blow the (1KB) L1 while staying inside the (8KB) L2.
        for addr in range(0x1000, 0x1000 + 4096, 32):
            hierarchy.dread(addr)
        latency = hierarchy.dread(0x0)
        assert latency == 2 + 10

    def test_ifetch_separate_from_dcache(self):
        hierarchy = self.make()
        hierarchy.ifetch(0x1000)
        assert hierarchy.il1.accesses == 1
        assert hierarchy.dl1.accesses == 0

    def test_ifetch_hit_latency(self):
        hierarchy = self.make()
        hierarchy.ifetch(0x1000)
        assert hierarchy.ifetch(0x1000) == 1

    def test_write_allocates(self):
        hierarchy = self.make()
        hierarchy.dwrite(0x7000)
        assert hierarchy.dread(0x7000) == 2

    def test_l2_shared_between_i_and_d(self):
        hierarchy = self.make()
        hierarchy.ifetch(0x3000)  # fills L2 line at 0x3000
        latency = hierarchy.dread(0x3000)
        assert latency == 2 + 10  # L1D miss, L2 hit

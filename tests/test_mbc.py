"""Unit tests for the Memory Bypass Cache (RLE/SF table)."""

import pytest

from repro.core import symbolic
from repro.core.mbc import MemoryBypassCache
from repro.uarch import PhysRegFile


@pytest.fixture
def prf():
    return PhysRegFile(64)


@pytest.fixture
def mbc(prf):
    return MemoryBypassCache(capacity=4, prf=prf)


def alloc(prf):
    return prf.allocate()


class TestLookupInsert:
    def test_miss_on_empty(self, mbc):
        assert mbc.lookup(0x1000, 8) is None
        assert mbc.misses == 1

    def test_exact_match_hit(self, mbc, prf):
        preg = alloc(prf)
        mbc.insert(0x1000, 8, symbolic.plain(preg), expected_value=7)
        entry = mbc.lookup(0x1000, 8)
        assert entry is not None
        assert entry.sym == symbolic.plain(preg)
        assert entry.expected_value == 7
        assert mbc.hits == 1

    def test_size_is_part_of_tag(self, mbc, prf):
        mbc.insert(0x1000, 8, symbolic.plain(alloc(prf)), 0)
        assert mbc.lookup(0x1000, 4) is None

    def test_offset_within_block_is_part_of_tag(self, mbc, prf):
        # Paper: tag match includes offset from 8-byte alignment.
        mbc.insert(0x1000, 4, symbolic.plain(alloc(prf)), 0)
        assert mbc.lookup(0x1004, 4) is None
        assert mbc.lookup(0x1000, 4) is not None

    def test_insert_pins_base_register(self, mbc, prf):
        preg = alloc(prf)
        assert prf.refcounts[preg] == 1
        mbc.insert(0x1000, 8, symbolic.plain(preg), 0)
        assert prf.refcounts[preg] == 2

    def test_const_entry_pins_nothing(self, mbc, prf):
        before = prf.num_free
        mbc.insert(0x1000, 8, symbolic.const(5), 5)
        assert prf.num_free == before

    def test_replacement_releases_old_pin(self, mbc, prf):
        old = alloc(prf)
        new = alloc(prf)
        mbc.insert(0x1000, 8, symbolic.plain(old), 0)
        mbc.insert(0x1000, 8, symbolic.plain(new), 1)
        assert prf.refcounts[old] == 1
        assert prf.refcounts[new] == 2
        assert mbc.lookup(0x1000, 8).sym.base == new


class TestEvictionAndInvalidation:
    def test_lru_eviction_at_capacity(self, mbc, prf):
        for index in range(5):
            mbc.insert(0x1000 + index * 8, 8, symbolic.const(index), index)
        assert len(mbc) == 4
        assert mbc.lookup(0x1000, 8) is None  # oldest evicted
        assert mbc.lookup(0x1020, 8) is not None

    def test_hit_refreshes_lru(self, mbc):
        for index in range(4):
            mbc.insert(0x1000 + index * 8, 8, symbolic.const(index), index)
        mbc.lookup(0x1000, 8)  # refresh the oldest
        mbc.insert(0x2000, 8, symbolic.const(9), 9)
        assert mbc.lookup(0x1000, 8) is not None
        assert mbc.lookup(0x1008, 8) is None  # now-oldest evicted

    def test_eviction_releases_pin(self, prf):
        mbc = MemoryBypassCache(capacity=1, prf=prf)
        preg = alloc(prf)
        mbc.insert(0x1000, 8, symbolic.plain(preg), 0)
        mbc.insert(0x2000, 8, symbolic.const(0), 0)
        assert prf.refcounts[preg] == 1

    def test_invalidate_overlap_partial(self, mbc):
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        mbc.insert(0x1008, 8, symbolic.const(2), 2)
        # A 4-byte store into the first quad kills only that entry.
        dropped = mbc.invalidate_overlap(0x1002, 4)
        assert dropped == 1
        assert mbc.lookup(0x1000, 8) is None
        assert mbc.lookup(0x1008, 8) is not None

    def test_insert_invalidates_overlapping_different_tags(self, mbc):
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        mbc.insert(0x1000, 4, symbolic.const(2), 2)  # overlaps the quad
        assert mbc.lookup(0x1000, 8) is None
        assert mbc.lookup(0x1000, 4) is not None

    def test_cross_block_store_invalidates_both(self, mbc):
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        mbc.insert(0x1008, 8, symbolic.const(2), 2)
        # An unaligned 8-byte write spanning both blocks.
        dropped = mbc.invalidate_overlap(0x1004, 8)
        assert dropped == 2

    def test_invalidate_entry_exact(self, mbc):
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        mbc.invalidate_entry(0x1000, 8)
        assert mbc.lookup(0x1000, 8) is None
        assert mbc.invalidations == 1

    def test_evict_lru_api(self, mbc):
        assert not mbc.evict_lru()  # empty
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        assert mbc.evict_lru()
        assert len(mbc) == 0

    def test_clear_releases_everything(self, mbc, prf):
        pregs = [alloc(prf) for _ in range(3)]
        for index, preg in enumerate(pregs):
            mbc.insert(0x1000 + index * 8, 8, symbolic.plain(preg), 0)
        mbc.clear()
        assert len(mbc) == 0
        assert all(prf.refcounts[p] == 1 for p in pregs)


class TestStatistics:
    def test_counters(self, mbc):
        mbc.lookup(0x1000, 8)
        mbc.insert(0x1000, 8, symbolic.const(1), 1)
        mbc.lookup(0x1000, 8)
        assert mbc.misses == 1
        assert mbc.hits == 1

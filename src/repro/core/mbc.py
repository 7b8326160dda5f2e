"""The Memory Bypass Cache (MBC) for RLE and store forwarding.

Section 3.2 of the paper: a small cache (128 entries) that maps memory
locations to the symbolic representation of their current contents.

* A **store** with a rename-time address writes its data's symbolic
  value into the MBC (store forwarding).
* A **load** with a rename-time address that hits is converted into a
  move of the matching entry's symbolic value (redundant load
  elimination / store forwarding); on a miss it installs its own
  destination register so that a later load to the same address can be
  eliminated.

Tag matching is exact, as described in the paper: entries are 8-byte
aligned and the tag match includes the offset from alignment and the
access size.  Stores whose addresses are unknown at rename proceed
*speculatively* (the paper's chosen mode); when such a store executes,
overlapping entries are invalidated, and any load that was wrongly
forwarded in the window is caught by the value check and recovered.

Entries pin the physical registers named by their symbolic values via
reference counts, honouring the paper's extended-lifetime requirement.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..uarch.regfile import PhysRegFile
from .symbolic import SymVal

_BLOCK_SHIFT = 3  # 8-byte alignment


@dataclass
class MBCEntry:
    """One MBC line: symbolic contents of (addr, size).

    FP entries (``is_fp``) carry no symbolic expression beyond a plain
    physical-register reference: the integer tables cannot describe FP
    values, but a forwarded FP load still becomes a register move of
    the previous memory operation's destination/source register.
    """

    addr: int
    size: int
    sym: SymVal
    #: Oracle value of the memory location at insertion time; used for
    #: the paper's strict value checking and to detect speculative
    #: staleness (an unknown-address store slipped past this entry).
    expected_value: int | float
    is_fp: bool = False


class MemoryBypassCache:
    """Fixed-capacity, LRU, exact-tag-match bypass cache."""

    def __init__(self, capacity: int, prf: PhysRegFile):
        self._capacity = capacity
        self._prf = prf
        self._entries: OrderedDict[tuple[int, int], MBCEntry] = OrderedDict()
        self._by_block: dict[int, set[tuple[int, int]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------

    def lookup(self, addr: int, size: int) -> MBCEntry | None:
        """Exact-match probe; hits refresh LRU order."""
        key = (addr, size)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, addr: int, size: int, sym: SymVal,
               expected_value: int | float, is_fp: bool = False) -> None:
        """Install the symbolic contents of (addr, size).

        Overlapping entries with different tags are invalidated first
        (the new write supersedes them); an exact-tag entry is
        replaced.  The LRU entry is evicted if the cache is full.
        """
        self._remove_overlapping(addr, size)
        if len(self._entries) >= self._capacity:
            self._evict_lru()
        entry = MBCEntry(addr=addr, size=size, sym=sym,
                         expected_value=expected_value, is_fp=is_fp)
        if sym.base is not None:
            self._prf.add_refs((sym.base,))
        key = (addr, size)
        self._entries[key] = entry
        for block in range(addr >> _BLOCK_SHIFT,
                           ((addr + size - 1) >> _BLOCK_SHIFT) + 1):
            self._by_block.setdefault(block, set()).add(key)

    # ------------------------------------------------------------------
    # invalidation / eviction
    # ------------------------------------------------------------------

    def invalidate_overlap(self, addr: int, size: int) -> int:
        """Drop every entry overlapping [addr, addr+size).

        Called when a store whose address was unknown at rename
        executes — the speculative-consistency recovery path.
        Returns the number of entries dropped.
        """
        dropped = self._remove_overlapping(addr, size)
        self.invalidations += dropped
        return dropped

    def invalidate_entry(self, addr: int, size: int) -> None:
        """Drop the exact entry for (addr, size) if present."""
        key = (addr, size)
        if key in self._entries:
            self._drop(key)
            self.invalidations += 1

    def evict_lru(self) -> bool:
        """Evict the least-recently-used entry (register-pressure relief)."""
        if not self._entries:
            return False
        self._evict_lru()
        return True

    def clear(self) -> None:
        """Drop all entries (releases every pinned register)."""
        for key in list(self._entries):
            self._drop(key)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _remove_overlapping(self, addr: int, size: int) -> int:
        dropped = 0
        for block in range(addr >> _BLOCK_SHIFT,
                           ((addr + size - 1) >> _BLOCK_SHIFT) + 1):
            keys = self._by_block.get(block)
            if not keys:
                continue
            for key in list(keys):
                entry_addr, entry_size = key
                if entry_addr < addr + size and addr < entry_addr + entry_size:
                    self._drop(key)
                    dropped += 1
        return dropped

    def _evict_lru(self) -> None:
        key = next(iter(self._entries))
        self._drop(key)
        self.evictions += 1

    def _drop(self, key: tuple[int, int]) -> None:
        entry = self._entries.pop(key)
        if entry.sym.base is not None:
            self._prf.release_all((entry.sym.base,))
        addr, size = key
        for block in range(addr >> _BLOCK_SHIFT,
                           ((addr + size - 1) >> _BLOCK_SHIFT) + 1):
            keys = self._by_block.get(block)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_block[block]

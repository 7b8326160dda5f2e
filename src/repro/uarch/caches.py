"""Set-associative cache models and the two-level hierarchy.

Latency-oriented model matching the paper's Table 2: a 64 KB 4-way L1I,
a 32 KB 2-way L1D, a unified 1 MB 2-way L2, and flat 100-cycle memory.
Each access returns the total latency and updates LRU/fill state.
Bandwidth is modeled at the port level by the pipeline (2 D-cache
ports), not here; MSHR occupancy is not modeled, which matches the
original SimpleScalar-derived infrastructure's level of detail.
"""

from __future__ import annotations

from .config import CacheConfig


class Cache:
    """One set-associative, write-allocate, LRU cache level."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        num_sets = config.num_sets
        # An address splits into tag | set index | line offset.
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._tag_shift = num_sets.bit_length() - 1
        self._assoc = config.assoc
        # Each set is an ordered list of tags, most recent last.
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch *addr*; fill on miss.  Returns True on a hit."""
        line = addr >> self._line_shift
        tag = line >> self._tag_shift
        ways = self._sets[line & self._set_mask]
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self._assoc:
            ways.pop(0)
        return False

    def probe(self, addr: int) -> bool:
        """Check for *addr* without updating any state."""
        line = addr >> self._line_shift
        return line >> self._tag_shift in self._sets[line & self._set_mask]

    def line_address(self, addr: int) -> int:
        """The line-aligned address containing *addr*."""
        return (addr >> self._line_shift) << self._line_shift

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class MemoryHierarchy:
    """L1I + L1D backed by a unified L2 and flat main memory."""

    def __init__(self, il1: CacheConfig, dl1: CacheConfig, l2: CacheConfig,
                 memory_latency: int):
        self.il1 = Cache(il1, "il1")
        self.dl1 = Cache(dl1, "dl1")
        self.l2 = Cache(l2, "l2")
        self.memory_latency = memory_latency

    def _l2_or_memory(self, addr: int) -> int:
        if self.l2.access(addr):
            return self.l2.config.latency
        return self.l2.config.latency + self.memory_latency

    def ifetch(self, addr: int) -> int:
        """Instruction fetch at *addr*; returns total latency in cycles."""
        if self.il1.access(addr):
            return self.il1.config.latency
        return self.il1.config.latency + self._l2_or_memory(addr)

    def dread(self, addr: int) -> int:
        """Data read at *addr*; returns total latency in cycles."""
        if self.dl1.access(addr):
            return self.dl1.config.latency
        return self.dl1.config.latency + self._l2_or_memory(addr)

    #: Data write at *addr* (write-allocate): touches the hierarchy
    #: exactly like a read and returns the same latency.
    dwrite = dread

"""Reference-counted physical register file.

The paper's optimizations extend physical-register lifetimes beyond
what R10000/21264-style free-at-overwriter-retire allocation supports:
a register may still be referenced as the *base* of a symbolic RAT
value or from a Memory Bypass Cache entry long after its architectural
name has been overwritten.  Section 3.1 therefore prescribes a
reference-counting scheme (citing Jourdan et al. [15]); this module
implements it.

Who holds each reference, and which code takes and releases it:

* +1 held by the architectural RAT mapping, taken by
  :meth:`PhysRegFile.allocate` when a renamer maps a destination (or
  by the optimizer when it remaps a destination onto an existing
  register).  Rename hands the mapping it replaces to the
  instruction's ``prev_preg``, and :meth:`Pipeline.run
  <repro.uarch.pipeline.Pipeline.run>` releases it when that
  instruction **retires**.
* +1 per physical source of an in-flight instruction.  The renamer
  takes it with :meth:`PhysRegFile.add_refs` as it names the source
  (``src_pregs``), so a symbolic pin it drops later in the same rename
  (a source's only other reference, possibly) cannot free the source.
  :meth:`Pipeline.run <repro.uarch.pipeline.Pipeline.run>` releases
  it when the instruction **completes**.
* +1 per symbolic RAT entry whose base names the register, and +1 per
  pending MBC write: the optimizing renamer takes and releases these
  itself.
* +1 per MBC entry whose symbolic data names the register: the MBC
  takes it on insert and releases it when the entry is dropped.

A register returns to the free list when its count reaches zero, and
is cleared (unwritten, no value) when it is allocated again.
Registers carry *versions* so that delayed value feedback can detect
that a register was recycled in the meantime.
"""

from __future__ import annotations

from collections import deque


class OutOfRegisters(Exception):
    """Raised on allocation from an empty free list (callers stall)."""


class PhysRegFile:
    """Pool of reference-counted physical registers."""

    def __init__(self, num_regs: int):
        self._num_regs = num_regs
        #: Reference count and allocation version per register, and the
        #: free list.  Hot readers (the renamers and the value-feedback
        #: channel) may read these directly.  They change through this
        #: class, with one exception: :meth:`Pipeline.run
        #: <repro.uarch.pipeline.Pipeline.run>` releases the references
        #: of completing and retiring instructions inline, by the rule
        #: of :meth:`release_all`.
        self.refcounts = [0] * num_regs
        self.versions = [0] * num_regs
        self.free_list: deque[int] = deque(range(num_regs))
        #: Written flag and value per register.  The pipeline's
        #: writeback sets both for the register an instruction writes.
        self.ready = [False] * num_regs
        self.values: list[int | float | None] = [None] * num_regs
        self.allocation_stalls = 0
        self.high_water = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @property
    def num_free(self) -> int:
        return len(self.free_list)

    @property
    def num_regs(self) -> int:
        return self._num_regs

    def allocate(self) -> int:
        """Take a register off the free list with an initial count of 1.

        The initial reference belongs to the architectural RAT mapping.
        Raises :class:`OutOfRegisters` when the free list is empty.
        """
        free = self.free_list
        if not free:
            self.allocation_stalls += 1
            raise OutOfRegisters("physical register file exhausted")
        preg = free.popleft()
        self.refcounts[preg] = 1
        self.ready[preg] = False
        self.values[preg] = None
        in_use = self._num_regs - len(free)
        if in_use > self.high_water:
            self.high_water = in_use
        return preg

    def add_refs(self, pregs) -> tuple[int, ...]:
        """Add one reference to each register of *pregs*.

        Each must be live.  Returns the registers as a tuple, so a
        renamer takes its sources' references and records them in one
        step.
        """
        pregs = tuple(pregs)
        refcounts = self.refcounts
        for preg in pregs:
            count = refcounts[preg]
            if count <= 0:
                raise ValueError(f"add_ref on free register p{preg}")
            refcounts[preg] = count + 1
        return pregs

    def release_all(self, pregs) -> None:
        """Drop one reference from each register of *pregs*.

        A register whose count reaches zero gets a new version and
        returns to the free list; :meth:`allocate` clears its written
        flag and value when it is reused.
        """
        refcounts = self.refcounts
        for preg in pregs:
            count = refcounts[preg] - 1
            if count < 0:
                raise ValueError(f"release of already-free register p{preg}")
            refcounts[preg] = count
            if count == 0:
                self.versions[preg] += 1
                self.free_list.append(preg)

    # ------------------------------------------------------------------
    # value/readiness tracking (writeback and early execution)
    # ------------------------------------------------------------------

    def mark_ready(self, preg: int, value: int | float | None = None) -> None:
        """Record that *preg* has been written."""
        self.ready[preg] = True
        self.values[preg] = value

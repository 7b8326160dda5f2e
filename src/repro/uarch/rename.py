"""Register rename: the RAT and the baseline renamer.

The baseline machine renames architectural to physical registers with
no optimization — this is the machine the paper's speedups are measured
against.  The continuous optimizer
(:class:`repro.core.optimizer.OptimizingRenamer`) plugs into the same
:class:`Renamer` interface so the pipeline is agnostic to which one is
installed.
"""

from __future__ import annotations

import math

from ..isa.program import STACK_BASE
from ..isa.registers import (NUM_ARCH_REGS, STACK_POINTER_REG, is_fp_reg,
                             is_zero_reg)
from .dyninstr import DynInstr
from .regfile import OutOfRegisters, PhysRegFile
from .stats import PipelineStats


class Renamer:
    """Interface the pipeline drives each cycle.

    Implementations fill in the rename-related fields of each
    :class:`DynInstr` (``src_pregs``, ``dst_preg``, ``prev_preg`` and —
    for the optimizer — the ``early``/``removed_load``/``addr_known``
    flags).  Rename takes one reference per physical source as it names
    it (``PhysRegFile.add_refs``) and hands the destination's previous
    mapping to ``prev_preg``; the pipeline releases the sources when the
    instruction completes and ``prev_preg`` when it retires (see
    :mod:`repro.uarch.regfile`).  Any other reference a renamer takes
    is its own to release.

    The pipeline never calls a per-cycle or per-instruction hook
    (``begin_bundle``, ``on_complete``, ``on_store_executed``,
    ``on_retire``) left at this class's no-op, so a renamer pays only
    for the hooks it overrides.
    """

    #: The smallest ``add_depth`` and ``mem_depth`` at which a limit
    #: test that failed during the run would have passed: infinite
    #: while none failed, as in a renamer that tests no limit.
    #: :func:`repro.core.optimizer.covers` states what they prove.
    add_bound: int | float = math.inf
    mem_bound: int | float = math.inf

    def begin_bundle(self, cycle: int) -> None:
        """Called once per cycle before the first rename of the cycle."""

    def rename(self, di: DynInstr, cycle: int) -> None:
        """Rename one instruction (may raise ``OutOfRegisters``)."""
        raise NotImplementedError

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        """Called when *di* finishes execution (writeback), after the
        pipeline released its sources."""

    def on_retire(self, di: DynInstr) -> None:
        """Called when *di* retires, after the pipeline released its
        previous mapping."""

    def on_store_executed(self, di: DynInstr) -> None:
        """Called when a store's address is definitively known."""

    def relieve_pressure(self) -> bool:
        """Drop droppable state to free a physical register, if possible."""
        return False

    def collect_stats(self, stats: PipelineStats) -> None:
        """Contribute implementation-specific counters to *stats*."""


class ArchRAT:
    """Architectural-to-physical register mapping for all 64 registers."""

    def __init__(self, prf: PhysRegFile):
        self._prf = prf
        #: ``mapping[arch]`` is the current physical register of
        #: *arch* (None for the zero registers).  The renamers read and
        #: write it directly when they rename a destination;
        #: :meth:`remap` is the same write for everyone else.
        self.mapping: list[int | None] = [None] * NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            if is_zero_reg(arch):
                continue
            preg = prf.allocate()
            value: int | float
            if is_fp_reg(arch):
                value = 0.0
            elif arch == STACK_POINTER_REG:
                value = STACK_BASE
            else:
                value = 0
            prf.mark_ready(preg, value)
            self.mapping[arch] = preg

    def lookup(self, arch: int) -> int | None:
        """Current physical mapping of *arch* (None for zero registers)."""
        return self.mapping[arch]

    def remap(self, arch: int, preg: int) -> int:
        """Point *arch* at *preg*; returns the previous mapping."""
        previous = self.mapping[arch]
        self.mapping[arch] = preg
        return previous


class BaselineRenamer(Renamer):
    """Plain rename with R10000-style free-at-overwriter-retire."""

    def __init__(self, prf: PhysRegFile):
        self._prf = prf
        self.rat = ArchRAT(prf)
        # Read per instruction: the RAT list and the free list, as the
        # classes that own them document.
        self._map = self.rat.mapping
        self._mapping_of = self._map.__getitem__
        self._free = prf.free_list
        self._add_refs = prf.add_refs

    def rename(self, di: DynInstr, cycle: int) -> None:
        dst = di.arch_dst
        # Check capacity before taking any references so a failed
        # rename leaves no state behind.
        if dst >= 0 and not self._free:
            raise OutOfRegisters("no free physical registers")
        mapping = self._map
        if di.arch_srcs:
            di.src_pregs = self._add_refs(map(self._mapping_of,
                                              di.arch_srcs))
        if dst >= 0:
            preg = self._prf.allocate()
            di.prev_preg = mapping[dst]
            mapping[dst] = preg
            di.dst_preg = preg

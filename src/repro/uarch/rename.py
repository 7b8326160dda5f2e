"""Register rename: the RAT and the baseline renamer.

The baseline machine renames architectural to physical registers with
no optimization — this is the machine the paper's speedups are measured
against.  The continuous optimizer
(:class:`repro.core.optimizer.OptimizingRenamer`) plugs into the same
:class:`Renamer` interface so the pipeline is agnostic to which one is
installed.
"""

from __future__ import annotations

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
    flags) and manage physical-register references.
    """

    def begin_bundle(self, cycle: int) -> None:
        """Called once per cycle before the first rename of the cycle."""

    def rename(self, di: DynInstr, cycle: int) -> None:
        """Rename one instruction (may raise ``OutOfRegisters``)."""
        raise NotImplementedError

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        """Called when *di* finishes execution (writeback)."""
        raise NotImplementedError

    def on_retire(self, di: DynInstr) -> None:
        """Called when *di* retires."""
        raise NotImplementedError

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
        #: *arch* (None for the zero registers).  Hot callers may read
        #: it directly; every change goes through :meth:`remap`.
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

    def rename(self, di: DynInstr, cycle: int) -> None:
        prf = self._prf
        instr = di.instr
        if instr.dst is not None and not is_zero_reg(instr.dst):
            # Check capacity before taking any references so a failed
            # rename leaves no state behind.
            if not prf.can_allocate():
                raise OutOfRegisters("no free physical registers")
        src_pregs = []
        for arch in di.reg_srcs:
            preg = self.rat.lookup(arch)
            if preg is None:
                continue  # zero register: always-ready constant
            prf.add_ref(preg)
            src_pregs.append(preg)
        di.src_pregs = tuple(src_pregs)
        if instr.dst is not None and not is_zero_reg(instr.dst):
            new_preg = prf.allocate()
            di.prev_preg = self.rat.remap(instr.dst, new_preg)
            di.dst_preg = new_preg
        di.rename_cycle = cycle

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        for preg in di.src_pregs:
            self._prf.release(preg)

    def on_retire(self, di: DynInstr) -> None:
        if di.prev_preg is not None:
            self._prf.release(di.prev_preg)

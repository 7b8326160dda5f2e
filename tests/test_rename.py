"""Unit tests for the baseline renamer and RAT."""

import pytest

from repro.functional.trace import PackedTrace, TraceEntry
from repro.isa import Imm, Opcode, Reg
from repro.isa.instructions import Instruction
from repro.isa.program import STACK_BASE
from repro.isa.registers import (NUM_ARCH_REGS, STACK_POINTER_REG, ZERO_REG)
from repro.uarch import ArchRAT, BaselineRenamer, DynInstr, PhysRegFile
from repro.uarch.regfile import OutOfRegisters


def make_di(instr: Instruction, seq: int = 0) -> DynInstr:
    entry = TraceEntry(seq=seq, pc=instr.pc, instr=instr, result=0,
                       addr=None, taken=None, next_pc=instr.pc + 4)
    trace = PackedTrace.from_entries([entry])
    return DynInstr(trace.statics()[0], trace, 0)


class TestArchRAT:
    def test_initial_mappings_for_all_but_zero_regs(self):
        prf = PhysRegFile(128)
        rat = ArchRAT(prf)
        mapped = [rat.lookup(a) for a in range(NUM_ARCH_REGS)]
        assert mapped.count(None) == 2  # r31 and f31
        live = [m for m in mapped if m is not None]
        assert len(set(live)) == len(live)

    def test_initial_values_ready(self):
        prf = PhysRegFile(128)
        rat = ArchRAT(prf)
        sp = rat.lookup(STACK_POINTER_REG)
        assert prf.is_ready(sp)
        assert prf.value_of(sp) == STACK_BASE
        assert prf.value_of(rat.lookup(1)) == 0

    def test_remap_returns_previous(self):
        prf = PhysRegFile(128)
        rat = ArchRAT(prf)
        old = rat.lookup(3)
        new = prf.allocate()
        assert rat.remap(3, new) == old
        assert rat.lookup(3) == new


class TestBaselineRenamer:
    def setup_method(self):
        self.prf = PhysRegFile(128)
        self.renamer = BaselineRenamer(self.prf)

    def test_rename_allocates_destination(self):
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Reg(2), Reg(3))))
        old = self.renamer.rat.lookup(1)
        self.renamer.rename(di, cycle=1)
        assert di.dst_preg is not None
        assert di.prev_preg == old
        assert self.renamer.rat.lookup(1) == di.dst_preg
        assert di.rename_cycle == 1

    def test_sources_take_references(self):
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Reg(2), Reg(3))))
        p2 = self.renamer.rat.lookup(2)
        before = self.prf.refcount(p2)
        self.renamer.rename(di, cycle=0)
        assert self.prf.refcount(p2) == before + 1
        self.renamer.on_complete(di, cycle=5)
        assert self.prf.refcount(p2) == before

    def test_zero_register_sources_skipped(self):
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Reg(ZERO_REG), Imm(5))))
        self.renamer.rename(di, cycle=0)
        assert di.src_pregs == ()

    def test_zero_register_destination_not_allocated(self):
        di = make_di(Instruction(opcode=Opcode.ADD, dst=ZERO_REG,
                                 srcs=(Reg(1), Reg(2))))
        free_before = self.prf.num_free
        self.renamer.rename(di, cycle=0)
        assert di.dst_preg is None
        assert self.prf.num_free == free_before

    def test_retire_releases_previous_mapping(self):
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Imm(1), Imm(2))))
        old = self.renamer.rat.lookup(1)
        self.renamer.rename(di, cycle=0)
        assert self.prf.is_live(old)
        self.renamer.on_retire(di)
        assert not self.prf.is_live(old)

    def test_exhaustion_raises_before_mutation(self):
        # Drain the free list.
        while self.prf.can_allocate():
            self.prf.allocate()
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Reg(2), Reg(3))))
        p2 = self.renamer.rat.lookup(2)
        before = self.prf.refcount(p2)
        with pytest.raises(OutOfRegisters):
            self.renamer.rename(di, cycle=0)
        assert self.prf.refcount(p2) == before  # no leaked reference

    def test_serial_renames_chain_mappings(self):
        first = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                    srcs=(Imm(1), Imm(2))), seq=0)
        second = make_di(Instruction(opcode=Opcode.ADD, dst=2,
                                     srcs=(Reg(1), Imm(3))), seq=1)
        self.renamer.rename(first, cycle=0)
        self.renamer.rename(second, cycle=0)
        assert second.src_pregs == (first.dst_preg,)

    def test_relieve_pressure_noop(self):
        assert self.renamer.relieve_pressure() is False

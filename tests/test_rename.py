"""Unit tests for the RAT, the baseline renamer, and who owns the
references of in-flight instructions.

Rename takes one reference per physical source as it names it; the
pipeline releases them when the instruction completes, and releases
the mapping it replaced when it retires.  The tests of that ownership
therefore run whole pipelines.
"""

import dataclasses

import pytest

from repro.core.optimizer import OptimizingRenamer
from repro.functional import run_program
from repro.functional.trace import PackedTrace, TraceEntry
from repro.isa import Imm, Opcode, Reg, assemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODE_ID
from repro.isa.program import STACK_BASE
from repro.isa.registers import (NUM_ARCH_REGS, STACK_POINTER_REG, ZERO_REG)
from repro.uarch import (ArchRAT, BaselineRenamer, DynInstr, PhysRegFile,
                         default_config, optimized_config)
from repro.uarch.config import RAT_MAPPED_REGS
from repro.uarch.pipeline import Pipeline
from repro.uarch.regfile import OutOfRegisters
from repro.workloads import build_trace


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
        assert prf.ready[sp]
        assert prf.values[sp] == STACK_BASE
        assert prf.values[rat.lookup(1)] == 0

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
        assert di.src_pregs == (self.renamer.rat.lookup(2),
                                self.renamer.rat.lookup(3))

    def test_sources_take_references(self):
        # One reference per source is held from rename to completion:
        # r2's register counts one more while the add waits on the
        # load, and is back to its count once it is done.
        probe = _run_probe(BLOCKED_ADD, register=2)
        before = probe.counts[0]
        assert probe.in_flight == before + 1
        assert probe.completed_count == before

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
        # r1's first mapping stays live until the add that overwrites
        # it retires, and is free from then on.
        probe = _run_probe(BLOCKED_ADD, register=1)
        old = probe.first_mapping
        assert probe.live_at_rename[old]
        assert not probe.live_at_retire[old]
        assert probe.prf.refcounts[old] == 0

    def test_exhaustion_raises_before_mutation(self):
        # Drain the free list.
        while self.prf.free_list:
            self.prf.allocate()
        di = make_di(Instruction(opcode=Opcode.ADD, dst=1,
                                 srcs=(Reg(2), Reg(3))))
        p2 = self.renamer.rat.lookup(2)
        before = self.prf.refcounts[p2]
        with pytest.raises(OutOfRegisters):
            self.renamer.rename(di, cycle=0)
        assert self.prf.refcounts[p2] == before  # no leaked reference

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


#: A load that misses every cache, an add that reads r2 and is the
#: first to write r1 while the load is in flight, then independent work.
BLOCKED_ADD = """.data
far:    .quad 7
.text
        ldi r5, far
        ldq r4, 0(r5)
        add r1, r2, r4
""" + "\n".join(f"        ldi r9, {index}" for index in range(8)) + """
        halt
"""


class _Probe(BaselineRenamer):
    """The baseline renamer, sampling one architectural register's
    first physical register at each pipeline hook."""

    def __init__(self, prf: PhysRegFile, register: int):
        super().__init__(prf)
        self.prf = prf
        self.first_mapping = self.rat.lookup(register)
        self.counts: list[int] = [prf.refcounts[self.first_mapping]]
        self.in_flight = None
        self.completed_count = None
        self.live_at_rename: dict[int, bool] = {}
        self.live_at_retire: dict[int, bool] = {}

    def begin_bundle(self, cycle):
        self.counts.append(self.prf.refcounts[self.first_mapping])

    def rename(self, di, cycle):
        super().rename(di, cycle)
        if di.op == _ADD_ID:
            first = self.first_mapping
            self.live_at_rename[first] = self.prf.refcounts[first] > 0

    def on_complete(self, di, cycle):
        if di.op == _ADD_ID:
            # one bundle later the add was in flight with its source
            self.in_flight = max(self.counts)
            self.completed_count = self.prf.refcounts[self.first_mapping]

    def on_retire(self, di):
        if di.op == _ADD_ID:
            first = self.first_mapping
            self.live_at_retire[first] = self.prf.refcounts[first] > 0


_ADD_ID = OPCODE_ID[Opcode.ADD]


def _run_probe(source: str, register: int) -> _Probe:
    trace = run_program(assemble(source)).trace
    config = default_config()
    prf = PhysRegFile(config.num_pregs)
    probe = _Probe(prf, register)
    stats = Pipeline(trace, config, renamer=probe, prf=prf).run()
    assert stats.retired == len(trace)
    return probe


def _run(trace, config, renamer_class=None):
    """Run *trace* to the end; return the pipeline and its stats."""
    prf = PhysRegFile(config.num_pregs)
    if renamer_class is None:
        renamer_class = (OptimizingRenamer if config.optimizer.enabled
                         else BaselineRenamer)
    renamer = (renamer_class(prf, config) if config.optimizer.enabled
               else renamer_class(prf))
    pipeline = Pipeline(trace, config, renamer=renamer, prf=prf)
    return pipeline, pipeline.run()


def _optimizer_references(renamer: OptimizingRenamer) -> list[int]:
    """Every register reference the optimizer's own state holds."""
    refs = [preg for preg in renamer.rat.mapping if preg is not None]
    refs += [preg for preg in renamer._sym_refs if preg is not None]
    refs += [entry.sym.base for entry in renamer.mbc._entries.values()
             if entry.sym.base is not None]
    refs += renamer._pending_refs
    return refs


#: Enough registers for the RAT and a few in flight, so rename stalls.
TINY_PREGS = RAT_MAPPED_REGS + 6

CASES = [
    pytest.param(name, label, num_pregs, id=f"{name}-{label}-{num_pregs}")
    for name in ("mcf", "gcc")
    for label in ("baseline", "optimizer")
    for num_pregs in (None, TINY_PREGS)
]


class TestReferenceOwnership:
    """Invariants after whole runs, the tiny register files included."""

    @pytest.mark.parametrize("name, label, num_pregs", CASES)
    def test_counts_match_holders_after_a_run(self, name, label,
                                              num_pregs):
        config = (default_config() if label == "baseline"
                  else optimized_config())
        if num_pregs is not None:
            config = dataclasses.replace(config, num_pregs=num_pregs)
        trace = build_trace(name).trace[:3000]
        pipeline, stats = _run(trace, config)
        assert stats.retired == len(trace)
        if num_pregs is not None:
            assert stats.rename_stall_pregs > 0
        prf = pipeline.prf
        # the free list is exactly the registers nothing references
        free = list(prf.free_list)
        assert len(free) == len(set(free))
        assert set(free) == {preg for preg in range(prf.num_regs)
                             if prf.refcounts[preg] == 0}
        renamer = pipeline.renamer
        if label == "baseline":
            # no instruction is in flight: the live registers are
            # exactly the RAT's mappings, one reference each
            mapped = [preg for preg in renamer.rat.mapping
                      if preg is not None]
            assert sorted(mapped) == sorted(
                preg for preg in range(prf.num_regs)
                if prf.refcounts[preg] > 0)
            assert all(prf.refcounts[preg] == 1 for preg in mapped)
        else:
            holders = _optimizer_references(renamer)
            for preg in range(prf.num_regs):
                assert prf.refcounts[preg] == holders.count(preg), preg

    def test_double_release_raises(self):
        # A renamer that still releases its sources at completion, as
        # renamers did before the pipeline owned that release, frees
        # registers twice.
        class _DoubleRelease(BaselineRenamer):
            def on_complete(self, di, cycle):
                self._prf.release_all(di.src_pregs)

        trace = build_trace("mcf").trace[:3000]
        with pytest.raises(ValueError, match="already-free register"):
            _run(trace, default_config(), _DoubleRelease)

    def test_source_on_a_free_register_raises(self):
        class _FreeSource(BaselineRenamer):
            def rename(self, di, cycle):
                super().rename(di, cycle)
                di.src_pregs = self._add_refs((self._free[-1],))

        trace = build_trace("mcf").trace[:100]
        with pytest.raises(ValueError, match="add_ref on free register"):
            _run(trace, default_config(), _FreeSource)

    def test_load_keeps_a_base_only_its_destination_pinned(self):
        # r1 = p + 8 pins p; once the add retires the pin is p's only
        # reference.  The last load reads p (its base is unknown: no
        # feedback) and overwrites r1, dropping the pin: its source
        # reference must already be held, or p is freed under it.
        source = """.data
cell:   .quad 64
        .quad 72
.text
        ldi r5, cell
        stq r5, 0(r30)
        ldq r1, 0(r30)
        add r1, r1, 8
        ldi r2, 1
        beq r2, skip
skip:   ldi r3, 2
        ldi r3, 3
        ldq r1, 0(r1)
        halt
"""
        trace = run_program(assemble(source)).trace
        config = optimized_config(enable_feedback=False)
        pipeline, stats = _run(trace, config)
        assert stats.retired == len(trace)
        # the mispredicted beq stalls fetch until the add has retired
        assert stats.cond_mispredicts == 1
        prf = pipeline.prf
        holders = _optimizer_references(pipeline.renamer)
        for preg in range(prf.num_regs):
            assert prf.refcounts[preg] == holders.count(preg), preg

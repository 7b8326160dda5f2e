"""The continuous optimizer: an optimizing renamer for the pipeline.

This is the paper's contribution.  :class:`OptimizingRenamer` replaces
the baseline renamer in the rename stage and, for every dynamic
instruction:

1. resolves each source against the augmented RAT (symbolic values of
   the form ``(preg << scale) ± offset``) and the known-value table
   fed by value feedback;
2. applies CP/RA (:mod:`repro.core.cpra`) — possibly executing the
   instruction entirely within the optimizer (*early execution*),
   resolving mispredicted branches at rename, or rewriting the
   instruction's dependence to an earlier producer;
3. for memory operations with rename-time addresses, consults the
   Memory Bypass Cache (:mod:`repro.core.mbc`) to eliminate redundant
   loads and forward stores;
4. enforces the intra-bundle dependence-depth limits of Section 6.2
   (chained additions, chained memory operations), recording for each
   failed test the smallest limit at which it would have passed, so a
   finished run answers for every limit it provably repeats (see
   :func:`covers`);
5. verifies every produced value against the oracle trace — the
   paper's strict expression and value checking (Section 4.2).

Operating modes (Figure 9): with ``enable_opt`` off, only value
feedback is active — sources become known solely through fed-back
execution results, instructions with fully known inputs still execute
early, but no symbolic rewriting, constant propagation through the
RAT, or RLE/SF happens.  This is the paper's "eager bypassing"
feedback-only configuration.

Physical-register lifetimes follow the reference-counting scheme
(Section 3.1): RAT symbolic bases and MBC entries pin their registers,
and the optimizer sheds that state under register pressure (dropping a
hint is always safe).

The rename stage runs once per dynamic instruction, so it is
table-driven.  :meth:`OptimizingRenamer.rename` renames an integer ALU
instruction, most of the stream, itself: it reads the instruction's
two sources from a plan kept in the static record (built once per
static instruction of a trace) and calls CP/RA's per-opcode handler
table (:data:`repro.core.cpra.HANDLERS`) directly.  Every other
instruction goes to the category handler that a per-opcode-id table
names.  The integer registers' symbolic state lives in RAT-indexed
lists, a plain register's value is an interned per-preg
:class:`SymVal`, and the configuration flags are read once at
construction.  Verification is unchanged: every produced value is
compared with the oracle's, and any raw mismatch goes through the full
normalized check of :meth:`OptimizingRenamer._verify`.
"""

from __future__ import annotations

from dataclasses import replace

from ..functional.alu import to_signed64
from ..isa.instructions import Imm, Instruction
from ..isa.opcodes import (OP_SPEC_BY_ID, OPCODE_ID, OPCODES_BY_ID,
                           QUEUE_INT, OpClass, Opcode)
from ..isa.registers import NUM_INT_REGS, ZERO_REG
from ..uarch.config import MachineConfig
from ..uarch.dyninstr import DynInstr
from ..uarch.regfile import OutOfRegisters, PhysRegFile
from ..uarch.rename import BaselineRenamer
from ..uarch.stats import PipelineStats
from . import cpra, symbolic
from .cpra import BRANCH_TESTS, EARLY, IMPLIED_CONSTS, REWRITTEN
from .feedback import ValueFeedbackChannel
from .mbc import MemoryBypassCache
from .symbolic import SMALL_CONSTS, SymVal

_INT_COND_BRANCHES = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT,
})

_PENDING_INSERT = 0
_PENDING_INVALIDATE = 1

# Handler category per opcode id, computed once (see _HANDLER_BY_OP).
# The arm order settles overlaps: FP conditional branches (fbeq/fbne)
# and nop land on the plain path.
_RK_BRANCH, _RK_JUMP, _RK_LOAD, _RK_STORE, _RK_INT_ALU, _RK_PLAIN = range(6)


def _classify(opcode: Opcode) -> int:
    spec = OP_SPEC_BY_ID[OPCODE_ID[opcode]]
    if opcode in _INT_COND_BRANCHES:
        return _RK_BRANCH
    if spec.is_jump:
        return _RK_JUMP
    if spec.is_load:
        return _RK_LOAD
    if spec.is_store:
        return _RK_STORE
    if (spec.op_class in (OpClass.INT_SIMPLE, OpClass.INT_COMPLEX)
            and opcode is not Opcode.NOP):
        return _RK_INT_ALU
    return _RK_PLAIN


_RENAME_KIND = tuple(_classify(op) for op in OPCODES_BY_ID)
_LDA_ID = OPCODE_ID[Opcode.LDA]
_LDF_ID = OPCODE_ID[Opcode.LDF]
_STF_ID = OPCODE_ID[Opcode.STF]
_BR_ID = OPCODE_ID[Opcode.BR]
_JSR_ID = OPCODE_ID[Opcode.JSR]

#: Depth tag of a register no instruction of the current bundle wrote:
#: ``(bundle id, chained additions, chained memory operations)``.
_NO_TAG = (-1, 0, 0)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _alu_plan(instr: Instruction) -> tuple:
    """How :meth:`OptimizingRenamer.rename` reads integer ALU *instr*'s
    two sources, stored in the static record's ``rename_plan``.

    ``(arch_a, a, arch_b, b)``: a register source is its architectural
    index and None, to be resolved per instruction; an immediate (or
    ``lda``'s displacement, its second source) is -1 and its constant;
    a missing source is -1 and None.
    """
    operands = [(-1, None), (-1, None)]
    for index, src in enumerate(instr.srcs):
        operand = ((-1, symbolic.const(src.value)) if type(src) is Imm
                   else (src.index, None))
        operands[min(index, 1)] = operand
    if OPCODE_ID[instr.opcode] == _LDA_ID:
        operands[1] = (-1, symbolic.const(instr.disp))
    return operands[0] + operands[1]


class VerificationError(Exception):
    """The optimizer produced a value that disagrees with the oracle."""


class OptimizingRenamer(BaselineRenamer):
    """Rename stage with the continuous optimizer installed."""

    def __init__(self, prf: PhysRegFile, config: MachineConfig):
        super().__init__(prf)
        ocfg = config.optimizer
        # Configuration the handlers test per instruction, read once.
        self._opt = ocfg.enable_opt
        self._rle_sf = ocfg.enable_opt and ocfg.enable_rle_sf
        self._publish = ocfg.enable_feedback
        # Only a table the renamer probes takes early results; in
        # feedback-only mode (Figure 9) they return by the delay line.
        self._record_known = ocfg.enable_opt and ocfg.enable_feedback
        self._add_depth = ocfg.add_depth
        self._mem_depth = ocfg.mem_depth
        self._strict = ocfg.verify
        self.feedback = ValueFeedbackChannel(prf, ocfg.vf_delay)
        self.mbc = MemoryBypassCache(ocfg.mbc_entries, prf)
        # State owned by other classes, read through the attributes
        # they document.  Without value feedback no source is ever
        # folded, so the known-value probe sees an empty table.
        self._known = self.feedback.known if ocfg.enable_feedback else {}
        self._fb_pending = self.feedback.pending
        self._cpra = cpra.HANDLERS
        self._plains = symbolic.plains(prf.num_regs)
        # Pending MBC writes: applied at the next bundle boundary so no
        # dependence within a rename packet is satisfied by RLE/SF
        # (Section 3.2).  Each pending insert holds a register
        # reference so the base cannot be recycled before commit.
        # Entries are (kind, addr, size, sym, expected, is_fp).
        self._mbc_pending: list[tuple[int, int, int, SymVal | None,
                                      int | float, bool]] = []
        self._pending_refs: list[int] = []
        self._bundle_id = 0
        # Symbolic state per integer architectural register, indexed
        # like the RAT: the value (starting as the plain physical
        # mapping), the register its base pins when that is not the
        # mapping itself, and the depth tag — meaningful only while
        # its bundle id is the current bundle's.
        self._syms: list[SymVal] = [symbolic.ZERO] * NUM_INT_REGS
        self._sym_refs: list[int | None] = [None] * NUM_INT_REGS
        self._tags: list[tuple[int, int, int]] = [_NO_TAG] * NUM_INT_REGS
        for arch in range(NUM_INT_REGS):
            if arch != ZERO_REG:
                self._syms[arch] = self._plains[self._map[arch]]
        # statistics
        self.stat_early = 0
        self.stat_rewritten = 0
        self.stat_strength_reductions = 0
        self.stat_branch_inferences = 0
        self.stat_mbc_misspeculations = 0
        self.stat_depth_rejections = 0

    # ==================================================================
    # bundle boundary
    # ==================================================================

    def begin_bundle(self, cycle: int) -> None:
        pending = self._fb_pending
        if pending and pending[0][0] <= cycle:
            self.feedback.drain(cycle)
        if self._mbc_pending:
            mbc = self.mbc
            for kind, addr, size, sym, expected, is_fp in self._mbc_pending:
                if kind == _PENDING_INSERT:
                    mbc.insert(addr, size, sym, expected, is_fp=is_fp)
                else:
                    mbc.invalidate_overlap(addr, size)
            self._mbc_pending.clear()
            self._prf.release_all(self._pending_refs)
            self._pending_refs.clear()
        self._bundle_id += 1

    # ==================================================================
    # rename: integer ALU instructions inline, the rest by category
    # ==================================================================

    def rename(self, di: DynInstr, cycle: int) -> None:
        if di.arch_dst >= 0 and not self._free:
            raise OutOfRegisters("no free physical registers")
        handler = _HANDLER_BY_OP[di.op]
        if handler is not None:
            handler(self, di)
            return
        # An integer ALU instruction, most of the stream: CP/RA.
        cell = di.rename_plan
        plan = cell[0]
        if plan is None:
            plan = cell[0] = _alu_plan(di.instr)
        arch_a, a, arch_b, b = plan
        # Resolve each register source: its value is folded with its
        # base's fed-back value when one is recorded; depth tags of
        # this bundle's producers accumulate into the chain depths.
        syms = self._syms
        tags = self._tags
        known = self._known
        bundle_id = self._bundle_id
        depth = mem_chain = 0
        if arch_a >= 0:
            a = syms[arch_a]
            if a[0] in known:
                a = self._fold(arch_a, a)
            tag = tags[arch_a]
            if tag[0] == bundle_id:
                depth = tag[1]
                mem_chain = tag[2]
        if arch_b >= 0:
            b = syms[arch_b]
            if b[0] in known:
                b = self._fold(arch_b, b)
            tag = tags[arch_b]
            if tag[0] == bundle_id:
                if tag[1] > depth:
                    depth = tag[1]
                if tag[2] > mem_chain:
                    mem_chain = tag[2]
        kind, value, sym, uses_alu, reduced = self._cpra[di.op](a, b)
        if uses_alu and depth > self._add_depth:
            # This transformation would chain one more serial addition
            # onto this cycle's optimizer ALUs than the hardware has.
            self.stat_depth_rejections += 1
            if depth < self.add_bound:
                self.add_bound = depth
            kind = cpra.PLAIN
            reduced = False
        elif kind != EARLY and not self._opt:
            # Feedback-only mode: no symbolic rewriting.
            kind = cpra.PLAIN
            reduced = False
        if reduced:
            self.stat_strength_reductions += 1
            di.queue_idx = QUEUE_INT
        if kind == EARLY:
            if value != di.result:
                self._verify(di, value, di.result, "early value")
            di.early = True
            self.stat_early += 1
            if uses_alu:
                depth += 1
            if sym is None:
                # Folded from constants: the constant *value*.
                sym = (SMALL_CONSTS[value + 256] if -256 <= value <= 256
                       else symbolic.const(value))
            dst = self._allocate_dst(di, sym, depth, mem_chain)
            if dst is not None and self._record_known:
                # Recording the computed value is constant propagation.
                self.feedback.record_known(dst, value)
            return
        if kind == REWRITTEN:
            self.stat_rewritten += 1
            if uses_alu:
                depth += 1
            base = sym[0]
            if base is not None:
                di.src_pregs = self._add_refs((base,))
            self._allocate_dst(di, sym, depth, mem_chain)
            return
        di.src_pregs = self._add_refs(map(self._mapping_of, di.arch_srcs))
        self._allocate_dst(di, None)

    # ------------------------------------------------------------------
    # RAT symbolic-state updates
    # ------------------------------------------------------------------

    def _fold(self, arch: int, sym: SymVal) -> SymVal:
        """*arch*'s value with its base's fed-back value folded in.

        Called only when the base has a known-value record; the
        channel's lookup still validates the register's liveness and
        version.  Folding clears the register's depth tag.
        """
        value = self.feedback.lookup(sym[0])
        if value is None:
            return sym
        folded = symbolic.fold(sym, value)
        self._set_sym(arch, folded)
        return folded

    def _set_sym(self, arch: int, sym: SymVal,
                 tag: tuple[int, int, int] = _NO_TAG) -> None:
        """Replace the symbolic value of *arch*, managing base pins."""
        base = sym[0]
        new_ref = None
        if base is not None and base != self._map[arch]:
            self._add_refs((base,))
            new_ref = base
        old_ref = self._sym_refs[arch]
        if old_ref is not None:
            self._prf.release_all((old_ref,))
        self._syms[arch] = sym
        self._sym_refs[arch] = new_ref
        self._tags[arch] = tag

    def _allocate_dst(self, di: DynInstr, sym: SymVal | None,
                      add_depth: int = 0, mem_chain: int = 0) -> int | None:
        """Allocate the destination register and install its new state.

        *sym* None (or feedback-only mode) installs the plain new
        register.
        """
        dst = di.arch_dst
        if dst < 0:
            return None
        preg = self._prf.allocate()
        # Any known-value record of the register's previous life is
        # stale; dropping it keeps the probes in the handlers precise.
        self._known.pop(preg, None)
        mapping = self._map
        di.prev_preg = mapping[dst]
        mapping[dst] = preg
        di.dst_preg = preg
        if dst < NUM_INT_REGS:
            # :meth:`_set_sym` of the new mapping: a symbolic base is
            # never the new register, and the plain value pins nothing.
            if sym is None or not self._opt:
                sym = self._plains[preg]
                new_ref = None
                tag = _NO_TAG
            else:
                new_ref = sym[0]
                if new_ref is not None:
                    self._add_refs((new_ref,))
                tag = ((self._bundle_id, add_depth, mem_chain)
                       if add_depth or mem_chain else _NO_TAG)
            old_ref = self._sym_refs[dst]
            if old_ref is not None:
                self._prf.release_all((old_ref,))
            self._syms[dst] = sym
            self._sym_refs[dst] = new_ref
            self._tags[dst] = tag
        return preg

    # ------------------------------------------------------------------
    # failed depth-limit tests (see covers)
    # ------------------------------------------------------------------

    def _chain_limit_failed(self, tag: tuple[int, int, int]) -> None:
        """A load or store base's chain *tag* failed the limits.

        The bound goes to the part that failed, the add part when both
        did: while that part still fails, so does the test.
        """
        if tag[1] > self._add_depth:
            if tag[1] < self.add_bound:
                self.add_bound = tag[1]
        elif tag[2] < self.mem_bound:
            self.mem_bound = tag[2]

    # ------------------------------------------------------------------
    # verification (Section 4.2: strict expression and value checking)
    # ------------------------------------------------------------------

    def _verify(self, di: DynInstr, produced: int | float,
                expected: int | float, what: str) -> None:
        """The full check; handlers call it whenever the raw values differ.

        Raw equality implies equality after normalization, so the
        handlers' raw comparison skips only checks that would pass.
        """
        if not self._strict:
            return
        if isinstance(produced, int) and isinstance(expected, int):
            produced = to_signed64(produced)
            expected = to_signed64(expected)
        if produced != expected:
            raise VerificationError(
                f"{what} mismatch for {di}: optimizer produced "
                f"{produced!r}, oracle says {expected!r}")

    # ==================================================================
    # instruction-category handlers
    # ==================================================================

    def _rename_branch(self, di: DynInstr) -> None:
        arch = di.reg_srcs[0]
        sym = self._syms[arch]
        if sym[0] in self._known:
            sym = self._fold(arch, sym)
        if sym[0] is None:
            tag = self._tags[arch]
            depth = tag[1] if tag[0] == self._bundle_id else 0
            # The branch test itself is zero-detect logic, not an
            # adder, so it may consume a value produced by this
            # bundle's last allowed addition level (hence the +1).
            if depth <= self._add_depth + 1:
                taken = BRANCH_TESTS[di.op](sym[2])
                if taken != di.taken:
                    self._verify(di, int(taken), di.taken,
                                 "early branch direction")
                di.early = True
                self.stat_early += 1
            else:
                self.stat_depth_rejections += 1
                if depth - 1 < self.add_bound:
                    self.add_bound = depth - 1
        if not di.early:
            di.src_pregs = self._add_refs(map(self._mapping_of,
                                              di.arch_srcs))
        if self._opt:
            # The zero registers always resolve to a constant, so they
            # never take an inferred value.
            implied = IMPLIED_CONSTS[di.op][di.taken == 1]
            if implied is not None and sym[0] is not None:
                self._set_sym(arch, implied)
                self.stat_branch_inferences += 1

    def _rename_jump(self, di: DynInstr) -> None:
        op = di.op
        if op == _BR_ID:
            di.early = True
            self.stat_early += 1
            return
        if op == _JSR_ID:
            # The link value is a decode-time constant.
            return_pc = di.instr.pc + 4
            if return_pc != di.result:
                self._verify(di, return_pc, di.result, "jsr link value")
            di.early = True
            self.stat_early += 1
            dst = self._allocate_dst(di, symbolic.const(return_pc))
            if dst is not None and self._record_known:
                self.feedback.record_known(dst, return_pc)
            return
        # ret / jmp: indirect through an integer register.
        arch = di.reg_srcs[0]
        sym = self._syms[arch]
        if sym[0] in self._known:
            sym = self._fold(arch, sym)
        if sym[0] is None:
            tag = self._tags[arch]
            depth = tag[1] if tag[0] == self._bundle_id else 0
            if depth <= self._add_depth + 1:
                if sym[2] != di.next_pc:
                    self._verify(di, sym[2], di.next_pc,
                                 "early indirect target")
                di.early = True
                self.stat_early += 1
                return
            if depth - 1 < self.add_bound:
                self.add_bound = depth - 1
        di.src_pregs = self._add_refs(map(self._mapping_of, di.arch_srcs))

    def _rename_load(self, di: DynInstr) -> None:
        arch = di.reg_srcs[0]
        sym = self._syms[arch]
        if sym[0] in self._known:
            sym = self._fold(arch, sym)
        base = sym[0]
        if base is None:
            tag = self._tags[arch]
            if tag[0] != self._bundle_id:
                tag = _NO_TAG
            if tag[1] <= self._add_depth and tag[2] <= self._mem_depth:
                self._rename_known_load(di, sym[2] + di.instr.disp)
                return
            self._chain_limit_failed(tag)
        # Address not available at rename: agen depends on the
        # (possibly reassociated) base register.  Its reference is
        # taken first: the base may be pinned only by the destination's
        # symbolic value, which installing the destination drops.
        if self._opt and base is not None:
            di.src_pregs = self._add_refs((base,))
        else:
            di.src_pregs = self._add_refs(map(self._mapping_of,
                                              di.arch_srcs))
        self._allocate_dst(di, None)

    def _rename_known_load(self, di: DynInstr, addr: int) -> None:
        """A load whose address is known at rename: try RLE/SF."""
        if addr > _INT64_MAX or addr < _INT64_MIN:
            addr = to_signed64(addr)
        if addr != di.addr:
            self._verify(di, addr, di.addr, "rename-time load address")
        di.addr_known = True
        dst = di.arch_dst
        is_fp_load = di.op == _LDF_ID
        eligible = (self._rle_sf and dst >= 0
                    and (is_fp_load or dst < NUM_INT_REGS))
        if eligible:
            bypassed = (self._try_bypass_fp_load(di) if is_fp_load
                        else self._try_bypass_load(di))
            if bypassed:
                return
        # MBC miss (or not eligible): install this load's destination
        # for future redundant-load elimination.
        preg = self._allocate_dst(di, None)
        if eligible and preg is not None:
            expected = float(di.result) if is_fp_load else int(di.result)
            self._pend_insert(di.addr, di.mem_size, self._plains[preg],
                              expected, is_fp_load)

    def _try_bypass_load(self, di: DynInstr) -> bool:
        """Attempt RLE/SF; returns True if the load was eliminated."""
        size = di.mem_size
        addr = di.addr
        line = self.mbc.lookup(addr, size)
        if line is None or line.is_fp:
            return False
        if line.expected_value != int(di.result):
            # Speculative staleness: an unknown-address store modified
            # this location after the entry was installed (Section 3.2's
            # "proceed speculatively and recover" mode).
            self.mbc.invalidate_entry(addr, size)
            self.stat_mbc_misspeculations += 1
            di.misspec_flush = True
            return False
        sym = line.sym
        base = sym[0]
        if base in self._known:
            value = self.feedback.lookup(base)
            if value is not None:
                sym = symbolic.fold(sym, value)
                base = None
        di.removed_load = True
        if base is None:
            value = sym[2]
            if value != di.result:
                self._verify(di, value, di.result, "forwarded load value")
            di.early = True
            self.stat_early += 1
            dst = self._allocate_dst(di, sym, 0, 1)
            if dst is not None and self._record_known:
                self.feedback.record_known(dst, value)
            return True
        if sym[1] == 0 and sym[2] == 0:
            # The move is optimized away entirely via physical register
            # reuse (the paper's citation [15], Jourdan et al.): the
            # destination architectural register is remapped onto the
            # previous memory operation's register.  No execution at all.
            self._remap_to_existing(di, base)
            self._set_sym(di.arch_dst, sym, (self._bundle_id, 0, 1))
            return True
        # Offset/scaled forward: becomes a single-cycle move computing
        # (base << scale) + offset on a simple ALU.
        di.queue_idx = QUEUE_INT
        di.exec_latency = 1
        di.src_pregs = self._add_refs((base,))
        self._allocate_dst(di, sym, 0, 1)
        return True

    def _remap_to_existing(self, di: DynInstr, preg: int) -> None:
        """Collapse *di* into a RAT remap onto an existing register."""
        di.early = True
        self.stat_early += 1
        self._add_refs((preg,))  # the new architectural-mapping reference
        di.prev_preg = self.rat.remap(di.arch_dst, preg)
        di.dst_preg = None

    def _try_bypass_fp_load(self, di: DynInstr) -> bool:
        """RLE/SF for FP loads: forward the previous operation's register.

        No symbolic form exists for FP values, but the load can still
        become a one-cycle FP register move of the matching entry's
        physical register (never an early execution).
        """
        size = di.mem_size
        addr = di.addr
        line = self.mbc.lookup(addr, size)
        if line is None or not line.is_fp:
            return False
        if line.expected_value != float(di.result):
            self.mbc.invalidate_entry(addr, size)
            self.stat_mbc_misspeculations += 1
            di.misspec_flush = True
            return False
        di.removed_load = True
        # As for integer RLE/SF, the move is optimized away by
        # remapping the FP destination onto the existing register.
        self._remap_to_existing(di, line.sym.base)
        return True

    def _rename_store(self, di: DynInstr) -> None:
        data_arch, base_arch = di.reg_srcs
        mapping = self._map
        known = self._known
        sym = self._syms[base_arch]
        if sym[0] in known:
            sym = self._fold(base_arch, sym)
        base = sym[0]
        deps = []
        addr_known = False
        if base is None:
            tag = self._tags[base_arch]
            if tag[0] != self._bundle_id:
                tag = _NO_TAG
            if tag[1] <= self._add_depth and tag[2] <= self._mem_depth:
                addr = sym[2] + di.instr.disp
                if addr > _INT64_MAX or addr < _INT64_MIN:
                    addr = to_signed64(addr)
                if addr != di.addr:
                    self._verify(di, addr, di.addr,
                                 "rename-time store address")
                di.addr_known = addr_known = True
            else:
                self._chain_limit_failed(tag)
        if not addr_known:
            # Address generation depends on the (possibly
            # reassociated) base register.
            if self._opt and base is not None:
                deps.append(base)
            else:
                preg = mapping[base_arch]
                if preg is not None:
                    deps.append(preg)
        # Data operand: forwarded symbolically into the MBC, but the
        # store unit itself reads the plain physical register unless
        # the data is a known constant.
        data_sym: SymVal | None = None
        if data_arch < NUM_INT_REGS:
            data_sym = self._syms[data_arch]
            if data_sym[0] in known:
                data_sym = self._fold(data_arch, data_sym)
            if data_sym[0] is not None:
                deps.append(mapping[data_arch])
        else:
            preg = mapping[data_arch]
            if preg is not None:
                deps.append(preg)
        if deps:
            di.src_pregs = self._add_refs(deps)
        if not (addr_known and self._rle_sf):
            return
        # The emulator records a store's data value as the row's
        # result, so ``di.result`` is the store value.
        if di.op == _STF_ID:
            # FP store forwarding: record the data register so a later
            # FP load becomes a register move.
            self._pend_insert(di.addr, di.mem_size,
                              symbolic.plain(mapping[data_arch]),
                              float(di.result), True)
            return
        if data_sym is None:
            self._mbc_pending.append(
                (_PENDING_INVALIDATE, di.addr, di.mem_size, None, 0, False))
            return
        expected = int(di.result)
        if data_sym[0] is None and data_sym[2] != expected:
            self._verify(di, data_sym[2], expected,
                         "store-forward data value")
        self._pend_insert(di.addr, di.mem_size, data_sym, expected, False)

    def _pend_insert(self, addr: int, size: int, sym: SymVal,
                     expected: int | float, is_fp: bool) -> None:
        self._mbc_pending.append(
            (_PENDING_INSERT, addr, size, sym, expected, is_fp))
        base = sym[0]
        if base is not None:
            self._add_refs((base,))
            self._pending_refs.append(base)

    def _rename_plain(self, di: DynInstr) -> None:
        if di.arch_srcs:
            di.src_pregs = self._add_refs(map(self._mapping_of,
                                              di.arch_srcs))
        self._allocate_dst(di, None)

    # ==================================================================
    # pipeline callbacks
    # ==================================================================

    def on_complete(self, di: DynInstr, cycle: int) -> None:
        preg = di.dst_preg
        if preg is None or not self._publish:
            return
        result = di.result
        if isinstance(result, int) and di.arch_dst < NUM_INT_REGS:
            if result > _INT64_MAX or result < _INT64_MIN:
                result = to_signed64(result)
            self.feedback.publish(preg, result, cycle)

    def on_store_executed(self, di: DynInstr) -> None:
        if di.addr_known and self._rle_sf:
            # The MBC was already updated with this store at rename.
            return
        self.mbc.invalidate_overlap(di.addr, di.mem_size)

    def relieve_pressure(self) -> bool:
        """Shed optimizer state (hints) to free physical registers."""
        while self._prf.num_free == 0:
            if not self.mbc.evict_lru():
                break
        if self._prf.num_free > 0:
            return True
        for arch in range(NUM_INT_REGS):
            if self._sym_refs[arch] is None:
                continue
            self._set_sym(arch, self._plains[self._map[arch]])
            if self._prf.num_free > 0:
                return True
        return False

    def collect_stats(self, stats: PipelineStats) -> None:
        stats.mbc_hits = self.mbc.hits
        stats.mbc_misses = self.mbc.misses
        stats.mbc_invalidations = self.mbc.invalidations
        stats.extra.update({
            "opt_early": self.stat_early,
            "opt_rewritten": self.stat_rewritten,
            "opt_strength_reductions": self.stat_strength_reductions,
            "opt_branch_inferences": self.stat_branch_inferences,
            "opt_mbc_misspeculations": self.stat_mbc_misspeculations,
            "opt_depth_rejections": self.stat_depth_rejections,
            "opt_values_fed_back": self.feedback.values_fed_back,
        })


def covers(ran: MachineConfig, bounds: tuple, wanted: MachineConfig) -> bool:
    """Whether the finished run of *ran* is exactly the run of *wanted*.

    *bounds* is the run's ``(add_bound, mem_bound)``: the smallest
    ``add_depth`` and ``mem_depth`` at which a limit test that failed
    in it would have passed.  The renamer reads the two limits nowhere
    but in those tests, and a test that passes at one limit passes at
    every larger one.  So under any limits in ``[add_depth,
    add_bound) x [mem_depth, mem_bound)`` every test decides as it did
    in the run, and the run repeats event for event: it answers every
    *wanted* that differs from *ran* only there.  A larger limit may
    pass a test the run failed; a smaller one, fail a test it passed.
    """
    have, want = ran.optimizer, wanted.optimizer
    add_bound, mem_bound = bounds
    return (have.add_depth <= want.add_depth < add_bound
            and have.mem_depth <= want.mem_depth < mem_bound
            and ran == replace(wanted, optimizer=replace(
                want, add_depth=have.add_depth,
                mem_depth=have.mem_depth)))


# The per-category handler of every opcode id, as plain functions (a
# tuple of bound methods on each renamer would form a reference cycle
# that keeps every finished renamer, and its register file, MBC and
# known-value table, alive until the next full garbage collection).
# None marks the integer ALU opcodes, which rename handles inline.
_HANDLER_BY_OP = tuple(
    (OptimizingRenamer._rename_branch, OptimizingRenamer._rename_jump,
     OptimizingRenamer._rename_load, OptimizingRenamer._rename_store,
     None, OptimizingRenamer._rename_plain)[kind]
    for kind in _RENAME_KIND)

"""Architectural (functional) emulator and dynamic trace format.

The emulator executes a :class:`~repro.isa.program.Program` and records
one trace row per retired instruction: its static-instruction index,
result (a store's data value), effective address, branch outcome and
next pc.  A row's seq and pc follow from its index and its static
instruction, and the source values an instruction read are not kept.
The trace is both

* the **oracle**: true values, effective addresses, and branch outcomes
  used to verify every optimization the continuous optimizer performs
  (the paper's "strict expression and value checking"), and
* the **input to the timing model**: the cycle-level pipeline is
  trace-driven, replaying this dynamic instruction stream.

This mirrors the paper's SimpleScalar-based methodology, where a
functional core drives a detailed custom timing model.

The trace can be produced three ways:

* :meth:`Emulator.run` materializes the whole stream as an
  :class:`EmulationResult` whose trace is a packed
  :class:`~repro.functional.trace.PackedTrace` (entries materialize
  lazily as :class:`TraceEntry` views),
* :meth:`Emulator.run_packed` emulates a bounded window from the
  current state into a packed trace — the segment planner's fast
  path — leaving the state ready for :meth:`checkpoint`, or
* :meth:`Emulator.iter_trace` yields :class:`TraceEntry` objects
  **lazily** one at a time (the original streaming API).

The main loop is table-driven: each static instruction pre-decodes
once per program into a flat tuple of small integers and handler
callables (indexed by the tables in :mod:`repro.isa.opcodes`), so the
per-instruction work is integer dispatch plus column appends — no
enum hashing, no ``OpSpec`` attribute chasing, no dataclass
construction.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Iterator

from ..isa.instructions import Imm, Instruction, Reg
from ..isa.opcodes import OPCODE_ID, OpClass, Opcode
from ..isa.program import INSTR_BYTES, Program, STACK_BASE, TEXT_BASE
from ..isa.registers import (NUM_FP_REGS, NUM_INT_REGS, STACK_POINTER_REG,
                             is_fp_reg, is_zero_reg)
from . import alu
from .memory import Memory
from .trace import (NO_ADDR, NO_TAKEN, PackedTrace, TraceEntry,
                    note_dispatch_build, note_packed_build)

__all__ = [
    "ArchState", "Checkpoint", "EmulationError", "EmulationLimit",
    "EmulationResult", "Emulator", "PackedTrace", "TraceEntry",
    "run_program",
]

_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)
_STF_ID = OPCODE_ID[Opcode.STF]


class EmulationError(Exception):
    """Raised when a program performs an illegal operation."""


class EmulationLimit(EmulationError):
    """Raised when a program exceeds the dynamic instruction budget."""


@dataclass(frozen=True)
class Checkpoint:
    """A resumable snapshot of architectural state.

    Captures everything :meth:`Emulator.restore` needs to continue
    execution exactly where :meth:`Emulator.checkpoint` left off:
    registers, the sparse memory image, the PC, and the dynamic
    instruction count (so trace ``seq`` numbers keep running across
    segment boundaries).
    """

    pc: int
    instret: int
    halted: bool
    int_regs: tuple[int, ...]
    fp_regs: tuple[float, ...]
    memory_image: dict[int, int]


@dataclass
class EmulationResult:
    """Everything the emulator produced for one program run."""

    trace: PackedTrace
    halted: bool
    int_regs: list[int]
    fp_regs: list[float]
    memory: Memory

    @property
    def instruction_count(self) -> int:
        return len(self.trace)

    def state_dict(self) -> dict:
        """Canonical comparable form of the final architectural state.

        FP registers are compared as IEEE-754 bit patterns so the form
        is total (NaNs compare by identity of representation, not by
        ``==``).  This is the emulator side of the differential
        harness's state checks; :class:`ArchState` produces the same
        shape from the retirement side.
        """
        return _state_dict(self.int_regs, self.fp_regs,
                           self.memory.snapshot())


def _state_dict(int_regs, fp_regs, memory_image: dict[int, int]) -> dict:
    bits = [struct.unpack("<Q", struct.pack("<d", v))[0] for v in fp_regs]
    # Zero bytes are indistinguishable from never-written addresses
    # architecturally (BSS semantics), so drop them before comparing.
    image = {addr: byte for addr, byte in memory_image.items() if byte}
    return {"int_regs": tuple(int_regs), "fp_bits": tuple(bits),
            "memory": image}


class ArchState:
    """Architectural state replayed entry-by-entry at **retirement**.

    The timing pipeline is trace-driven, so it never recomputes
    values — but it does decide *which* entries retire and in what
    order.  Feeding every retired :class:`TraceEntry` through an
    ``ArchState`` rebuilds the architectural registers and memory that
    retirement order implies; if the pipeline drops, duplicates, or
    reorders entries (across segments, optimizer variants, or drain
    paths), the final state diverges from the emulator's.  The
    differential harness (:mod:`repro.engine.differential`) compares
    exactly that.
    """

    def __init__(self, program: Program):
        self.int_regs = [0] * NUM_INT_REGS
        self.fp_regs = [0.0] * NUM_FP_REGS
        self.int_regs[STACK_POINTER_REG] = STACK_BASE
        self.memory = Memory(program.data)
        self.applied = 0

    def apply(self, entry: TraceEntry) -> None:
        """Fold one retired trace entry into the architectural state."""
        instr = entry.instr
        spec = instr.spec
        if spec.is_store:
            # the emulator records a store's data value as its result
            if instr.opcode is Opcode.STF:
                self.memory.store_double(entry.addr, float(entry.result))
            else:
                self.memory.store(entry.addr, int(entry.result),
                                  spec.mem_size)
        elif instr.dst is not None and entry.result is not None:
            dst = instr.dst
            if not is_zero_reg(dst):
                if is_fp_reg(dst):
                    self.fp_regs[dst - NUM_INT_REGS] = float(entry.result)
                else:
                    self.int_regs[dst] = alu.to_signed64(int(entry.result))
        self.applied += 1

    def apply_di(self, di) -> None:
        """:meth:`apply` from a pipeline ``DynInstr``'s direct fields.

        Equivalent to :meth:`apply` on the row's entry view without
        materializing it: ``arch_dst`` is the destination with the
        zero registers already dropped.
        """
        if di.is_store:
            value = di.result
            if di.op == _STF_ID:
                self.memory.store_double(di.addr, float(value))
            else:
                self.memory.store(di.addr, int(value), di.mem_size)
        else:
            result = di.result
            dst = di.arch_dst
            if dst >= 0 and result is not None:
                if dst >= NUM_INT_REGS:
                    self.fp_regs[dst - NUM_INT_REGS] = float(result)
                elif (type(result) is int
                      and _INT64_MIN <= result <= _INT64_MAX):
                    self.int_regs[dst] = result
                else:
                    self.int_regs[dst] = alu.to_signed64(int(result))
        self.applied += 1

    def state_dict(self) -> dict:
        """The same canonical form as :meth:`EmulationResult.state_dict`."""
        return _state_dict(self.int_regs, self.fp_regs,
                           self.memory.snapshot())


#: Lazily bound telemetry registry — the functional layer must not
#: import :mod:`repro.engine` at module level (the engine's package
#: init imports this module), so the registry binds at first use.
_TELEMETRY = None


def _telemetry():
    global _TELEMETRY
    if _TELEMETRY is None:
        from ..engine.telemetry import TELEMETRY
        _TELEMETRY = TELEMETRY
    return _TELEMETRY


# ---------------------------------------------------------------------------
# per-program pre-decode for the packed fast loop
# ---------------------------------------------------------------------------
# Each static instruction decodes once into a flat 11-tuple:
#
#   (kind, op, f1, m0, p0, m1, p1, dst_kind, dst_idx, disp, f2)
#
# kind selects the handler arm below; op is the opcode id; (m0, p0) and
# (m1, p1) are source read modes/payloads; dst_kind/-idx encode the
# write target; f1 holds the ALU/condition callable (or the memory
# size); f2 holds the branch target (or the load's signedness).

_K_FN2 = 0       # result = f1(a, b): two-source int/fp ALU
_K_LOAD = 1      # integer load
_K_STORE = 2     # integer store
_K_BR_COND = 3   # conditional branch (f1 = condition test)
_K_FN1 = 4       # result = f1(a): unary ALU, itof, ftoi
_K_LDA = 5       # result = signed64(base + disp)
_K_BR = 6        # direct unconditional branch
_K_JSR = 7       # call: link + direct jump
_K_JMP_IND = 8   # ret/jmp through a register
_K_LOAD_F = 9    # ldf
_K_STORE_F = 10  # stf
_K_NOP = 11
_K_HALT = 12

# source-operand read modes
_M_IMM = 0
_M_INT = 1
_M_FP = 2
_M_ZERO_INT = 3
_M_ZERO_FP = 4


def _decode_src(src: Reg | Imm) -> tuple[int, int | float]:
    if isinstance(src, Imm):
        return _M_IMM, src.value
    index = src.index
    if is_zero_reg(index):
        return (_M_ZERO_FP, 0) if is_fp_reg(index) else (_M_ZERO_INT, 0)
    if is_fp_reg(index):
        return _M_FP, index - NUM_INT_REGS
    return _M_INT, index


def _decode_instr(instr: Instruction) -> tuple:
    spec = instr.spec
    op = OPCODE_ID[instr.opcode]
    opcode = instr.opcode
    modes = [_decode_src(src) for src in instr.srcs]
    while len(modes) < 2:
        modes.append((_M_ZERO_INT, 0))
    (m0, p0), (m1, p1) = modes[0], modes[1]
    dst = instr.dst
    if dst is None or is_zero_reg(dst):
        dst_kind, dst_idx = -1, 0
    elif is_fp_reg(dst):
        dst_kind, dst_idx = 1, dst - NUM_INT_REGS
    else:
        dst_kind, dst_idx = 0, dst
    target = int(instr.target) if instr.target is not None else 0

    def rec(kind, f1=None, f2=None):
        return (kind, op, f1, m0, p0, m1, p1, dst_kind, dst_idx,
                instr.disp, f2)

    if spec.is_load:
        if opcode is Opcode.LDF:
            return rec(_K_LOAD_F, spec.mem_size)
        return rec(_K_LOAD, spec.mem_size, spec.mem_signed)
    if spec.is_store:
        if opcode is Opcode.STF:
            return rec(_K_STORE_F, spec.mem_size)
        return rec(_K_STORE, spec.mem_size)
    if spec.is_branch:
        return rec(_K_BR_COND, alu.COND_TESTS[spec.cond], target)
    if spec.is_jump:
        if opcode is Opcode.JSR:
            return rec(_K_JSR, None, target)
        if spec.is_indirect:
            return rec(_K_JMP_IND)
        return rec(_K_BR, None, target)
    if opcode is Opcode.LDA:
        return rec(_K_LDA)
    if opcode is Opcode.ITOF:
        return rec(_K_FN1, alu.convert_itof)
    if opcode is Opcode.FTOI:
        return rec(_K_FN1, alu.convert_ftoi)
    if opcode is Opcode.NOP:
        return rec(_K_NOP)
    if opcode is Opcode.HALT:
        return rec(_K_HALT)
    fn = alu.FP_OPS.get(opcode) if spec.op_class is OpClass.FP \
        else alu.INT_OPS.get(opcode)
    if fn is not None:
        return rec(_K_FN2, fn)
    fn = alu.UNARY_FP_OPS.get(opcode) if spec.op_class is OpClass.FP \
        else alu.UNARY_INT_OPS.get(opcode)
    if fn is not None:
        return rec(_K_FN1, fn)
    raise ValueError(f"cannot decode opcode {opcode}")


def decode_program(program: Program) -> tuple:
    """Pre-decoded handler records for *program*, built once and cached.

    Returns ``(decoded, reg_srcs)``: the decode tuples and the
    per-instruction register-source tuples, both indexed by
    instruction index.
    """
    cached = program.__dict__.get("_packed_decode")
    if cached is not None:
        return cached
    started = time.perf_counter()
    instructions = program.instructions
    decoded = tuple(_decode_instr(instr) for instr in instructions)
    reg_srcs = [instr.reg_sources() for instr in instructions]
    cached = (decoded, reg_srcs)
    program._packed_decode = cached
    note_dispatch_build(time.perf_counter() - started)
    return cached


class Emulator:
    """Executes programs architecturally, producing oracle traces."""

    def __init__(self, program: Program, max_instructions: int = 5_000_000):
        self._program = program
        self._max_instructions = max_instructions
        self._int_regs = [0] * NUM_INT_REGS
        self._fp_regs = [0.0] * NUM_FP_REGS
        self._int_regs[STACK_POINTER_REG] = STACK_BASE
        self._memory = Memory(program.data)
        self._pc = program.entry
        self._instret = 0
        self._halted = False

    @property
    def memory(self) -> Memory:
        return self._memory

    @property
    def halted(self) -> bool:
        """Whether execution has reached ``halt``."""
        return self._halted

    @property
    def instruction_count(self) -> int:
        """Dynamic instructions retired so far (the next entry's seq)."""
        return self._instret

    def run(self) -> EmulationResult:
        """Run until ``halt`` (or the instruction budget is exhausted).

        Telemetry is per-run (one clock read pair around the whole
        emulation; the packed loop itself stays uninstrumented so
        nothing is paid per instruction).
        """
        started_ns = time.perf_counter_ns()
        trace = self.run_packed()
        telemetry = _telemetry()
        if telemetry.enabled:
            elapsed = (time.perf_counter_ns() - started_ns) / 1e9
            telemetry.counter("repro_emu_runs_total").inc()
            telemetry.counter("repro_emu_instructions_total").inc(
                len(trace))
            telemetry.histogram("repro_emu_run_seconds").observe(elapsed)
            if elapsed > 0:
                telemetry.gauge("repro_emu_insns_per_second").set(
                    len(trace) / elapsed)
        return EmulationResult(trace=trace, halted=self._halted,
                               int_regs=list(self._int_regs),
                               fp_regs=list(self._fp_regs),
                               memory=self._memory)

    def run_packed(self, max_entries: int | None = None) -> PackedTrace:
        """Emulate from the current state into a :class:`PackedTrace`.

        Runs until ``halt``, the dynamic-instruction budget, or (when
        *max_entries* is given) that many entries — leaving the
        architectural state exactly at the boundary, ready for
        :meth:`checkpoint`.  Semantically identical to pulling the
        same number of items from :meth:`iter_trace`, but executed by
        the table-dispatch loop.
        """
        decoded, reg_srcs = decode_program(self._program)
        trace = PackedTrace(self._program.instructions, reg_srcs,
                            first_seq=self._instret)
        if self._halted or max_entries == 0:
            return trace
        # local bindings for the hot loop
        ii_ap = trace.iidx.append
        addr_ap = trace.addrs.append
        taken_ap = trace.takens.append
        npc_ap = trace.next_pcs.append
        res_ap = trace.results.append
        int_regs = self._int_regs
        fp_regs = self._fp_regs
        memory = self._memory
        mload = memory.load
        mstore = memory.store
        mload_d = memory.load_double
        mstore_d = memory.store_double
        to_s64 = alu.to_signed64
        pc = self._pc
        instret = self._instret
        max_instructions = self._max_instructions
        n = len(decoded)
        halted = False
        remaining = -1 if max_entries is None else max_entries
        try:
            while remaining != 0:
                if instret >= max_instructions:
                    raise EmulationLimit(
                        f"exceeded {max_instructions} dynamic instructions"
                        f" at pc={pc:#x}")
                off = pc - TEXT_BASE
                idx = off >> 2
                if off & 3 or not 0 <= idx < n:
                    raise IndexError(
                        f"PC {pc:#x} is outside the text segment")
                d = decoded[idx]
                kind = d[0]
                next_pc = pc + 4
                addr = NO_ADDR
                taken = NO_TAKEN
                result = None
                if kind == _K_FN2:
                    m0 = d[3]
                    p0 = d[4]
                    a = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    m1 = d[5]
                    p1 = d[6]
                    b = p1 if m1 == 0 else (
                        int_regs[p1] if m1 == 1 else (
                            fp_regs[p1] if m1 == 2 else (
                                0 if m1 == 3 else 0.0)))
                    result = d[2](a, b)
                elif kind == _K_LOAD:
                    m0 = d[3]
                    p0 = d[4]
                    base = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    addr = base + d[9]
                    if addr > _INT64_MAX or addr < _INT64_MIN:
                        addr = to_s64(addr)
                    if addr < 0:
                        raise EmulationError(
                            f"load from negative address {addr:#x}")
                    result = mload(addr, d[2], d[10])
                elif kind == _K_STORE:
                    m0 = d[3]
                    p0 = d[4]
                    data = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    m1 = d[5]
                    p1 = d[6]
                    base = p1 if m1 == 0 else (
                        int_regs[p1] if m1 == 1 else (
                            fp_regs[p1] if m1 == 2 else (
                                0 if m1 == 3 else 0.0)))
                    addr = base + d[9]
                    if addr > _INT64_MAX or addr < _INT64_MIN:
                        addr = to_s64(addr)
                    if addr < 0:
                        raise EmulationError(
                            f"store to negative address {addr:#x}")
                    mstore(addr, int(data), d[2])
                    result = data
                elif kind == _K_BR_COND:
                    m0 = d[3]
                    p0 = d[4]
                    v = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    if d[2](v):
                        taken = 1
                        next_pc = d[10]
                    else:
                        taken = 0
                elif kind == _K_FN1:
                    m0 = d[3]
                    p0 = d[4]
                    a = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    result = d[2](a)
                elif kind == _K_LDA:
                    m0 = d[3]
                    p0 = d[4]
                    a = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    result = a + d[9]
                    if result > _INT64_MAX or result < _INT64_MIN:
                        result = to_s64(result)
                elif kind == _K_BR:
                    taken = 1
                    next_pc = d[10]
                elif kind == _K_JSR:
                    taken = 1
                    next_pc = d[10]
                    result = pc + 4
                elif kind == _K_JMP_IND:
                    m0 = d[3]
                    p0 = d[4]
                    v = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    taken = 1
                    next_pc = int(v)
                elif kind == _K_LOAD_F:
                    m0 = d[3]
                    p0 = d[4]
                    base = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    addr = base + d[9]
                    if addr > _INT64_MAX or addr < _INT64_MIN:
                        addr = to_s64(addr)
                    if addr < 0:
                        raise EmulationError(
                            f"load from negative address {addr:#x}")
                    result = mload_d(addr)
                elif kind == _K_STORE_F:
                    m0 = d[3]
                    p0 = d[4]
                    data = p0 if m0 == 0 else (
                        int_regs[p0] if m0 == 1 else (
                            fp_regs[p0] if m0 == 2 else (
                                0 if m0 == 3 else 0.0)))
                    m1 = d[5]
                    p1 = d[6]
                    base = p1 if m1 == 0 else (
                        int_regs[p1] if m1 == 1 else (
                            fp_regs[p1] if m1 == 2 else (
                                0 if m1 == 3 else 0.0)))
                    addr = base + d[9]
                    if addr > _INT64_MAX or addr < _INT64_MIN:
                        addr = to_s64(addr)
                    if addr < 0:
                        raise EmulationError(
                            f"store to negative address {addr:#x}")
                    mstore_d(addr, float(data))
                    result = data
                elif kind == _K_NOP:
                    pass
                else:  # _K_HALT
                    halted = True
                    break
                if result is not None:
                    dst_kind = d[7]
                    if dst_kind == 0:
                        int_regs[d[8]] = result
                    elif dst_kind == 1:
                        fp_regs[d[8]] = result
                ii_ap(idx)
                addr_ap(addr)
                taken_ap(taken)
                npc_ap(next_pc)
                res_ap(result)
                pc = next_pc
                instret += 1
                remaining -= 1
        finally:
            self._pc = pc
            self._instret = instret
            if halted:
                self._halted = True
        note_packed_build(trace)
        return trace

    def iter_trace(self) -> Iterator[TraceEntry]:
        """Lazily yield trace entries from the current state.

        The generator advances architectural state one instruction per
        item pulled, so a consumer that stops after *n* items leaves
        the emulator exactly *n* instructions further along — at which
        point :meth:`checkpoint` captures a clean segment boundary.
        Resuming iteration (from the same generator or a fresh one)
        continues the stream with monotonically increasing ``seq``.
        """
        while not self._halted:
            if self._instret >= self._max_instructions:
                raise EmulationLimit(
                    f"exceeded {self._max_instructions} dynamic instructions"
                    f" at pc={self._pc:#x}")
            entry = self.step(self._instret)
            if entry is None:
                self._halted = True
                return
            self._instret += 1
            yield entry

    # ------------------------------------------------------------------
    # checkpoint / restore of architectural state
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the architectural state for a later :meth:`restore`."""
        return Checkpoint(pc=self._pc, instret=self._instret,
                          halted=self._halted,
                          int_regs=tuple(self._int_regs),
                          fp_regs=tuple(self._fp_regs),
                          memory_image=self._memory.snapshot())

    def restore(self, state: Checkpoint) -> None:
        """Rewind/forward the emulator to a :meth:`checkpoint` state.

        The checkpoint must come from an emulator running the same
        program; nothing about the static code image is snapshotted.
        """
        self._pc = state.pc
        self._instret = state.instret
        self._halted = state.halted
        self._int_regs = list(state.int_regs)
        self._fp_regs = list(state.fp_regs)
        self._memory = Memory(state.memory_image)

    # ------------------------------------------------------------------
    # single-step execution (the reference implementation the packed
    # loop is differentially tested against)
    # ------------------------------------------------------------------

    def step(self, seq: int) -> TraceEntry | None:
        """Execute one instruction; return its trace entry (None = halt)."""
        instr = self._program.at(self._pc)
        opcode = instr.opcode
        if opcode is Opcode.HALT:
            return None
        spec = instr.spec
        src_values = tuple(self._read(src) for src in instr.srcs)
        result: int | float | None = None
        addr: int | None = None
        taken: bool | None = None
        next_pc = self._pc + INSTR_BYTES

        if spec.is_load:
            addr = alu.to_signed64(src_values[0] + instr.disp)
            result = self._do_load(opcode, addr, spec)
        elif spec.is_store:
            addr = alu.to_signed64(src_values[1] + instr.disp)
            self._do_store(opcode, addr, src_values[0], spec)
            result = src_values[0]
        elif spec.is_branch:
            taken = alu.branch_taken(spec.cond, src_values[0])
            if taken:
                next_pc = int(instr.target)
        elif spec.is_jump:
            taken = True
            if spec.is_indirect:
                next_pc = int(src_values[0])
            else:
                next_pc = int(instr.target)
            if opcode is Opcode.JSR:
                result = self._pc + INSTR_BYTES
        elif opcode is Opcode.LDA:
            result = alu.evaluate_int(Opcode.LDA, src_values[0], instr.disp)
        elif opcode is Opcode.ITOF:
            result = alu.convert_itof(src_values[0])
        elif opcode is Opcode.FTOI:
            result = alu.convert_ftoi(src_values[0])
        elif spec.op_class is OpClass.FP:
            result = alu.evaluate_fp(opcode, *src_values)
        elif opcode is Opcode.NOP:
            result = None
        else:
            result = alu.evaluate_int(opcode, *src_values)

        if instr.dst is not None and result is not None:
            self._write(instr.dst, result)

        entry = TraceEntry(seq=seq, pc=self._pc, instr=instr, result=result,
                           addr=addr, taken=taken, next_pc=next_pc)
        self._pc = next_pc
        return entry

    # ------------------------------------------------------------------
    # register and memory access helpers
    # ------------------------------------------------------------------

    def _read(self, src: Reg | Imm) -> int | float:
        if isinstance(src, Imm):
            return src.value
        index = src.index
        if is_zero_reg(index):
            return 0.0 if is_fp_reg(index) else 0
        if is_fp_reg(index):
            return self._fp_regs[index - NUM_INT_REGS]
        return self._int_regs[index]

    def _write(self, dst: int, value: int | float) -> None:
        if is_zero_reg(dst):
            return
        if is_fp_reg(dst):
            self._fp_regs[dst - NUM_INT_REGS] = float(value)
        else:
            self._int_regs[dst] = alu.to_signed64(int(value))

    def _do_load(self, opcode: Opcode, addr: int, spec) -> int | float:
        if addr < 0:
            raise EmulationError(f"load from negative address {addr:#x}")
        if opcode is Opcode.LDF:
            return self._memory.load_double(addr)
        return self._memory.load(addr, spec.mem_size, signed=spec.mem_signed)

    def _do_store(self, opcode: Opcode, addr: int, value: int | float,
                  spec) -> None:
        if addr < 0:
            raise EmulationError(f"store to negative address {addr:#x}")
        if opcode is Opcode.STF:
            self._memory.store_double(addr, float(value))
        else:
            self._memory.store(addr, int(value), spec.mem_size)


def run_program(program: Program,
                max_instructions: int = 5_000_000) -> EmulationResult:
    """Convenience wrapper: emulate *program* and return the result."""
    return Emulator(program, max_instructions=max_instructions).run()

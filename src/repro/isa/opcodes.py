"""Opcode definitions and static per-opcode metadata.

Each opcode carries an :class:`OpSpec` describing everything the rest of
the system needs to know statically:

* which functional-unit class executes it (:class:`OpClass`),
* its execution latency in cycles,
* whether it is *simple* in the paper's sense — a single-cycle operation
  that the optimizer's rename-stage ALUs are allowed to execute early
  (Section 2, footnote 1 of the paper),
* memory access size and signedness for loads/stores,
* the branch condition for control-flow instructions.

The opcode set is deliberately Alpha-flavoured (the paper's workloads
were Alpha binaries): compare-against-zero conditional branches, scaled
adds (``s4add``/``s8add``) that feed the optimizer's
``(reg << scale) ± offset`` symbolic form, and explicit-size loads and
stores.
"""

from __future__ import annotations

import enum
import time as _time
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class; maps to the paper's four schedulers."""

    INT_SIMPLE = "int_simple"  # simple IALU, 1 cycle
    INT_COMPLEX = "int_complex"  # complex IALU (mul/div)
    FP = "fp"  # FP ALU
    MEM = "mem"  # address generation + D-cache
    BRANCH = "branch"  # executes on a simple IALU
    MISC = "misc"  # nop / halt


class BranchCond(enum.Enum):
    """Condition tested by conditional branches (register vs. zero)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    GE = "ge"
    LE = "le"
    GT = "gt"
    ALWAYS = "always"


@dataclass(frozen=True)
class OpSpec:
    """Static properties of one opcode."""

    mnemonic: str
    op_class: OpClass
    latency: int = 1
    simple: bool = True
    num_srcs: int = 2
    has_dst: bool = True
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_jump: bool = False  # unconditional control flow (br/jsr/ret/jmp)
    is_indirect: bool = False  # target comes from a register
    mem_size: int = 0
    mem_signed: bool = True
    cond: BranchCond | None = None
    commutative: bool = False
    writes_fp: bool = False


class Opcode(enum.Enum):
    """All opcodes understood by the assembler, emulator, and pipeline."""

    # --- integer ALU -------------------------------------------------
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    BIC = "bic"  # a & ~b
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    S4ADD = "s4add"  # (a << 2) + b
    S8ADD = "s8add"  # (a << 3) + b
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPULT = "cmpult"
    CMPULE = "cmpule"
    MOV = "mov"  # register or immediate move
    SEXTB = "sextb"
    SEXTW = "sextw"
    SEXTL = "sextl"
    # --- integer complex ---------------------------------------------
    MUL = "mul"
    DIV = "div"  # signed division, truncating toward zero
    REM = "rem"
    # --- floating point ----------------------------------------------
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    FNEG = "fneg"
    FCMPEQ = "fcmpeq"  # writes 1.0 / 0.0 into an FP register
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    ITOF = "itof"  # convert integer register to FP value
    FTOI = "ftoi"  # truncate FP value to integer register
    # --- memory -------------------------------------------------------
    LDB = "ldb"
    LDBU = "ldbu"
    LDW = "ldw"
    LDWU = "ldwu"
    LDL = "ldl"
    LDLU = "ldlu"
    LDQ = "ldq"
    LDF = "ldf"  # load 8-byte IEEE double into an FP register
    STB = "stb"
    STW = "stw"
    STL = "stl"
    STQ = "stq"
    STF = "stf"  # store an FP register as an 8-byte IEEE double
    LDA = "lda"  # address calculation: dst = base + disp (an add)
    # --- control flow --------------------------------------------------
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    FBEQ = "fbeq"  # branch if FP register == 0.0
    FBNE = "fbne"
    BR = "br"
    JSR = "jsr"  # call: link register <- return address, jump to label
    RET = "ret"  # indirect jump through a register (no link)
    JMP = "jmp"  # indirect jump through a register (no link)
    # --- misc ----------------------------------------------------------
    NOP = "nop"
    HALT = "halt"


def _alu(mnemonic: str, commutative: bool = False, num_srcs: int = 2) -> OpSpec:
    return OpSpec(mnemonic, OpClass.INT_SIMPLE, latency=1, simple=True,
                  num_srcs=num_srcs, commutative=commutative)


def _cplx(mnemonic: str, latency: int, commutative: bool = False) -> OpSpec:
    return OpSpec(mnemonic, OpClass.INT_COMPLEX, latency=latency,
                  simple=False, commutative=commutative)


def _fp(mnemonic: str, latency: int, num_srcs: int = 2) -> OpSpec:
    return OpSpec(mnemonic, OpClass.FP, latency=latency, simple=False,
                  num_srcs=num_srcs, writes_fp=True)


def _load(mnemonic: str, size: int, signed: bool = True,
          fp: bool = False) -> OpSpec:
    return OpSpec(mnemonic, OpClass.MEM, latency=1, simple=False,
                  num_srcs=1, is_load=True, mem_size=size,
                  mem_signed=signed, writes_fp=fp)


def _store(mnemonic: str, size: int) -> OpSpec:
    return OpSpec(mnemonic, OpClass.MEM, latency=1, simple=False,
                  num_srcs=2, has_dst=False, is_store=True, mem_size=size)


def _branch(mnemonic: str, cond: BranchCond) -> OpSpec:
    return OpSpec(mnemonic, OpClass.BRANCH, latency=1, simple=True,
                  num_srcs=1, has_dst=False, is_branch=True, cond=cond)


OP_SPECS: dict[Opcode, OpSpec] = {
    Opcode.ADD: _alu("add", commutative=True),
    Opcode.SUB: _alu("sub"),
    Opcode.AND: _alu("and", commutative=True),
    Opcode.OR: _alu("or", commutative=True),
    Opcode.XOR: _alu("xor", commutative=True),
    Opcode.BIC: _alu("bic"),
    Opcode.SLL: _alu("sll"),
    Opcode.SRL: _alu("srl"),
    Opcode.SRA: _alu("sra"),
    Opcode.S4ADD: _alu("s4add"),
    Opcode.S8ADD: _alu("s8add"),
    Opcode.CMPEQ: _alu("cmpeq", commutative=True),
    Opcode.CMPNE: _alu("cmpne", commutative=True),
    Opcode.CMPLT: _alu("cmplt"),
    Opcode.CMPLE: _alu("cmple"),
    Opcode.CMPULT: _alu("cmpult"),
    Opcode.CMPULE: _alu("cmpule"),
    Opcode.MOV: _alu("mov", num_srcs=1),
    Opcode.SEXTB: _alu("sextb", num_srcs=1),
    Opcode.SEXTW: _alu("sextw", num_srcs=1),
    Opcode.SEXTL: _alu("sextl", num_srcs=1),
    Opcode.MUL: _cplx("mul", latency=3, commutative=True),
    Opcode.DIV: _cplx("div", latency=20),
    Opcode.REM: _cplx("rem", latency=20),
    Opcode.FADD: _fp("fadd", latency=4),
    Opcode.FSUB: _fp("fsub", latency=4),
    Opcode.FMUL: _fp("fmul", latency=4),
    Opcode.FDIV: _fp("fdiv", latency=12),
    Opcode.FMOV: _fp("fmov", latency=1, num_srcs=1),
    Opcode.FNEG: _fp("fneg", latency=1, num_srcs=1),
    Opcode.FCMPEQ: _fp("fcmpeq", latency=4),
    Opcode.FCMPLT: _fp("fcmplt", latency=4),
    Opcode.FCMPLE: _fp("fcmple", latency=4),
    Opcode.ITOF: _fp("itof", latency=4, num_srcs=1),
    Opcode.FTOI: OpSpec("ftoi", OpClass.FP, latency=4, simple=False,
                        num_srcs=1),
    Opcode.LDB: _load("ldb", 1, signed=True),
    Opcode.LDBU: _load("ldbu", 1, signed=False),
    Opcode.LDW: _load("ldw", 2, signed=True),
    Opcode.LDWU: _load("ldwu", 2, signed=False),
    Opcode.LDL: _load("ldl", 4, signed=True),
    Opcode.LDLU: _load("ldlu", 4, signed=False),
    Opcode.LDQ: _load("ldq", 8, signed=True),
    Opcode.LDF: _load("ldf", 8, signed=True, fp=True),
    Opcode.STB: _store("stb", 1),
    Opcode.STW: _store("stw", 2),
    Opcode.STL: _store("stl", 4),
    Opcode.STQ: _store("stq", 8),
    Opcode.STF: _store("stf", 8),
    Opcode.LDA: _alu("lda", num_srcs=1),
    Opcode.BEQ: _branch("beq", BranchCond.EQ),
    Opcode.BNE: _branch("bne", BranchCond.NE),
    Opcode.BLT: _branch("blt", BranchCond.LT),
    Opcode.BGE: _branch("bge", BranchCond.GE),
    Opcode.BLE: _branch("ble", BranchCond.LE),
    Opcode.BGT: _branch("bgt", BranchCond.GT),
    Opcode.FBEQ: OpSpec("fbeq", OpClass.BRANCH, latency=1, simple=False,
                        num_srcs=1, has_dst=False, is_branch=True,
                        cond=BranchCond.EQ),
    Opcode.FBNE: OpSpec("fbne", OpClass.BRANCH, latency=1, simple=False,
                        num_srcs=1, has_dst=False, is_branch=True,
                        cond=BranchCond.NE),
    Opcode.BR: OpSpec("br", OpClass.BRANCH, latency=1, simple=True,
                      num_srcs=0, has_dst=False, is_jump=True,
                      cond=BranchCond.ALWAYS),
    Opcode.JSR: OpSpec("jsr", OpClass.BRANCH, latency=1, simple=True,
                       num_srcs=0, has_dst=True, is_jump=True,
                       cond=BranchCond.ALWAYS),
    Opcode.RET: OpSpec("ret", OpClass.BRANCH, latency=1, simple=True,
                       num_srcs=1, has_dst=False, is_jump=True,
                       is_indirect=True, cond=BranchCond.ALWAYS),
    Opcode.JMP: OpSpec("jmp", OpClass.BRANCH, latency=1, simple=True,
                       num_srcs=1, has_dst=False, is_jump=True,
                       is_indirect=True, cond=BranchCond.ALWAYS),
    Opcode.NOP: OpSpec("nop", OpClass.MISC, latency=1, simple=True,
                       num_srcs=0, has_dst=False),
    Opcode.HALT: OpSpec("halt", OpClass.MISC, latency=1, simple=False,
                        num_srcs=0, has_dst=False),
}

#: Mnemonic -> Opcode lookup for the assembler.
MNEMONIC_TO_OPCODE: dict[str, Opcode] = {
    spec.mnemonic: op for op, spec in OP_SPECS.items()
}


def spec_of(opcode: Opcode) -> OpSpec:
    """Return the :class:`OpSpec` for *opcode*."""
    return OP_SPECS[opcode]


# ---------------------------------------------------------------------------
# Integer-indexed dispatch tables
# ---------------------------------------------------------------------------
# The hot loops (emulator, pipeline stages, optimizer rename) dispatch on
# small-integer opcode ids against flat tuples instead of hashing enum
# members into ``OP_SPECS`` and chasing ``OpSpec`` attributes per dynamic
# instruction.  The tables are built exactly once, at import.

_build_started = _time.perf_counter()

#: Opcodes in definition order; the index of an opcode here is its id.
OPCODES_BY_ID: tuple[Opcode, ...] = tuple(Opcode)
#: Opcode -> stable small-integer id (definition order).
OPCODE_ID: dict[Opcode, int] = {op: i for i, op in enumerate(OPCODES_BY_ID)}

#: Scheduler-queue ids, mirroring ``uarch.scheduler``: BRANCH and MISC
#: ops execute on the simple-int scheduler.
QUEUE_INT, QUEUE_COMPLEX, QUEUE_FP, QUEUE_MEM = range(4)
_CLASS_QUEUE = {
    OpClass.INT_SIMPLE: QUEUE_INT,
    OpClass.BRANCH: QUEUE_INT,
    OpClass.MISC: QUEUE_INT,
    OpClass.INT_COMPLEX: QUEUE_COMPLEX,
    OpClass.FP: QUEUE_FP,
    OpClass.MEM: QUEUE_MEM,
}


def _table(field):
    return tuple(field(OP_SPECS[op]) for op in OPCODES_BY_ID)


OP_SPEC_BY_ID: tuple[OpSpec, ...] = _table(lambda s: s)
OP_LATENCY: tuple[int, ...] = _table(lambda s: s.latency)
OP_IS_LOAD: tuple[bool, ...] = _table(lambda s: s.is_load)
OP_IS_STORE: tuple[bool, ...] = _table(lambda s: s.is_store)
OP_IS_BRANCH: tuple[bool, ...] = _table(lambda s: s.is_branch)
OP_IS_CONTROL: tuple[bool, ...] = _table(lambda s: s.is_branch or s.is_jump)
OP_MEM_SIZE: tuple[int, ...] = _table(lambda s: s.mem_size)
OP_COND: tuple[BranchCond | None, ...] = _table(lambda s: s.cond)
OP_QUEUE: tuple[int, ...] = _table(lambda s: _CLASS_QUEUE[s.op_class])

#: Wall-clock seconds spent building the dispatch tables above (reported
#: through the ``repro_dispatch_table_build_seconds`` telemetry gauge).
DISPATCH_TABLE_BUILD_SECONDS: float = _time.perf_counter() - _build_started

"""Integer and floating-point operation semantics.

This module is the single source of truth for what every opcode
computes.  It is shared by:

* the functional emulator (the architectural oracle),
* the timing model's execution units, and
* the continuous optimizer's rename-stage ALUs (early execution).

Sharing one implementation is how the reproduction honours the paper's
"strict expression and value checking" (Section 4.2): any value the
optimizer computes early is, by construction and by test, the value the
execution core would have computed.

Integer values are 64-bit two's complement, carried as Python ints in
the signed range ``[-2**63, 2**63 - 1]``.
"""

from __future__ import annotations

import operator
from functools import partial

from ..isa.opcodes import BranchCond, Opcode

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def to_signed64(value: int) -> int:
    """Wrap an arbitrary Python int into signed 64-bit range."""
    value &= _MASK64
    if value & _SIGN64:
        value -= 1 << 64
    return value


def to_unsigned64(value: int) -> int:
    """Reinterpret a signed 64-bit value as unsigned."""
    return value & _MASK64


def sign_extend(value: int, size: int) -> int:
    """Sign-extend the low *size* bytes of *value* to 64 bits."""
    bits = size * 8
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def zero_extend(value: int, size: int) -> int:
    """Zero-extend the low *size* bytes of *value* to 64 bits."""
    return value & ((1 << (size * 8)) - 1)


def _div_trunc(a: int, b: int) -> int:
    if b == 0:
        return 0  # Alpha-style: no trap in this ISA; define as zero
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return to_signed64(quotient)


def _rem_trunc(a: int, b: int) -> int:
    if b == 0:
        return 0
    return to_signed64(a - _div_trunc(a, b) * b)


# An operation wraps its result only when it leaves the signed range:
# for in-range inputs most never do, and the check costs less than the
# call to :func:`to_signed64` it saves.
_INT_OPS = {
    Opcode.ADD: lambda a, b: (
        v if INT64_MIN <= (v := a + b) <= INT64_MAX else to_signed64(v)),
    Opcode.SUB: lambda a, b: (
        v if INT64_MIN <= (v := a - b) <= INT64_MAX else to_signed64(v)),
    Opcode.AND: lambda a, b: (
        v if INT64_MIN <= (v := a & b) <= INT64_MAX else to_signed64(v)),
    Opcode.OR: lambda a, b: (
        v if INT64_MIN <= (v := a | b) <= INT64_MAX else to_signed64(v)),
    Opcode.XOR: lambda a, b: (
        v if INT64_MIN <= (v := a ^ b) <= INT64_MAX else to_signed64(v)),
    Opcode.BIC: lambda a, b: (
        v if INT64_MIN <= (v := a & ~b) <= INT64_MAX else to_signed64(v)),
    Opcode.SLL: lambda a, b: (
        v if INT64_MIN <= (v := a << (b & 0x3F)) <= INT64_MAX
        else to_signed64(v)),
    Opcode.SRL: lambda a, b: (
        v if (v := (a & _MASK64) >> (b & 0x3F)) <= INT64_MAX
        else to_signed64(v)),
    Opcode.SRA: lambda a, b: (
        v if INT64_MIN <= (v := a >> (b & 0x3F)) <= INT64_MAX
        else to_signed64(v)),
    Opcode.S4ADD: lambda a, b: (
        v if INT64_MIN <= (v := (a << 2) + b) <= INT64_MAX
        else to_signed64(v)),
    Opcode.S8ADD: lambda a, b: (
        v if INT64_MIN <= (v := (a << 3) + b) <= INT64_MAX
        else to_signed64(v)),
    Opcode.CMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMPNE: lambda a, b: 1 if a != b else 0,
    Opcode.CMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.CMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMPULT: lambda a, b: 1 if a & _MASK64 < b & _MASK64 else 0,
    Opcode.CMPULE: lambda a, b: 1 if a & _MASK64 <= b & _MASK64 else 0,
    Opcode.MUL: lambda a, b: (
        v if INT64_MIN <= (v := a * b) <= INT64_MAX else to_signed64(v)),
    Opcode.DIV: _div_trunc,
    Opcode.REM: _rem_trunc,
}

_UNARY_INT_OPS = {
    Opcode.MOV: lambda a: (
        a if INT64_MIN <= a <= INT64_MAX else to_signed64(a)),
    Opcode.SEXTB: lambda a: sign_extend(a, 1),
    Opcode.SEXTW: lambda a: sign_extend(a, 2),
    Opcode.SEXTL: lambda a: sign_extend(a, 4),
}

_FP_OPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b != 0.0 else 0.0,
    Opcode.FCMPEQ: lambda a, b: 1.0 if a == b else 0.0,
    Opcode.FCMPLT: lambda a, b: 1.0 if a < b else 0.0,
    Opcode.FCMPLE: lambda a, b: 1.0 if a <= b else 0.0,
}

_UNARY_FP_OPS = {
    Opcode.FMOV: lambda a: a,
    Opcode.FNEG: lambda a: -a,
}


#: Public views of the per-opcode handler dicts, used to build the
#: emulator's integer-dispatch tables (one callable per opcode id).
INT_OPS = _INT_OPS
UNARY_INT_OPS = _UNARY_INT_OPS
FP_OPS = _FP_OPS
UNARY_FP_OPS = _UNARY_FP_OPS

#: Branch-condition test per :class:`BranchCond`, mirroring
#: :func:`branch_taken` one callable per condition so the emulator's
#: dispatch loop skips the if-chain.  Each compares zero with *v*, the
#: operator mirrored (``v < 0`` is ``0 > v``), in C: a test costs no
#: Python call.
COND_TESTS = {
    BranchCond.ALWAYS: lambda v: True,
    BranchCond.EQ: partial(operator.eq, 0),
    BranchCond.NE: partial(operator.ne, 0),
    BranchCond.LT: partial(operator.gt, 0),
    BranchCond.GE: partial(operator.le, 0),
    BranchCond.LE: partial(operator.ge, 0),
    BranchCond.GT: partial(operator.lt, 0),
}


def evaluate_int(opcode: Opcode, a: int, b: int = 0) -> int:
    """Evaluate an integer opcode over signed 64-bit inputs."""
    op = _INT_OPS.get(opcode)
    if op is not None:
        return op(a, b)
    unary = _UNARY_INT_OPS.get(opcode)
    if unary is not None:
        return unary(a)
    if opcode is Opcode.LDA:
        return to_signed64(a + b)  # base + displacement
    raise ValueError(f"not an integer ALU opcode: {opcode}")


def evaluate_fp(opcode: Opcode, a: float, b: float = 0.0) -> float:
    """Evaluate a floating-point opcode."""
    op = _FP_OPS.get(opcode)
    if op is not None:
        return op(a, b)
    unary = _UNARY_FP_OPS.get(opcode)
    if unary is not None:
        return unary(a)
    raise ValueError(f"not an FP opcode: {opcode}")


def convert_itof(value: int) -> float:
    """``itof``: integer value to FP value."""
    return float(value)


def convert_ftoi(value: float) -> int:
    """``ftoi``: truncate an FP value toward zero into 64-bit range."""
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    return to_signed64(int(value))


def branch_taken(cond: BranchCond, value: int | float) -> bool:
    """Evaluate a branch condition against a register value vs. zero."""
    if cond is BranchCond.ALWAYS:
        return True
    if cond is BranchCond.EQ:
        return value == 0
    if cond is BranchCond.NE:
        return value != 0
    if cond is BranchCond.LT:
        return value < 0
    if cond is BranchCond.GE:
        return value >= 0
    if cond is BranchCond.LE:
        return value <= 0
    if cond is BranchCond.GT:
        return value > 0
    raise ValueError(f"unknown branch condition: {cond}")


def is_int_alu_op(opcode: Opcode) -> bool:
    """True if :func:`evaluate_int` can evaluate *opcode*."""
    return (opcode in _INT_OPS or opcode in _UNARY_INT_OPS
            or opcode is Opcode.LDA)

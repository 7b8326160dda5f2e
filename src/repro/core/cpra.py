"""Constant propagation and reassociation (CP/RA) transformations.

Pure dataflow logic of the rename-stage optimizer, separated from the
table plumbing for testability.  Given an opcode and its source
expressions (each already resolved against the RAT symbolic state and
the known-value table), CP/RA decides, exactly as the hardware in
Section 3.1 does, whether the instruction

* **executes early** — all inputs known and the operation is simple
  (single-cycle), so the rename-stage ALU produces the final value;
* is **rewritten** — the destination gets a new symbolic value of the
  form ``(base << scale) ± offset``, shifting the dependence to an
  earlier producer (reassociation) and/or folding constants; or
* stays **plain** — the result is not encodable symbolically and the
  instruction executes unchanged in the out-of-order core.

Also implemented here: the paper's minor optimizations — move
collapsing, strength reduction of multiplies by powers of two into
shifts, and early branch resolution.

Dispatch is by opcode id.  :data:`HANDLERS` holds one handler per id,
built once at import; ``lda`` shares the ``add`` handler (its
displacement is the second source).  A handler takes the two resolved
sources ``(a, b)`` — ``b`` is None for one-source opcodes — and
returns a plain tuple ``(kind, value, sym, uses_alu,
strength_reduced)`` whose ``kind`` is the integer :data:`EARLY`,
:data:`REWRITTEN` or :data:`PLAIN`.  An early result folded from
constants has ``sym`` None: its symbolic value is the constant
``value``, which the caller builds only if it needs it.  The renamer
calls the table directly; :func:`transform` runs the same table and
wraps the result in an :class:`Outcome`.  Early values always come
from the shared ALU semantics in :mod:`repro.functional.alu`, each in
one call.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from ..functional import alu
from ..isa.opcodes import OP_COND, OPCODE_ID, OPCODES_BY_ID, BranchCond, Opcode
from .symbolic import SymVal, add_const, const, shift_left

#: Integer outcome kinds returned by the :data:`HANDLERS`.
EARLY, REWRITTEN, PLAIN = range(3)


class Kind(enum.Enum):
    """Outcome category of one CP/RA attempt."""

    EARLY = "early"  # executed in the optimizer
    REWRITTEN = "rewritten"  # new symbolic value for the destination
    PLAIN = "plain"  # no optimization


_KINDS = (Kind.EARLY, Kind.REWRITTEN, Kind.PLAIN)

_OutcomeFields = namedtuple(
    "_OutcomeFields",
    ("kind", "value", "sym", "uses_alu", "strength_reduced"),
    defaults=(None, None, False, False))


class Outcome(_OutcomeFields):
    """Result of :func:`transform` for one instruction.

    ``value`` is the computed result (EARLY); ``sym`` the destination's
    symbolic value (EARLY/REWRITTEN); ``uses_alu`` marks consumption of
    an optimizer ALU (depth accounting); ``strength_reduced`` a
    multiply converted to a shift.
    """

    __slots__ = ()

    @property
    def is_early(self) -> bool:
        return self[0] is Kind.EARLY

    @property
    def is_rewritten(self) -> bool:
        return self[0] is Kind.REWRITTEN


_PLAIN = (PLAIN, None, None, False, False)


def _plain(a: SymVal, b: SymVal | None) -> tuple:
    # Never early (multi-cycle) and no symbolic form.
    return _PLAIN


def _mov(a: SymVal, b: None) -> tuple:
    if a[0] is None:
        return (EARLY, a[2], a, False, False)
    # Move collapsing: copy the producer's symbolic value; pure
    # wiring, no optimizer ALU consumed.
    return (REWRITTEN, None, a, False, False)


_ALU_ADD = alu.INT_OPS[Opcode.ADD]
_ALU_SUB = alu.INT_OPS[Opcode.SUB]
_ALU_SLL = alu.INT_OPS[Opcode.SLL]


def _add(a: SymVal, b: SymVal) -> tuple:
    if a[0] is None:
        if b[0] is None:
            value = _ALU_ADD(a[2], b[2])
            return (EARLY, value, None, True, False)
        return (REWRITTEN, None, add_const(b, a[2]), True, False)
    if b[0] is None:
        return (REWRITTEN, None, add_const(a, b[2]), True, False)
    return _PLAIN


def _sub(a: SymVal, b: SymVal) -> tuple:
    if b[0] is None:
        if a[0] is None:
            value = _ALU_SUB(a[2], b[2])
            return (EARLY, value, None, True, False)
        return (REWRITTEN, None, add_const(a, -b[2]), True, False)
    # Only sym - const is representable.
    return _PLAIN


def _make_scaled_add(fn, shift: int):
    def scaled_add(a: SymVal, b: SymVal) -> tuple:
        if a[0] is None:
            if b[0] is None:
                value = fn(a[2], b[2])
                return (EARLY, value, None, True, False)
            # (const << k) + sym  ->  sym + (const << k)
            return (REWRITTEN, None,
                    add_const(b, alu.to_signed64(a[2] << shift)),
                    True, False)
        if b[0] is None:
            shifted = shift_left(a, shift)
            if shifted is not None:
                return (REWRITTEN, None, add_const(shifted, b[2]),
                        True, False)
        return _PLAIN
    return scaled_add


def _shift_left(a: SymVal, b: SymVal) -> tuple:
    if b[0] is None:
        if a[0] is None:
            value = _ALU_SLL(a[2], b[2])
            return (EARLY, value, None, True, False)
        shifted = shift_left(a, b[2] & 0x3F)
        if shifted is not None:
            return (REWRITTEN, None, shifted, True, False)
    return _PLAIN


def _multiply(a: SymVal, b: SymVal) -> tuple:
    """Strength reduction: multiply by a power of two becomes a shift."""
    for multiplier, other in ((a, b), (b, a)):
        if multiplier[0] is not None:
            continue
        factor = multiplier[2]
        if factor == 0:
            return (EARLY, 0, None, True, True)
        if factor == 1:
            if other[0] is None:
                return (EARLY, other[2], other, True, True)
            return (REWRITTEN, None, other, True, True)
        if factor > 1 and factor & (factor - 1) == 0:
            shift = factor.bit_length() - 1
            if other[0] is None:
                value = _ALU_SLL(other[2], shift)
                return (EARLY, value, None, True, True)
            shifted = shift_left(other, shift)
            if shifted is not None:
                return (REWRITTEN, None, shifted, True, True)
            # Still executable as a 1-cycle shift even though the
            # result is not symbolically encodable.
            return (PLAIN, None, None, False, True)
    return _PLAIN


def _make_fold(fn):
    def fold(a: SymVal, b: SymVal) -> tuple:
        if a[0] is None and b[0] is None:
            value = fn(a[2], b[2])
            return (EARLY, value, None, True, False)
        return _PLAIN
    return fold


def _make_unary_fold(fn):
    def unary_fold(a: SymVal, b: None) -> tuple:
        if a[0] is None:
            value = fn(a[2])
            return (EARLY, value, None, True, False)
        return _PLAIN
    return unary_fold


_HANDLER_OF = {
    Opcode.ADD: _add,
    Opcode.LDA: _add,
    Opcode.SUB: _sub,
    Opcode.S4ADD: _make_scaled_add(alu.INT_OPS[Opcode.S4ADD], 2),
    Opcode.S8ADD: _make_scaled_add(alu.INT_OPS[Opcode.S8ADD], 3),
    Opcode.SLL: _shift_left,
    Opcode.MUL: _multiply,
    Opcode.MOV: _mov,
}
# Opcodes that fold to a constant when all sources are constant but
# have no symbolic (base << scale) + offset form otherwise.
for _opcode in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.BIC,
                Opcode.SRL, Opcode.SRA, Opcode.CMPEQ, Opcode.CMPNE,
                Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPULT, Opcode.CMPULE):
    _HANDLER_OF[_opcode] = _make_fold(alu.INT_OPS[_opcode])
for _opcode in (Opcode.SEXTB, Opcode.SEXTW, Opcode.SEXTL):
    _HANDLER_OF[_opcode] = _make_unary_fold(alu.UNARY_INT_OPS[_opcode])

#: CP/RA handler per opcode id (see the module docstring); div, rem
#: and every non-integer opcode get the plain handler.
HANDLERS = tuple(_HANDLER_OF.get(opcode, _plain) for opcode in OPCODES_BY_ID)


def transform(opcode: Opcode, srcs: list[SymVal]) -> Outcome:
    """Apply CP/RA to one integer instruction.

    *srcs* holds one resolved :class:`SymVal` per source operand
    (immediates arrive as constants).  ``lda`` takes the displacement
    as its second source, exactly like ``add``.
    """
    kind, value, sym, uses_alu, reduced = HANDLERS[OPCODE_ID[opcode]](
        srcs[0], srcs[1] if len(srcs) > 1 else None)
    if kind == EARLY and sym is None:
        sym = const(value)
    return Outcome(_KINDS[kind], value, sym, uses_alu, reduced)


def branch_implied_value(opcode: Opcode, taken: bool) -> int | None:
    """Value a branch direction implies for its source register.

    ``beq`` taken (or ``bne`` not taken) proves the register is zero
    (Section 2.1's final minor optimization).  Other conditions give
    only inequalities, which the symbolic form cannot encode.
    """
    if opcode is Opcode.BEQ and taken:
        return 0
    if opcode is Opcode.BNE and not taken:
        return 0
    return None


#: Per opcode id: the branch condition's test of a known source value
#: (None for opcodes without a condition).
BRANCH_TESTS = tuple(None if cond is None else alu.COND_TESTS[cond]
                     for cond in OP_COND)

#: Per opcode id: the constant :func:`branch_implied_value` gives the
#: source register when the branch is not taken and when it is taken
#: (None where it gives nothing).
IMPLIED_CONSTS = tuple(
    tuple(None if value is None else const(value)
          for value in (branch_implied_value(opcode, False),
                        branch_implied_value(opcode, True)))
    for opcode in OPCODES_BY_ID)


def resolve_branch(cond: BranchCond, src: SymVal) -> bool | None:
    """Early branch resolution: the outcome if the source is known."""
    if src[0] is not None:
        return None
    return alu.COND_TESTS[cond](src[2])

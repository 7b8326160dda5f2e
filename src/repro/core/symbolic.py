"""Symbolic register values: ``(preg << scale) ± offset``.

Section 3.1 of the paper: the optimizer maintains, per integer
architectural register, a symbolic expression of the form
``(reg << scale) ± offset`` where ``reg`` is a physical register,
``scale`` is a two-bit shift (0-3), and ``offset`` is a 64-bit
immediate.  A constant is encoded by pointing ``reg`` at the hardwired
zero register; here we use ``base is None``.

:class:`SymVal` is an immutable named tuple — symbolic values are
created on almost every renamed instruction, so construction cost
matters.  The module-level helpers (:func:`const`, :func:`plain`,
:func:`add_const`, :func:`shift_left`) build values through the raw
tuple constructor (their arguments are valid by construction) and
intern the common cases; direct ``SymVal(...)`` construction keeps the
field validation.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from ..functional.alu import to_signed64

#: Hardware limit on the scale field (two bits).
MAX_SCALE = 3

_SymFields = namedtuple("_SymFields", ("base", "scale", "offset"))


class SymVal(_SymFields):
    """One symbolic value: ``(base << scale) + offset`` or a constant.

    ``base`` is a physical register index; ``None`` encodes a constant
    whose value lives in ``offset``.
    """

    __slots__ = ()

    def __new__(cls, base, scale=0, offset=0):
        if base is None and scale != 0:
            raise ValueError("constants must have scale 0")
        if not 0 <= scale <= MAX_SCALE:
            raise ValueError(f"scale out of range: {scale}")
        return tuple.__new__(cls, (base, scale, offset))

    @property
    def is_const(self) -> bool:
        """True if this value is a known 64-bit constant."""
        return self[0] is None

    @property
    def const_value(self) -> int:
        """The constant's value (only valid when :attr:`is_const`)."""
        if self[0] is not None:
            raise ValueError(f"{self} is not a constant")
        return self[2]

    @property
    def is_plain(self) -> bool:
        """True if this is just a physical register, unshifted, offset 0."""
        return self[0] is not None and self[1] == 0 and self[2] == 0

    def evaluate(self, base_value: int) -> int:
        """The concrete value given the base register's value."""
        if self[0] is None:
            return self[2]
        return to_signed64((base_value << self[1]) + self[2])

    def __str__(self) -> str:
        if self.base is None:
            return f"#{self.offset}"
        text = f"p{self.base}"
        if self.scale:
            text = f"(p{self.base}<<{self.scale})"
        if self.offset:
            sign = "+" if self.offset >= 0 else "-"
            text = f"{text}{sign}{abs(self.offset)}"
        return text


_tuple_new = tuple.__new__

#: Interned small constants and the zero constant — the overwhelmingly
#: common values (loop bounds, displacements, flag results).
#: ``SMALL_CONSTS[v + 256]`` is :func:`const` ``(v)`` for
#: ``-256 <= v <= 256``; hot callers may index it directly.
SMALL_CONSTS = tuple(_tuple_new(SymVal, (None, 0, v))
                     for v in range(-256, 257))
ZERO = SMALL_CONSTS[256]

_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)


def const(value: int) -> SymVal:
    """A known constant value."""
    if -256 <= value <= 256:
        return SMALL_CONSTS[value + 256]
    if value > _INT64_MAX or value < _INT64_MIN:
        value = to_signed64(value)
    return _tuple_new(SymVal, (None, 0, value))


def plain(preg: int) -> SymVal:
    """The value of physical register *preg*, unmodified."""
    return _tuple_new(SymVal, (preg, 0, 0))


@functools.cache
def plains(num_regs: int) -> tuple[SymVal, ...]:
    """Interned :func:`plain` values of registers ``0 .. num_regs-1``.

    The optimizing renamer installs one for every allocated register;
    indexing this tuple allocates nothing.
    """
    return tuple(plain(preg) for preg in range(num_regs))


def add_const(sym: SymVal, value: int) -> SymVal:
    """``sym + value`` — always representable (offset arithmetic)."""
    offset = sym[2] + value
    if offset > _INT64_MAX or offset < _INT64_MIN:
        offset = to_signed64(offset)
    return _tuple_new(SymVal, (sym[0], sym[1], offset))


def shift_left(sym: SymVal, amount: int) -> SymVal | None:
    """``sym << amount`` if representable in the 2-bit scale field.

    Returns None when the shifted form does not fit (scale would
    exceed :data:`MAX_SCALE`); constants always fold.
    """
    if sym[0] is None:
        return const(to_signed64(sym[2] << (amount & 0x3F)))
    if amount < 0:
        return None
    scale = sym[1] + amount
    if scale > MAX_SCALE:
        return None
    return _tuple_new(SymVal, (sym[0], scale,
                               to_signed64(sym[2] << amount)))


def fold(sym: SymVal, base_value: int) -> SymVal:
    """Replace the base register with its now-known value.

    This is the value-feedback integration step (Section 3.3): a table
    entry whose base physical register matches a produced value is
    rewritten as a constant.
    """
    return const(sym.evaluate(base_value))

"""Instruction representation.

An :class:`Instruction` is an immutable record of one static
instruction.  Source operands are a tagged union of :class:`Reg` and
:class:`Imm` so that the assembler, the functional emulator, the rename
stage, and the continuous optimizer all share one operand model.

Layout conventions:

* ALU ops: ``srcs`` holds the (up to two) sources, ``dst`` the
  destination register.
* Loads: ``srcs = (Reg(base),)``, ``disp`` holds the displacement,
  ``dst`` the destination.
* Stores: ``srcs = (Reg(data), Reg(base))``, ``disp`` the displacement.
* Conditional branches: ``srcs = (Reg(cond),)``, ``target`` the target.
* ``jsr``: ``dst`` is the link register, ``target`` the callee.
* ``ret``/``jmp``: ``srcs = (Reg(target_reg),)``.

``target`` starts as a label string and is patched to an instruction
*byte address* by the assembler's second pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .opcodes import Opcode, OpSpec, spec_of
from .registers import reg_name


@dataclass(frozen=True)
class Reg:
    """A register source operand."""

    index: int

    def __str__(self) -> str:
        return reg_name(self.index)


@dataclass(frozen=True)
class Imm:
    """An immediate source operand (64-bit signed)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


Source = Reg | Imm


@dataclass(frozen=True)
class Instruction:
    """One static instruction."""

    opcode: Opcode
    dst: int | None = None
    srcs: tuple[Source, ...] = ()
    target: str | int | None = None
    disp: int = 0
    pc: int = 0  # byte address, filled in by the assembler
    text: str = field(default="", compare=False)

    @property
    def spec(self) -> OpSpec:
        """Static metadata for this instruction's opcode."""
        return spec_of(self.opcode)

    @property
    def is_control(self) -> bool:
        """True for any instruction that can change the PC."""
        spec = self.spec
        return spec.is_branch or spec.is_jump

    def reg_sources(self) -> tuple[int, ...]:
        """Indices of all register source operands (in operand order)."""
        return tuple(src.index for src in self.srcs if isinstance(src, Reg))

    def __str__(self) -> str:
        if self.text:
            return self.text
        parts = [self.opcode.value]
        operands: list[str] = []
        if self.dst is not None:
            operands.append(reg_name(self.dst))
        operands.extend(str(src) for src in self.srcs)
        if self.target is not None:
            operands.append(str(self.target))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)

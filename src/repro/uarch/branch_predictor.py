"""Front-end branch prediction: gshare + BTB + return-address stack.

Matches the paper's Table 2 front end: an 18-bit gshare direction
predictor and a 1K-entry BTB.  A small return-address stack handles
``jsr``/``ret`` pairs (standard for this era of front end; without it
every return would be a full misprediction, which no contemporary
machine of the paper's vintage exhibits).

The predictor is used trace-driven: the pipeline asks for a prediction
at fetch, compares it against the oracle outcome from the trace, and
trains the predictor immediately.  Immediate update is the standard
trace-driven approximation of speculative-history + retire-time
training.
"""

from __future__ import annotations

from ..isa.opcodes import OP_IS_BRANCH, OPCODE_ID, Opcode
from ..isa.instructions import Instruction

_JSR_ID = OPCODE_ID[Opcode.JSR]
_RET_ID = OPCODE_ID[Opcode.RET]
_JMP_ID = OPCODE_ID[Opcode.JMP]


class GsharePredictor:
    """Gshare direction predictor with 2-bit saturating counters."""

    def __init__(self, history_bits: int = 18):
        self._history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._history = 0
        # Sparse pattern-history table; untouched counters start weakly
        # taken (2), which favours loop branches the way hardware
        # tables warmed by prior context would.
        self._pht: dict[int, int] = {}

    def update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at *pc*, then train on its outcome *taken*.

        Returns the prediction (taken or not) the counter made before
        training, and shifts *taken* into the global history, so the
        front end predicts and trains with one table lookup.
        """
        index = ((pc >> 2) ^ self._history) & self._mask
        pht = self._pht
        counter = pht.get(index, 2)
        if taken:
            if counter < 3:
                pht[index] = counter + 1
            self._history = ((self._history << 1) | 1) & self._mask
        else:
            if counter > 0:
                pht[index] = counter - 1
            self._history = (self._history << 1) & self._mask
        return counter >= 2


class BranchTargetBuffer:
    """Direct-mapped BTB holding taken-branch targets."""

    def __init__(self, entries: int = 1024):
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        # The instruction word splits into tag | index.
        self._index_mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tags: dict[int, tuple[int, int]] = {}  # index -> (tag, target)

    def update(self, pc: int, target: int) -> int | None:
        """Record *target* as the taken target of the branch at *pc*.

        Returns the target the buffer predicted for *pc* before the
        update, or None on a miss.
        """
        word = pc >> 2
        index = word & self._index_mask
        tag = word >> self._tag_shift
        tags = self._tags
        entry = tags.get(index)
        tags[index] = (tag, target)
        if entry is not None and entry[0] == tag:
            return entry[1]
        return None


class ReturnAddressStack:
    """Bounded return-address stack for jsr/ret prediction."""

    def __init__(self, entries: int = 16):
        self._entries = entries
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) == self._entries:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> int | None:
        if self._stack:
            return self._stack.pop()
        return None


class FrontEndPredictor:
    """Composite front-end predictor driving the fetch stage.

    :meth:`predict` classifies each control instruction and reports
    whether the machine would have fetched down the correct path and
    whether the fetch group must pay a BTB-miss bubble.
    """

    def __init__(self, history_bits: int = 18, btb_entries: int = 1024,
                 ras_entries: int = 16):
        self.gshare = GsharePredictor(history_bits)
        self.btb = BranchTargetBuffer(btb_entries)
        self.ras = ReturnAddressStack(ras_entries)
        self.cond_branches = 0
        self.cond_mispredicts = 0
        self.indirect_jumps = 0
        self.indirect_mispredicts = 0
        self.btb_misses = 0

    def predict(self, instr: Instruction, actual_taken: bool,
                actual_target: int) -> tuple[bool, bool]:
        """Predict the control instruction at fetch.

        Returns ``(mispredicted, btb_bubble)``: *mispredicted* means the
        front end goes down the wrong path and must wait for branch
        resolution; *btb_bubble* means the direction/target was right
        but the target had to be produced at decode (small refetch
        bubble).
        """
        return self.predict_op(OPCODE_ID[instr.opcode], instr,
                               actual_taken, actual_target)

    def predict_op(self, op: int, instr: Instruction, actual_taken: bool,
                   actual_target: int) -> tuple[bool, bool]:
        """:meth:`predict` with the opcode id already in hand.

        The fetch stage reads *op* straight from the packed trace's
        opcode column, so classification is integer table lookups.
        """
        pc = instr.pc
        if OP_IS_BRANCH[op]:
            predicted_taken = self.gshare.update(pc, actual_taken)
            self.cond_branches += 1
            if predicted_taken != actual_taken:
                self.cond_mispredicts += 1
                if actual_taken:
                    self.btb.update(pc, actual_target)
                return True, False
            if actual_taken:
                if self.btb.update(pc, actual_target) != actual_target:
                    self.btb_misses += 1
                    return False, True
            return False, False
        if op == _JSR_ID:
            self.ras.push(pc + 4)
            if self.btb.update(pc, actual_target) != actual_target:
                self.btb_misses += 1
                return False, True
            return False, False
        if op == _RET_ID:
            self.indirect_jumps += 1
            predicted = self.ras.pop()
            if predicted != actual_target:
                self.indirect_mispredicts += 1
                return True, False
            return False, False
        if op == _JMP_ID:
            self.indirect_jumps += 1
            if self.btb.update(pc, actual_target) != actual_target:
                self.indirect_mispredicts += 1
                return True, False
            return False, False
        # Direct unconditional branch: target known at decode at worst.
        if self.btb.update(pc, actual_target) != actual_target:
            self.btb_misses += 1
            return False, True
        return False, False

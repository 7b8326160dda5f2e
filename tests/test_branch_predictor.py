"""Unit tests for the gshare/BTB/RAS front-end predictor."""

from repro.isa import Opcode, Reg
from repro.isa.instructions import Instruction
from repro.uarch import (BranchTargetBuffer, FrontEndPredictor,
                         GsharePredictor, ReturnAddressStack)


class TestGshare:
    def test_learns_always_taken(self):
        predictor = GsharePredictor(history_bits=8)
        for _ in range(8):
            predictor.update(0x1000, True)
        assert predictor.update(0x1000, True)

    def test_learns_always_not_taken(self):
        predictor = GsharePredictor(history_bits=8)
        for _ in range(8):
            predictor.update(0x1000, False)
        assert not predictor.update(0x1000, False)

    def test_two_bit_hysteresis(self):
        predictor = GsharePredictor(history_bits=8)
        pc = 0x1000
        # Saturate taken, then one not-taken must not flip the
        # prediction (counter drops 3 -> 2, still predicting taken).
        history = []
        for _ in range(4):
            predictor.update(pc, True)
            history.append(True)
        # Recreate the index state: same history, same pc.
        assert predictor.update(pc, True)

    def test_alternating_pattern_learned_via_history(self):
        predictor = GsharePredictor(history_bits=8)
        pc = 0x2000
        outcomes = [True, False] * 40
        correct = 0
        for outcome in outcomes:
            if predictor.update(pc, outcome) == outcome:
                correct += 1
        # After warm-up the history disambiguates the alternation.
        assert correct > 60


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=16)
        assert btb.update(0x1000, 0x2000) is None
        assert btb.update(0x1000, 0x2000) == 0x2000

    def test_conflict_eviction(self):
        btb = BranchTargetBuffer(entries=16)
        btb.update(0x1000, 0x2000)
        btb.update(0x1000 + 16 * 4, 0x3000)  # same index, different tag
        assert btb.update(0x1000 + 16 * 4, 0x3000) == 0x3000
        assert btb.update(0x1000, 0x2000) is None

    def test_power_of_two_required(self):
        import pytest
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=100)


class TestRAS:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_empty_pop(self):
        assert ReturnAddressStack().pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(entries=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


def _branch(pc=0x1000):
    return Instruction(opcode=Opcode.BNE, srcs=(Reg(1),),
                       target=0x2000, pc=pc)


def _jsr(pc=0x1000):
    return Instruction(opcode=Opcode.JSR, dst=26, target=0x3000, pc=pc)


def _ret(pc=0x1000):
    return Instruction(opcode=Opcode.RET, srcs=(Reg(26),), pc=pc)


class TestFrontEndPredictor:
    def test_correct_prediction_after_training(self):
        fe = FrontEndPredictor()
        for _ in range(8):
            fe.predict(_branch(), True, 0x2000)
        mispredicted, bubble = fe.predict(_branch(), True, 0x2000)
        assert not mispredicted
        assert not bubble  # BTB trained too

    def test_btb_bubble_on_first_taken(self):
        fe = FrontEndPredictor()
        # Default counters predict weakly-taken, so the direction is
        # right but the target is unknown: a decode-redirect bubble.
        mispredicted, bubble = fe.predict(_branch(), True, 0x2000)
        assert not mispredicted
        assert bubble
        assert fe.btb_misses == 1

    def test_direction_mispredict_detected(self):
        fe = FrontEndPredictor()
        for _ in range(8):
            fe.predict(_branch(), True, 0x2000)
        mispredicted, _ = fe.predict(_branch(), False, 0x1004)
        assert mispredicted
        assert fe.cond_mispredicts >= 1

    def test_ras_predicts_matching_return(self):
        fe = FrontEndPredictor()
        fe.predict(_jsr(pc=0x1000), True, 0x3000)
        mispredicted, _ = fe.predict(_ret(pc=0x3000), True, 0x1004)
        assert not mispredicted

    def test_ras_mispredicts_mismatched_return(self):
        fe = FrontEndPredictor()
        fe.predict(_jsr(pc=0x1000), True, 0x3000)
        mispredicted, _ = fe.predict(_ret(pc=0x3000), True, 0x9999)
        assert mispredicted
        assert fe.indirect_mispredicts == 1

    def test_jmp_uses_btb(self):
        fe = FrontEndPredictor()
        jmp = Instruction(opcode=Opcode.JMP, srcs=(Reg(5),), pc=0x1000)
        mispredicted, _ = fe.predict(jmp, True, 0x4000)
        assert mispredicted  # cold BTB
        mispredicted, _ = fe.predict(jmp, True, 0x4000)
        assert not mispredicted  # trained

    def test_statistics_counted(self):
        fe = FrontEndPredictor()
        fe.predict(_branch(), True, 0x2000)
        fe.predict(_branch(), False, 0x1004)
        assert fe.cond_branches == 2

"""Unit tests for issue queues and the scheduler bank.

Selection (the issue stage) and the readiness bookkeeping around it
run inside :meth:`Pipeline.run`, so these tests
drive small programs through the pipeline and read each retired
instruction's issue cycle and the queue occupancy seen at each rename.
"""

import dataclasses

from repro.functional import run_program
from repro.functional.trace import PackedTrace, TraceEntry
from repro.isa import Opcode, Reg, assemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import QUEUE_COMPLEX, QUEUE_INT, OpClass
from repro.uarch import DynInstr, SchedulerBank, default_config, scheduler_for
from repro.uarch.pipeline import Pipeline
from repro.uarch.regfile import PhysRegFile
from repro.uarch.rename import BaselineRenamer
from repro.uarch.scheduler import (SCHED_COMPLEX, SCHED_FP, SCHED_INT,
                                   SCHED_MEM)


def make_di(seq: int, opcode=Opcode.ADD) -> DynInstr:
    instr = Instruction(opcode=opcode, dst=1, srcs=(Reg(2), Reg(3)),
                        pc=0x1000 + seq * 4)
    entry = TraceEntry(seq=seq, pc=instr.pc, instr=instr, result=0,
                       addr=None, taken=None, next_pc=instr.pc + 4)
    trace = PackedTrace.from_entries([entry])
    return DynInstr(trace.statics()[0], trace, 0)


class _Recorder(BaselineRenamer):
    """The baseline renamer, keeping each retired instruction and the
    scheduler occupancy seen at each rename."""

    def __init__(self, prf: PhysRegFile):
        super().__init__(prf)
        self.sched: SchedulerBank | None = None
        self.retired: dict[int, DynInstr] = {}
        self.occupancy: list[dict[str, int]] = []

    def rename(self, di, cycle):
        super().rename(di, cycle)
        self.occupancy.append({name: len(queue)
                               for name, queue in self.sched.queues.items()})

    def on_retire(self, di):
        super().on_retire(di)
        self.retired[di.seq] = di


def run(source: str, **fields) -> _Recorder:
    """Simulate *source* on the default machine with *fields* changed."""
    trace = run_program(assemble(source)).trace
    config = dataclasses.replace(default_config(), **fields)
    prf = PhysRegFile(config.num_pregs)
    recorder = _Recorder(prf)
    pipeline = Pipeline(trace, config, renamer=recorder, prf=prf)
    recorder.sched = pipeline.sched
    stats = pipeline.run()
    assert stats.retired == len(trace)
    return recorder


def issue_cycles(recorder: _Recorder) -> list[int]:
    return [recorder.retired[seq].issue_cycle
            for seq in sorted(recorder.retired)]


#: Four independent single-cycle integer operations, one fetch block.
INDEPENDENT = """.text
        ldi r1, 1
        ldi r2, 2
        ldi r3, 3
        ldi r4, 4
        halt
"""


def blocked(consumers: str) -> str:
    """A load that misses every cache, then *consumers* (each waiting on
    the load) and a run of independent operations, which keep rename
    busy while the consumers wait."""
    tail = "\n".join(f"        ldi r9, {index}" for index in range(24))
    return f""".data
far:    .quad 7
.text
        ldi r1, far
        ldq r2, 0(r1)
{consumers}
{tail}
        halt
"""


class TestSchedulerMapping:
    def test_classes_route_to_expected_queues(self):
        assert scheduler_for(OpClass.INT_SIMPLE) == SCHED_INT
        assert scheduler_for(OpClass.BRANCH) == SCHED_INT
        assert scheduler_for(OpClass.INT_COMPLEX) == SCHED_COMPLEX
        assert scheduler_for(OpClass.FP) == SCHED_FP
        assert scheduler_for(OpClass.MEM) == SCHED_MEM


class TestIssueQueue:
    def test_ready_instructions_selected_oldest_first(self):
        cycles = issue_cycles(run(INDEPENDENT, n_simple_ialu=2))
        # Two per cycle, the two oldest first.
        assert cycles[0] == cycles[1]
        assert cycles[2] == cycles[3] == cycles[0] + 1

    def test_blocked_instructions_stay(self):
        recorder = run(blocked("        add r3, r2, 1"))
        load, consumer, independent = (recorder.retired[seq]
                                       for seq in (1, 2, 3))
        # The consumer waits in its queue while the younger,
        # independent operation issues.
        assert independent.issue_cycle < load.issue_cycle + load.exec_latency
        assert consumer.issue_cycle >= load.issue_cycle + load.exec_latency
        assert max(sample[SCHED_INT] for sample in recorder.occupancy) >= 1

    def test_issue_width_limit(self):
        cycles = issue_cycles(run(INDEPENDENT, n_simple_ialu=1))
        assert cycles == list(range(cycles[0], cycles[0] + 4))

    def test_capacity_enforced(self):
        consumers = "\n".join(f"        add r{3 + index}, r2, {index}"
                              for index in range(6))
        small = run(blocked(consumers), sched_entries=2)
        # The waiting consumers fill the integer queue to its capacity
        # and never past it.
        assert max(sample[SCHED_INT] for sample in small.occupancy) == 2
        roomy = run(blocked(consumers))
        assert max(sample[SCHED_INT] for sample in roomy.occupancy) > 2

    def test_out_of_order_wakeup(self):
        recorder = run(blocked("        add r3, r2, 1"))
        load, older, younger = (recorder.retired[seq] for seq in (1, 2, 3))
        assert younger.issue_cycle < older.issue_cycle
        # The older operation becomes ready when the load's result is
        # bypassed, and issues that cycle.
        assert older.issue_cycle == load.issue_cycle + load.exec_latency


class TestSchedulerBank:
    def test_queue_for_routes_by_class(self):
        bank = SchedulerBank(entries=8, n_simple=4, n_complex=1, n_fp=2,
                             n_agen=2)
        add = make_di(0, Opcode.ADD)
        mul = make_di(1, Opcode.MUL)
        assert bank.queues_by_idx[add.queue_idx] is bank.queues[SCHED_INT]
        assert (bank.queues_by_idx[mul.queue_idx]
                is bank.queues[SCHED_COMPLEX])

    def test_select_all_respects_per_class_widths(self):
        source = """.text
        ldi r1, 1
        ldi r2, 2
        ldi r3, 3
        ldi r4, 4
        mul r5, r31, 5
        mul r6, r31, 6
        halt
"""
        recorder = run(source, n_simple_ialu=2, n_complex_ialu=1,
                       fetch_width=8, rename_width=8)
        first = min(di.issue_cycle for di in recorder.retired.values())
        issued = [di for di in recorder.retired.values()
                  if di.issue_cycle == first]
        assert sum(di.queue_idx == QUEUE_INT for di in issued) == 2
        assert sum(di.queue_idx == QUEUE_COMPLEX for di in issued) == 1

    def test_total_occupancy(self):
        # Entries waiting on a dependence hold their slots, each in its
        # own class's queue, while younger independent work flows past.
        recorder = run(blocked("        add r3, r2, 1\n"
                               "        mul r4, r2, 3"))
        assert recorder.occupancy[-1] == {SCHED_INT: 1, SCHED_COMPLEX: 1,
                                          SCHED_FP: 0, SCHED_MEM: 0}

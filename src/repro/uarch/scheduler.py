"""Issue schedulers and functional-unit pools.

The paper's machine has four 8-entry schedulers (integer, complex
integer, floating point, memory) feeding 4 simple integer ALUs, 1
complex integer ALU, 2 FP ALUs, and 2 address-generation units
(Table 2).  Conditional branches execute on the simple integer ALUs.

Each :class:`IssueQueue` holds dispatched instructions until their
physical-register (and memory-dependence) operands are ready, then
offers them oldest-first to its functional-unit pool.  A queue keeps
only an occupancy count and a heap of its ready entries ordered by
sequence number.  The pipeline's dispatch counts an entry in and
pushes it when it has no outstanding dependence; its writeback pushes
an entry when the last one clears; its issue stage, the issue policy,
pops up to ``issue_width`` of each queue's oldest ready entries, so
selection never rescans waiting entries.
"""

from __future__ import annotations

from ..isa.opcodes import (QUEUE_COMPLEX, QUEUE_FP, QUEUE_INT, QUEUE_MEM,
                           OpClass)
from .dyninstr import DynInstr

#: Scheduler bins; branches share the simple-integer scheduler and ALUs.
SCHED_INT = "int"
SCHED_COMPLEX = "complex"
SCHED_FP = "fp"
SCHED_MEM = "mem"

_CLASS_TO_SCHED = {
    OpClass.INT_SIMPLE: SCHED_INT,
    OpClass.BRANCH: SCHED_INT,
    OpClass.INT_COMPLEX: SCHED_COMPLEX,
    OpClass.FP: SCHED_FP,
    OpClass.MEM: SCHED_MEM,
    OpClass.MISC: SCHED_INT,
}


def scheduler_for(op_class: OpClass) -> str:
    """Which scheduler an operation class dispatches into."""
    return _CLASS_TO_SCHED[op_class]


class IssueQueue:
    """One out-of-order issue queue with a fixed entry count."""

    def __init__(self, name: str, entries: int, issue_width: int):
        self.name = name
        self.capacity = entries
        self.issue_width = issue_width
        #: Entries held, waiting or ready.
        self.count = 0
        #: Heap of ``(seq, di)`` for the entries whose operands are all
        #: ready.  A queue with an empty heap has nothing to select.
        self.ready: list[tuple[int, DynInstr]] = []

    def __len__(self) -> int:
        return self.count


class SchedulerBank:
    """The four issue queues plus per-class issue-width limits."""

    def __init__(self, entries: int, n_simple: int, n_complex: int,
                 n_fp: int, n_agen: int):
        self.queues: dict[str, IssueQueue] = {
            SCHED_INT: IssueQueue(SCHED_INT, entries, n_simple),
            SCHED_COMPLEX: IssueQueue(SCHED_COMPLEX, entries, n_complex),
            SCHED_FP: IssueQueue(SCHED_FP, entries, n_fp),
            SCHED_MEM: IssueQueue(SCHED_MEM, entries, n_agen),
        }
        #: Same queues indexed by the ``QUEUE_*`` small ints from
        #: :mod:`repro.isa.opcodes` (what ``DynInstr.queue_idx`` holds).
        self.queues_by_idx: list[IssueQueue] = [None] * 4
        self.queues_by_idx[QUEUE_INT] = self.queues[SCHED_INT]
        self.queues_by_idx[QUEUE_COMPLEX] = self.queues[SCHED_COMPLEX]
        self.queues_by_idx[QUEUE_FP] = self.queues[SCHED_FP]
        self.queues_by_idx[QUEUE_MEM] = self.queues[SCHED_MEM]

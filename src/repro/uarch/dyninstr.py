"""Dynamic (in-flight) instruction state for the timing model.

A :class:`DynInstr` carries everything the pipeline tracks about one
dynamic instruction: the static instruction's record from its trace's
static-instruction table (:meth:`PackedTrace.statics
<repro.functional.trace.PackedTrace.statics>`), its seq
(``first_seq`` plus the row), the oracle values copied out of the
packed trace columns (result, effective address, branch outcome, next
pc), physical register operands after
rename/optimization, readiness bookkeeping, the optimizer outcome
flags (early execution, removed load, known address), its execution
latency and its issue cycle.

The hot stages read the direct fields — ``op`` (small-integer opcode
id, indexing the flat tables in :mod:`repro.isa.opcodes`), ``result``,
``addr``, ``taken``, and the renamers' ``arch_srcs``/``arch_dst`` —
and never materialize a :class:`~repro.functional.trace.TraceEntry`.

Field conventions: ``addr`` is ``-1`` for non-memory instructions;
``taken`` (``0``/``1``) and ``next_pc`` are set for control
instructions only;
``arch_srcs`` lists the register sources without the zero registers;
``arch_dst`` is ``-1`` when the instruction writes no register (or
writes a zero register).  ``exec_latency`` starts as the opcode's
latency; a renamer that turns a load into a register move sets it to
1, and issue sets a memory operation's from its address generation and
cache access.
"""

from __future__ import annotations

from ..functional.trace import PackedTrace


class DynInstr:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "instr", "reg_srcs", "op", "mem_size", "is_load", "is_store",
        "is_control", "exec_latency", "queue_idx", "arch_srcs", "arch_dst",
        "rename_plan", "seq", "result", "addr", "taken", "next_pc",
        "src_pregs", "dst_preg", "prev_preg",
        "deps_remaining", "store_dep",
        "early", "removed_load", "addr_known",
        "mispredicted", "misspec_flush",
        "issue_cycle", "completed", "retired",
    )

    def __init__(self, static: tuple, trace: PackedTrace, row: int):
        """Row *row* of *trace*, whose static record is *static*."""
        (self.instr, self.reg_srcs, self.op, self.mem_size, self.is_load,
         self.is_store, self.is_control, self.exec_latency, self.queue_idx,
         self.arch_srcs, self.arch_dst, self.rename_plan) = static
        self.seq = trace.first_seq + row
        self.result = trace.results[row]
        self.addr = trace.addrs[row]
        if self.is_control:  # nothing reads the others' outcome
            self.taken = trace.takens[row]
            self.next_pc = trace.next_pcs[row]
        self.src_pregs: tuple[int, ...] = ()
        self.dst_preg: int | None = None
        self.prev_preg: int | None = None
        # deps_remaining is set at dispatch, before anything reads it.
        self.store_dep: DynInstr | None = None
        self.early = False
        self.removed_load = False
        self.addr_known = False
        self.mispredicted = False
        self.misspec_flush = False
        self.issue_cycle = -1
        self.completed = False
        self.retired = False

    @property
    def opcode(self):
        return self.instr.opcode

    def __repr__(self) -> str:
        flags = []
        if self.early:
            flags.append("early")
        if self.removed_load:
            flags.append("rle")
        if self.mispredicted:
            flags.append("mispred")
        flag_text = f" [{','.join(flags)}]" if flags else ""
        return (f"DynInstr(#{self.seq} pc={self.instr.pc:#x} "
                f"{self.instr}{flag_text})")

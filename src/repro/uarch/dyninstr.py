"""Dynamic (in-flight) instruction state for the timing model.

A :class:`DynInstr` carries everything the pipeline tracks about one
dynamic instruction: the static instruction's record from its trace's
static-instruction table (:meth:`PackedTrace.statics
<repro.functional.trace.PackedTrace.statics>`), the oracle values
copied out of the packed trace columns (seq, result, effective
address, branch outcome, next pc), physical register operands after
rename/optimization, readiness bookkeeping, the optimizer outcome
flags (early execution, removed load, known address), and the cycle
timestamps used to compute latencies.

The hot stages read the direct fields — ``op`` (small-integer opcode
id, indexing the flat tables in :mod:`repro.isa.opcodes`), ``result``,
``addr``, ``taken``, and the renamers' ``arch_srcs``/``arch_dst`` —
and never materialize a :class:`~repro.functional.trace.TraceEntry`.
The :attr:`entry` view is built from the packed trace row on demand,
for diagnostics.

Field conventions: ``addr`` is ``-1`` for non-memory instructions;
``taken`` is ``-1`` for non-control instructions, else ``0``/``1``;
``arch_srcs`` lists the register sources without the zero registers;
``arch_dst`` is ``-1`` when the instruction writes no register (or
writes a zero register).
"""

from __future__ import annotations

from ..functional.trace import PackedTrace, TraceEntry


class DynInstr:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "_trace", "_row",
        "instr", "reg_srcs", "op", "mem_size", "is_load", "is_store",
        "is_control", "sched_class", "queue_idx", "arch_srcs", "arch_dst",
        "seq", "result", "addr", "taken", "next_pc",
        "src_pregs", "dst_preg", "prev_preg",
        "deps_remaining", "store_dep",
        "early", "removed_load", "addr_known",
        "mispredicted", "early_resolved", "misspec_flush",
        "rename_cycle", "issue_cycle", "complete_cycle",
        "completed", "retired", "exec_latency",
    )

    def __init__(self, static: tuple, trace: PackedTrace, row: int):
        """Row *row* of *trace*, whose static record is *static*."""
        (self.instr, self.reg_srcs, self.op, self.mem_size, self.is_load,
         self.is_store, self.is_control, self.sched_class, self.queue_idx,
         self.arch_srcs, self.arch_dst) = static
        self._trace = trace
        self._row = row
        self.seq = trace.seqs[row]
        self.result = trace.results[row]
        self.addr = trace.addrs[row]
        self.taken = trace.takens[row]
        self.next_pc = trace.next_pcs[row]
        self.src_pregs: tuple[int, ...] = ()
        self.dst_preg: int | None = None
        self.prev_preg: int | None = None
        self.deps_remaining = 0
        self.store_dep: DynInstr | None = None
        self.early = False
        self.removed_load = False
        self.addr_known = False
        self.mispredicted = False
        self.early_resolved = False
        self.misspec_flush = False
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.completed = False
        self.retired = False
        self.exec_latency = 0

    @property
    def entry(self) -> TraceEntry:
        """The full oracle view, materialized from the trace row."""
        return self._trace.entry(self._row)

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

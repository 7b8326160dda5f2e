"""Oracle trace formats: per-entry records and the packed SoA encoding.

Two representations of the same dynamic instruction stream live here:

* :class:`TraceEntry` — one frozen record per retired instruction,
  the original (and still public) per-entry view.
* :class:`PackedTrace` — the storage format the emulator produces and
  the pipeline consumes: a shared static-instruction table plus one
  row per dynamic instruction holding only what nothing else
  supplies — the static-instruction index (``array('q')``), the
  effective address, the branch outcome (``array('b')``), the next
  pc, and the result (an object column).  Row *i* is dynamic
  instruction ``first_seq + i``; its pc and opcode come from its
  static instruction.  Entries materialize lazily into
  :class:`TraceEntry` views on demand (``trace[i]``), slices stay
  packed, and the columns pickle far more compactly than a list of
  frozen dataclasses — which is what the artifact store and the
  segment planner ship across worker processes.

The hot loops never touch :class:`TraceEntry`: the emulator appends
straight into the columns and the pipeline's fetch stage reads them
by index, dispatching on small-integer opcode ids against the flat
tables in :mod:`repro.isa.opcodes`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..isa.instructions import Instruction
from ..isa.opcodes import (DISPATCH_TABLE_BUILD_SECONDS, OP_CLASS_BY_ID,
                           OP_IS_CONTROL, OP_IS_LOAD, OP_IS_STORE,
                           OP_MEM_SIZE, OP_QUEUE, OPCODE_ID, Opcode)
from ..isa.registers import is_zero_reg

#: Column sentinels: ``addrs`` uses -1 for "no effective address" and
#: ``takens`` uses -1 for "not a control instruction" (0/1 otherwise).
NO_ADDR = -1
NO_TAKEN = -1


@dataclass(frozen=True)
class TraceEntry:
    """One dynamically executed instruction with its oracle values."""

    seq: int
    pc: int
    instr: Instruction
    result: int | float | None
    addr: int | None
    taken: bool | None
    next_pc: int

    @property
    def opcode(self) -> Opcode:
        return self.instr.opcode

    @property
    def is_load(self) -> bool:
        return self.instr.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.spec.is_store

    @property
    def is_control(self) -> bool:
        return self.instr.is_control

    @property
    def store_value(self) -> int | float:
        """The value a store writes to memory (recorded as its result)."""
        if not self.is_store:
            raise ValueError("store_value on a non-store")
        return self.result


#: Lazily bound telemetry registry (the functional layer must not
#: import :mod:`repro.engine` at module level; see emulator.py).
_TELEMETRY = None

#: Cumulative one-time table-build cost reported through telemetry:
#: the ISA dispatch tables plus every per-program pre-decode.
_dispatch_build_seconds = DISPATCH_TABLE_BUILD_SECONDS


def _telemetry():
    global _TELEMETRY
    if _TELEMETRY is None:
        from ..engine.telemetry import TELEMETRY
        _TELEMETRY = TELEMETRY
    return _TELEMETRY


def note_dispatch_build(seconds: float) -> None:
    """Fold per-program decode-table build time into the build gauge."""
    global _dispatch_build_seconds
    _dispatch_build_seconds += seconds


def note_packed_build(trace: "PackedTrace") -> None:
    """Record telemetry for one freshly built packed trace."""
    telemetry = _telemetry()
    if telemetry.enabled:
        telemetry.counter("repro_trace_packed_builds_total").inc()
        telemetry.counter("repro_trace_packed_entries_total").inc(len(trace))
        telemetry.counter("repro_trace_packed_bytes_total").inc(
            trace.column_bytes())
        telemetry.gauge("repro_dispatch_table_build_seconds").set(
            _dispatch_build_seconds)


def static_record(instr: Instruction, reg_srcs: tuple[int, ...]) -> tuple:
    """Everything the timing model reads from one static instruction.

    ``(instr, reg_srcs, op, mem_size, is_load, is_store, is_control,
    sched_class, queue_idx, arch_srcs, arch_dst)``: the opcode id and
    its flat-table properties, the register sources with the zero
    registers dropped, and the destination register, or -1 when there
    is none or it is a zero register.
    """
    op = OPCODE_ID[instr.opcode]
    dst = instr.dst
    arch_srcs = tuple(arch for arch in reg_srcs if not is_zero_reg(arch))
    if arch_srcs == reg_srcs:
        arch_srcs = reg_srcs  # share the tuple; most drop nothing
    return (instr, reg_srcs, op, OP_MEM_SIZE[op], OP_IS_LOAD[op],
            OP_IS_STORE[op], OP_IS_CONTROL[op], OP_CLASS_BY_ID[op],
            OP_QUEUE[op], arch_srcs,
            -1 if dst is None or is_zero_reg(dst) else dst)


class PackedTrace:
    """Structure-of-arrays trace: integer columns + lazy entry views.

    Behaves as an immutable sequence of :class:`TraceEntry`:
    ``len()``, integer indexing (materializes one view), slicing
    (returns a :class:`PackedTrace` sharing the static-instruction
    table), iteration, and equality against entry lists.
    """

    __slots__ = ("instrs", "reg_srcs", "first_seq", "iidx", "addrs",
                 "takens", "next_pcs", "results", "_statics")

    def __init__(self, instrs: list[Instruction],
                 reg_srcs: list[tuple[int, ...]] | None = None,
                 first_seq: int = 0):
        #: Static-instruction table; ``iidx`` indexes into it.  For
        #: emulator-built traces this is the program's instruction list.
        self.instrs = instrs
        #: Pre-computed ``Instruction.reg_sources()`` per table entry
        #: (the rename stage reads these once per dynamic instruction).
        self.reg_srcs = (reg_srcs if reg_srcs is not None
                         else [i.reg_sources() for i in instrs])
        #: The dynamic sequence number of row 0; row *i* is
        #: ``first_seq + i``.
        self.first_seq = first_seq
        self.iidx = array("q")
        self.addrs = array("q")
        self.takens = array("b")
        self.next_pcs = array("q")
        self.results: list[int | float | None] = []
        # A one-element cell for the static-instruction records, so
        # slices share the table whichever of them builds it first.
        self._statics: list = [None]

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.iidx)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.slice(index)
        return self.entry(index)

    def entry(self, i: int) -> TraceEntry:
        """Materialize the :class:`TraceEntry` view of row *i*."""
        instr = self.instrs[self.iidx[i]]
        if i < 0:
            i += len(self.iidx)
        addr = self.addrs[i]
        taken = self.takens[i]
        return TraceEntry(
            seq=self.first_seq + i, pc=instr.pc, instr=instr,
            result=self.results[i],
            addr=None if addr == NO_ADDR else addr,
            taken=None if taken == NO_TAKEN else bool(taken),
            next_pc=self.next_pcs[i])

    def statics(self) -> list[tuple]:
        """The :func:`static_record` of every ``instrs`` entry.

        Built on first use and shared with every slice of the trace;
        it is not part of the pickled state.
        """
        cell = self._statics
        table = cell[0]
        if table is None:
            table = cell[0] = list(map(static_record, self.instrs,
                                       self.reg_srcs))
        return table

    def slice(self, sl: slice) -> "PackedTrace":
        """A packed sub-trace sharing this trace's instruction table.

        Rows stay consecutive dynamic instructions, so the step must
        be 1.
        """
        start, stop, step = sl.indices(len(self.iidx))
        if step != 1:
            raise ValueError(f"a packed trace slices with step 1, "
                             f"not {step}")
        out = PackedTrace.__new__(PackedTrace)
        out.instrs = self.instrs
        out.reg_srcs = self.reg_srcs
        out._statics = self._statics
        out.first_seq = self.first_seq + start
        out.iidx = self.iidx[start:stop]
        out.addrs = self.addrs[start:stop]
        out.takens = self.takens[start:stop]
        out.next_pcs = self.next_pcs[start:stop]
        out.results = self.results[start:stop]
        return out

    def __iter__(self) -> Iterator[TraceEntry]:
        entry = self.entry
        for i in range(len(self.iidx)):
            yield entry(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PackedTrace, list, tuple)):
            return NotImplemented
        return (len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))

    def __repr__(self) -> str:
        return (f"PackedTrace({len(self)} entries, "
                f"{len(self.instrs)} static instructions)")

    # -- construction / conversion ------------------------------------

    @classmethod
    def from_entries(cls, entries: Iterable[TraceEntry]) -> "PackedTrace":
        """Pack an iterable of :class:`TraceEntry` (legacy format).

        The entries must be consecutive dynamic instructions, each at
        its instruction's pc: a packed row keeps neither a seq nor a
        pc of its own.  Raises :class:`ValueError` otherwise.
        """
        instrs: list[Instruction] = []
        index_of: dict[int, int] = {}
        out = cls(instrs, reg_srcs=[])
        seq = None
        for e in entries:
            if seq is None:
                seq = out.first_seq = e.seq
            elif e.seq != seq:
                raise ValueError(f"entry seq {e.seq} follows {seq - 1}: "
                                 f"seqs must be consecutive")
            seq += 1
            instr = e.instr
            if e.pc != instr.pc:
                raise ValueError(f"entry #{e.seq} has pc {e.pc:#x}, but "
                                 f"its instruction is at {instr.pc:#x}")
            key = id(instr)
            ii = index_of.get(key)
            if ii is None:
                ii = index_of[key] = len(instrs)
                instrs.append(instr)
                out.reg_srcs.append(instr.reg_sources())
            out.iidx.append(ii)
            out.addrs.append(NO_ADDR if e.addr is None else e.addr)
            out.takens.append(NO_TAKEN if e.taken is None
                              else 1 if e.taken else 0)
            out.next_pcs.append(e.next_pc)
            out.results.append(e.result)
        note_packed_build(out)
        return out

    def to_entries(self) -> list[TraceEntry]:
        """Materialize the whole trace as legacy entry objects."""
        return list(self)

    # -- sizing / pickling --------------------------------------------

    def column_bytes(self) -> int:
        """Bytes held by the packed integer columns (not the results)."""
        cols = (self.iidx, self.addrs, self.takens, self.next_pcs)
        return sum(len(col) * col.itemsize for col in cols)

    def __getstate__(self):
        return (self.instrs, self.reg_srcs, self.first_seq, self.iidx,
                self.addrs, self.takens, self.next_pcs, self.results)

    def __setstate__(self, state):
        (self.instrs, self.reg_srcs, self.first_seq, self.iidx,
         self.addrs, self.takens, self.next_pcs, self.results) = state
        self._statics = [None]

"""Cycle-level out-of-order superscalar timing model.

Trace-driven replay of the oracle instruction stream through the
paper's machine (Table 2): fetch → decode → rename(/optimize) →
schedule → register read → execute → retire.

Modeling notes (all standard for SimpleScalar-era studies, and
documented in DESIGN.md Section 5):

* **Wrong-path fetch** is charged as a front-end bubble: when a
  mispredicted control instruction is fetched, fetch stops until the
  branch resolves, then pays a redirect and refills the front end.
  The minimum resolution loop of the baseline machine is 20 cycles.
* **Bypass** is modeled by separating *wakeup* (dependents may issue
  ``exec_latency`` cycles after the producer issues) from
  *completion* (architectural effects: branch redirects, value
  feedback, retirement eligibility — ``regread_stages`` later).
* **Memory disambiguation** is oracle-based: true addresses identify
  the youngest in-flight older store that overlaps each load.  An
  exact-match store forwards its data; partial overlaps force the load
  to wait for the store and access the cache.
* **Stores** complete at address generation + 1 (write-buffer
  semantics); their cache-line touch happens at issue so later loads
  see warm lines.

The pipeline consumes a :class:`~repro.functional.trace.PackedTrace`
and nothing else.  The fetch stage walks its integer columns by row
index, reads each row's pc from a table of static-instruction pcs,
and builds each :class:`DynInstr` from one record of the trace's
static-instruction table (:meth:`PackedTrace.statics
<repro.functional.trace.PackedTrace.statics>`, built once per trace
and shared by its slices) plus the row's dynamic columns, never
materializing per-entry objects.

:meth:`Pipeline.run` is one loop.  Each cycle runs writeback, issue,
dispatch, rename, fetch and retire inline over local variables; the
counters stay in locals and reach :class:`PipelineStats` once, when
the run ends.  Wakeup and completion events wait in per-cycle
buckets; a bucket is sorted by ``(seq, kind)`` when its cycle is
written back, which is the ``(cycle, seq, kind)`` order of a single
event heap.  An event scheduled for a cycle already written back (a
zero-cycle rename stage) runs at the next writeback, ahead of that
cycle's own bucket, as it would from the heap.  Each issue queue
keeps its ready entries in a heap of their own, from which
:meth:`SchedulerBank.select_all
<repro.uarch.scheduler.SchedulerBank.select_all>`, the issue policy,
takes the oldest.

The per-cycle loop fast-forwards across *provably idle* stretches —
cycles where no event fires, no queue holds a ready instruction, and
neither fetch, rename, dispatch, nor retire can act — crediting the
front-end stall counters for the skipped cycles exactly as the
cycle-by-cycle loop would have.  Cycle counts and every stat are
bit-identical to the unskipped loop; only wall-clock time changes.

When the stream ends the machine performs a deterministic drain:
fetch stops, every in-flight instruction retires, and the final cycle
count includes the drain.  Per-segment runs of a split trace
therefore produce exact instruction and event counters (each entry is
fetched/issued/retired exactly once across segments) while cycle
counts carry one pipeline-fill + drain overhead per segment (see
``PipelineStats.merge``).
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heappush

from ..functional.emulator import ArchState
from ..functional.trace import PackedTrace
from ..isa.opcodes import OP_LATENCY, OPCODE_ID, QUEUE_MEM, Opcode
from .branch_predictor import FrontEndPredictor
from .caches import MemoryHierarchy
from .config import MachineConfig
from .dyninstr import DynInstr
from .regfile import OutOfRegisters, PhysRegFile
from .rename import BaselineRenamer, Renamer
from .scheduler import SchedulerBank
from .stats import PipelineStats

_BLOCK_SHIFT = 3  # 8-byte blocks for memory-dependence tracking

#: Event kinds, in the order a bucket runs one instruction's events.
_EV_WAKEUP = 0
_EV_COMPLETE = 1

_NOP_ID = OPCODE_ID[Opcode.NOP]

_DEADLOCK_WINDOW = 500_000


class SimulationDeadlock(Exception):
    """Raised when the pipeline stops making forward progress."""


class Pipeline:
    """One simulated machine executing one dynamic trace."""

    def __init__(self, trace: PackedTrace, config: MachineConfig,
                 renamer: Renamer | None = None,
                 prf: PhysRegFile | None = None,
                 arch_state: ArchState | None = None):
        if not isinstance(trace, PackedTrace):
            raise TypeError(f"Pipeline simulates a PackedTrace, not "
                            f"{type(trace).__name__}")
        self._trace = trace
        self.config = config
        self.prf = prf if prf is not None else PhysRegFile(config.num_pregs)
        if renamer is None:
            renamer = BaselineRenamer(self.prf)
        self.renamer = renamer
        self.hierarchy = MemoryHierarchy(config.il1, config.dl1, config.l2,
                                         config.memory_latency)
        self.predictor = FrontEndPredictor(config.gshare_bits,
                                           config.btb_entries,
                                           config.ras_entries)
        self.sched = SchedulerBank(config.sched_entries,
                                   config.n_simple_ialu,
                                   config.n_complex_ialu, config.n_fpalu,
                                   config.n_agen)
        self.stats = PipelineStats()
        # Optional retirement-side architectural replay: every retired
        # entry is folded into *arch_state* in retirement order, so the
        # differential harness can compare the state this machine's
        # retirement implies against the emulator's final state.
        self._arch_state = arch_state

    def run(self) -> PipelineStats:
        """Simulate until the trace is exhausted **and** fully drained."""
        config = self.config
        trace = self._trace
        statics = trace.statics()
        iidx = trace.iidx
        pcs = [record[0].pc for record in statics]  # by static index
        n_rows = len(trace)
        new_instr = DynInstr
        preg_ready = self.prf.ready
        preg_values = self.prf.values
        # The renamer's hooks and the replay hook are looked up at every
        # run, so a method patched onto the class is the one called.
        # A hook the renamer leaves at the interface's no-op is skipped.
        renamer = self.renamer
        begin_bundle = renamer.begin_bundle
        bundle_hook = type(renamer).begin_bundle is not Renamer.begin_bundle
        rename = renamer.rename
        relieve_pressure = renamer.relieve_pressure
        on_complete = renamer.on_complete
        on_store_executed = renamer.on_store_executed
        store_hook = (type(renamer).on_store_executed
                      is not Renamer.on_store_executed)
        on_retire = renamer.on_retire
        arch_state = self._arch_state
        apply_di = arch_state.apply_di if arch_state is not None else None
        hierarchy = self.hierarchy
        ifetch = hierarchy.ifetch
        dread = hierarchy.dread
        dwrite = hierarchy.dwrite
        predict_op = self.predictor.predict_op
        queues = self.sched.queues_by_idx
        select_all = self.sched.select_all
        q_int, q_complex, q_fp, q_mem = queues
        op_latency = OP_LATENCY
        # configuration
        fetch_width = config.fetch_width
        block_mask = ~(fetch_width * 4 - 1)
        il1_line_shift = config.il1.line_bytes.bit_length() - 1
        il1_latency = config.il1.latency
        frontend_depth = config.frontend_depth
        frontend_cap = frontend_depth * fetch_width
        btb_miss_penalty = config.btb_miss_penalty
        rename_width = config.rename_width
        rob_size = config.rob_size
        dispatch_cap = (config.dispatch_stages + 1) * rename_width
        rename_delay = config.effective_rename_stages
        dispatch_delay = rename_delay + config.dispatch_stages
        regread = config.regread_stages
        redirect_penalty = config.redirect_penalty
        retire_width = config.retire_width
        # machine state
        frontend: deque[tuple[int, DynInstr]] = deque()  # (rename at, di)
        dispatch_queue: deque[tuple[int, DynInstr]] = deque()  # (enter at, di)
        rob: deque[DynInstr] = deque()
        buckets: dict[int, list[tuple[int, int, DynInstr]]] = {}
        late: list[tuple[int, int, DynInstr]] = []
        waiting_on_preg: dict[int, list[DynInstr]] = {}
        waiting_on_store: dict[int, list[DynInstr]] = {}
        last_writer: dict[int, DynInstr] = {}
        fetch_blocked_by: DynInstr | None = None
        fetch_resume_cycle = 0
        fetch_line = -1
        last_retire_cycle = 0
        now = 0
        row = 0  # the next row to fetch, so also the count fetched
        retired = 0
        # counters, written to the stats when the run ends
        fetch_icache_stall_cycles = fetch_blocked_cycles = btb_bubbles = 0
        recovered_early = 0
        rename_stall_rob = rename_stall_pregs = rename_stall_dispatch = 0
        early_executed = early_branches = 0
        mem_ops = mem_addr_known = loads = loads_removed = 0
        issued = dcache_accesses = store_forwards_lsq = 0
        while row < n_rows or retired < row:
            now += 1
            # --- writeback: wakeup + completion events ----------------
            bucket = buckets.pop(now, None) if buckets else None
            if late:
                # Scheduled last cycle for a cycle already written back.
                late.sort()
                if bucket:
                    bucket.sort()
                    late += bucket
                bucket = late
                late = []
            elif bucket:
                bucket.sort()
            if bucket:
                for seq, kind, di in bucket:
                    if kind == _EV_WAKEUP:
                        preg = di.dst_preg
                        if preg is not None:
                            preg_ready[preg] = True
                            preg_values[preg] = di.result
                            waiters = waiting_on_preg.pop(preg, None)
                        elif di.is_store:  # a store writes no register
                            waiters = waiting_on_store.pop(seq, None)
                        else:
                            continue
                        if waiters:
                            # Each waiter has one dependence fewer; one
                            # with none left is ready to issue.
                            for waiter in waiters:
                                left = waiter.deps_remaining - 1
                                waiter.deps_remaining = left
                                if not left:
                                    heappush(
                                        queues[waiter.queue_idx].ready,
                                        (waiter.seq, waiter))
                    else:
                        di.completed = True
                        di.complete_cycle = now
                        on_complete(di, now)
                        if store_hook and di.is_store:
                            on_store_executed(di)
                        if di is fetch_blocked_by:
                            fetch_blocked_by = None
                            fetch_resume_cycle = now + redirect_penalty
                            if di.early_resolved:
                                recovered_early += 1
            # --- issue / execute --------------------------------------
            if q_int.ready or q_mem.ready or q_complex.ready or q_fp.ready:
                for di in select_all():
                    if di.queue_idx != QUEUE_MEM:
                        # A removed load is a register move.
                        latency = (1 if di.removed_load
                                   else op_latency[di.op])
                    else:
                        agen = 0 if di.addr_known else 1
                        if di.is_store:
                            # Write-buffer semantics: touch the line,
                            # complete quickly.
                            dwrite(di.addr)
                            dcache_accesses += 1
                            latency = agen + 1
                        else:
                            store = di.store_dep
                            if (store is not None and not store.retired
                                    and store.addr == di.addr
                                    and store.mem_size == di.mem_size):
                                store_forwards_lsq += 1
                                latency = agen + 1
                            else:
                                dcache_accesses += 1
                                latency = agen + dread(di.addr)
                    di.issue_cycle = now
                    di.exec_latency = latency
                    issued += 1
                    seq = di.seq
                    cycle = now + latency
                    event = (seq, _EV_WAKEUP, di)
                    if cycle > now:
                        slot = buckets.get(cycle)
                        if slot is None:
                            buckets[cycle] = [event]
                        else:
                            slot.append(event)
                    else:
                        late.append(event)
                    cycle += regread
                    event = (seq, _EV_COMPLETE, di)
                    if cycle > now:
                        slot = buckets.get(cycle)
                        if slot is None:
                            buckets[cycle] = [event]
                        else:
                            slot.append(event)
                    else:
                        late.append(event)
            # --- dispatch: rename exit -> scheduler entry -------------
            if dispatch_queue and dispatch_queue[0][0] <= now:
                moved = 0
                while moved < rename_width and dispatch_queue:
                    enter, di = dispatch_queue[0]
                    if enter > now:
                        break
                    queue = queues[di.queue_idx]
                    if queue.count >= queue.capacity:
                        break
                    dispatch_queue.popleft()
                    deps = 0
                    for preg in di.src_pregs:
                        if not preg_ready[preg]:
                            waiters = waiting_on_preg.get(preg)
                            if waiters is None:
                                waiting_on_preg[preg] = [di]
                            elif waiters[-1] is di:
                                continue  # a repeated source register
                            else:
                                waiters.append(di)
                            deps += 1
                    store = di.store_dep
                    # Wait for a store that has not produced its data and
                    # address yet, or whose wakeup is still in flight.
                    if store is not None and (
                            store.issue_cycle < 0
                            or (not store.completed
                                and store.issue_cycle + store.exec_latency
                                > now)):
                        deps += 1
                        waiters = waiting_on_store.get(store.seq)
                        if waiters is None:
                            waiting_on_store[store.seq] = [di]
                        else:
                            waiters.append(di)
                    di.deps_remaining = deps
                    queue.count += 1
                    if not deps:
                        heappush(queue.ready, (di.seq, di))
                    moved += 1
            # --- rename (+ optimize) ----------------------------------
            if frontend and frontend[0][0] <= now:
                renamed = 0
                began_bundle = not bundle_hook
                while (renamed < rename_width and frontend
                       and frontend[0][0] <= now):
                    if len(rob) >= rob_size:
                        rename_stall_rob += 1
                        break
                    if len(dispatch_queue) >= dispatch_cap:
                        rename_stall_dispatch += 1
                        break
                    di = frontend[0][1]
                    if not began_bundle:
                        begin_bundle(now)
                        began_bundle = True
                    try:
                        rename(di, now)
                    except OutOfRegisters:
                        if relieve_pressure():
                            continue  # retry this instruction
                        rename_stall_pregs += 1
                        break
                    frontend.popleft()
                    renamed += 1
                    rob.append(di)
                    if di.misspec_flush and fetch_blocked_by is None:
                        # An MBC speculative-staleness recovery: like a
                        # mispredict, fetch is squashed until this load
                        # resolves.
                        fetch_blocked_by = di
                    size = di.mem_size
                    if size:
                        mem_ops += 1
                        if di.addr_known:
                            mem_addr_known += 1
                        addr = di.addr
                        first = addr >> _BLOCK_SHIFT
                        last = (addr + size - 1) >> _BLOCK_SHIFT
                        if di.is_store:
                            for block in range(first, last + 1):
                                last_writer[block] = di
                        else:
                            if di.is_load:
                                loads += 1
                            if di.removed_load:
                                loads_removed += 1
                            else:
                                # Depend on the youngest older in-flight
                                # store that overlaps the load.
                                best = None
                                for block in range(first, last + 1):
                                    store = last_writer.get(block)
                                    if store is None or store.retired:
                                        continue
                                    s_addr = store.addr
                                    if (s_addr < addr + size
                                            and addr < s_addr + store.mem_size
                                            and (best is None
                                                 or store.seq > best.seq)):
                                        best = store
                                di.store_dep = best
                    if di.early or di.op == _NOP_ID:
                        if di.early:
                            early_executed += 1
                            if di.is_control:
                                early_branches += 1
                            if di.mispredicted:
                                di.early_resolved = True
                        # Done when rename is: both events, no issue.
                        seq = di.seq
                        wakeup = (seq, _EV_WAKEUP, di)
                        complete = (seq, _EV_COMPLETE, di)
                        if rename_delay:
                            cycle = now + rename_delay
                            slot = buckets.get(cycle)
                            if slot is None:
                                buckets[cycle] = [wakeup, complete]
                            else:
                                slot.append(wakeup)
                                slot.append(complete)
                        else:
                            late.append(wakeup)
                            late.append(complete)
                    else:
                        dispatch_queue.append((now + dispatch_delay, di))
            # --- fetch ------------------------------------------------
            if fetch_blocked_by is not None:
                fetch_blocked_cycles += 1
            elif now < fetch_resume_cycle:
                fetch_icache_stall_cycles += 1
            elif row < n_rows:
                frontend_time = now + frontend_depth
                stop = row + fetch_width
                if stop > n_rows:
                    stop = n_rows
                # Fetch delivers one aligned block per cycle; the next
                # block starts next cycle.
                block = pcs[iidx[row]] & block_mask
                while row < stop and len(frontend) < frontend_cap:
                    ii = iidx[row]
                    pc = pcs[ii]
                    if pc & block_mask != block:
                        break
                    line = pc >> il1_line_shift
                    if line != fetch_line:
                        latency = ifetch(pc)
                        fetch_line = line
                        if latency > il1_latency:
                            # I-cache miss: this group ends; resume
                            # after the fill.
                            fetch_resume_cycle = now + latency
                            break
                    di = new_instr(statics[ii], trace, row)
                    row += 1
                    frontend.append((frontend_time, di))
                    if di.is_control:
                        taken = di.taken
                        mispredicted, bubble = predict_op(
                            di.op, di.instr, taken == 1, di.next_pc)
                        if mispredicted:
                            di.mispredicted = True
                            fetch_blocked_by = di
                            fetch_line = -1
                            break
                        if bubble:
                            btb_bubbles += 1
                            fetch_resume_cycle = now + btb_miss_penalty
                            fetch_line = -1
                            break
                        if taken:
                            # Correctly predicted taken: the group ends,
                            # the next one starts at the target.
                            fetch_line = -1
                            break
            # --- retire -----------------------------------------------
            # A completed instruction completed this cycle or earlier.
            if rob and rob[0].completed:
                count = 0
                while True:
                    di = rob.popleft()
                    di.retired = True
                    if apply_di is not None:
                        apply_di(di)
                    on_retire(di)
                    if di.is_store:
                        addr = di.addr
                        for block in range(addr >> _BLOCK_SHIFT,
                                           ((addr + di.mem_size - 1)
                                            >> _BLOCK_SHIFT) + 1):
                            if last_writer.get(block) is di:
                                del last_writer[block]
                    count += 1
                    if (count >= retire_width or not rob
                            or not rob[0].completed):
                        break
                retired += count
                last_retire_cycle = now
            if now - last_retire_cycle > _DEADLOCK_WINDOW:
                raise SimulationDeadlock(
                    f"no retirement since cycle {last_retire_cycle} "
                    f"(now {now}, retired {retired}/{row} fetched, "
                    f"rob {len(rob)}, head {rob[0] if rob else None})")
            # --- idle-cycle fast-forward ------------------------------
            # If the next cycle provably does nothing, jump straight to
            # the next cycle where anything *can* happen, crediting the
            # per-cycle fetch stall counters for the skipped cycles.
            if row >= n_rows and retired >= row:
                break  # drained this cycle; nothing left to skip to
            nxt = now + 1
            if frontend and frontend[0][0] <= nxt:
                continue  # rename (or a rename stall) next cycle
            if rob and rob[0].completed:
                continue  # retirement can proceed next cycle
            if q_int.ready or q_mem.ready or q_complex.ready or q_fp.ready:
                continue  # issue next cycle
            if dispatch_queue and dispatch_queue[0][0] <= nxt:
                continue
            if late:
                continue  # writeback next cycle
            blocked = fetch_blocked_by is not None
            fetch_waits = (not blocked and row < n_rows
                           and len(frontend) < frontend_cap)
            if fetch_waits and nxt >= fetch_resume_cycle:
                continue  # fetch next cycle
            target = last_retire_cycle + _DEADLOCK_WINDOW + 1
            if buckets:
                target = min(target, min(buckets))
            if dispatch_queue:
                target = min(target, dispatch_queue[0][0])
            if frontend:
                target = min(target, frontend[0][0])
            if fetch_waits:
                target = min(target, fetch_resume_cycle)
            if target <= nxt:
                continue
            # Cycles nxt .. target-1 would each have counted a fetch
            # stall; replicate that bookkeeping in bulk.
            if blocked:
                fetch_blocked_cycles += target - nxt
            elif fetch_resume_cycle > nxt:
                fetch_icache_stall_cycles += (min(target, fetch_resume_cycle)
                                              - nxt)
            now = target - 1
        stats = self.stats
        stats.cycles = now
        stats.retired = retired
        stats.fetched = row
        stats.fetch_icache_stall_cycles = fetch_icache_stall_cycles
        stats.fetch_blocked_cycles = fetch_blocked_cycles
        stats.btb_bubbles = btb_bubbles
        stats.mispredicts_recovered_early = recovered_early
        stats.rename_stall_rob = rename_stall_rob
        stats.rename_stall_pregs = rename_stall_pregs
        stats.rename_stall_dispatch = rename_stall_dispatch
        stats.early_executed = early_executed
        stats.early_branches = early_branches
        stats.mem_ops = mem_ops
        stats.mem_addr_known = mem_addr_known
        stats.loads = loads
        stats.loads_removed = loads_removed
        stats.issued = issued
        stats.dcache_accesses = dcache_accesses
        stats.store_forwards_lsq = store_forwards_lsq
        self._finalize_stats()
        return stats

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.il1_hits = self.hierarchy.il1.hits
        stats.il1_misses = self.hierarchy.il1.misses
        stats.dl1_hits = self.hierarchy.dl1.hits
        stats.dl1_misses = self.hierarchy.dl1.misses
        stats.l2_hits = self.hierarchy.l2.hits
        stats.l2_misses = self.hierarchy.l2.misses
        stats.cond_branches = self.predictor.cond_branches
        stats.cond_mispredicts = self.predictor.cond_mispredicts
        stats.indirect_jumps = self.predictor.indirect_jumps
        stats.indirect_mispredicts = self.predictor.indirect_mispredicts
        stats.preg_high_water = self.prf.high_water
        stats.preg_alloc_stalls = self.prf.allocation_stalls
        self.renamer.collect_stats(stats)


def make_pipeline(trace: PackedTrace, config: MachineConfig,
                  arch_state: ArchState | None = None) -> Pipeline:
    """Build a :class:`Pipeline` with the config-appropriate renamer.

    ``arch_state``, if given, receives every retired entry in
    retirement order (see :class:`~repro.functional.emulator.\
ArchState`); the differential harness uses this to audit retirement
    against the architectural oracle.
    """
    prf = PhysRegFile(config.num_pregs)
    if config.optimizer.enabled:
        from ..core.optimizer import OptimizingRenamer
        renamer: Renamer = OptimizingRenamer(prf, config)
    else:
        renamer = BaselineRenamer(prf)
    return Pipeline(trace, config, renamer=renamer, prf=prf,
                    arch_state=arch_state)


#: Lazily bound telemetry registry.  The uarch layer must not import
#: :mod:`repro.engine` at module level (the engine imports *this*
#: module during its package init — a module-level import here would
#: touch a partially initialized package); binding at first simulation
#: keeps the layering one-way at import time.
_TELEMETRY = None


def _telemetry():
    global _TELEMETRY
    if _TELEMETRY is None:
        from ..engine.telemetry import TELEMETRY
        _TELEMETRY = TELEMETRY
    return _TELEMETRY


def simulate_trace(trace: PackedTrace,
                   config: MachineConfig) -> PipelineStats:
    """Simulate *trace* on *config*'s machine and return its stats.

    *trace* is a :class:`PackedTrace` (what the emulator produces;
    ``PackedTrace.from_entries`` packs an entry list).  Builds the
    optimizing renamer when
    ``config.optimizer.enabled``, otherwise the baseline renamer.

    Telemetry sits at per-run granularity (one clock read pair around
    the whole simulation — never per cycle), recording wall time,
    retired instruction and cycle totals, and a simulation-throughput
    gauge.
    """
    started_ns = time.perf_counter_ns()
    stats = make_pipeline(trace, config).run()
    telemetry = _telemetry()
    if telemetry.enabled:
        elapsed = (time.perf_counter_ns() - started_ns) / 1e9
        telemetry.counter("repro_sim_runs_total").inc()
        telemetry.counter("repro_sim_retired_insns_total").inc(
            stats.retired)
        telemetry.counter("repro_sim_cycles_total").inc(stats.cycles)
        telemetry.histogram("repro_sim_run_seconds").observe(elapsed)
        if elapsed > 0:
            telemetry.gauge("repro_sim_insns_per_second").set(
                stats.retired / elapsed)
            telemetry.gauge("repro_sim_cycles_per_second").set(
                stats.cycles / elapsed)
    return stats

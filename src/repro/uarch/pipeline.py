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
the run ends.  Each cycle's events wait in a bucket of two lists: the
instructions whose results wake their consumers, in any order, and
the instructions that complete, sorted by sequence number when the
cycle is written back.  Wakeups commute (a waking register is live,
no two in-flight producers share one, and a wakeup only marks its
register ready, counts down its waiters and pushes onto heaps ordered
by sequence number), so only completions, which release registers and
so set the free list's order, keep the ``(cycle, seq)`` order of a
single event heap.  A completion scheduled for a cycle already written
back (a zero-cycle rename stage) runs at the next writeback, ahead of
that cycle's own, as it would from the heap.  Each issue queue keeps
its ready entries in a heap of their own, from which the issue stage,
the issue policy, takes the oldest.

The pipeline releases the references of in-flight instructions (see
:mod:`repro.uarch.regfile`): rename takes one reference per physical
source as it names it, the pipeline releases them when the instruction
completes, and releases the mapping the instruction replaced when it
retires.  Both releases are inline, by the rule of
:meth:`PhysRegFile.release_all`, so they cost no call per instruction.
Renamer hooks left at :class:`Renamer`'s no-ops are never called.

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
from dataclasses import replace
from heapq import heappop, heappush
from operator import attrgetter, itemgetter

from ..functional.emulator import ArchState
from ..functional.trace import PackedTrace
from ..isa.opcodes import OPCODE_ID, QUEUE_MEM, Opcode
from .branch_predictor import FrontEndPredictor
from .caches import MemoryHierarchy
from .config import MachineConfig
from .dyninstr import DynInstr
from .regfile import OutOfRegisters, PhysRegFile
from .rename import BaselineRenamer, Renamer
from .scheduler import SchedulerBank
from .stats import PipelineStats

_BLOCK_SHIFT = 3  # 8-byte blocks for memory-dependence tracking

#: Completions run in this order (dynamic sequence number).
_seq_of = attrgetter("seq")
#: Whether an issue port's ready heap holds anything.
_has_ready = itemgetter(0)

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
        if not n_rows:
            self._finalize_stats()
            return self.stats
        new_instr = DynInstr
        prf = self.prf
        refcounts = prf.refcounts
        versions = prf.versions
        preg_ready = prf.ready
        preg_values = prf.values
        free_append = prf.free_list.append
        # The renamer's hooks and the replay hook are looked up at every
        # run, so a method patched onto the class is the one called.
        # A hook the renamer leaves at the interface's no-op is skipped.
        renamer = self.renamer
        renamer_class = type(renamer)
        begin_bundle = renamer.begin_bundle
        bundle_hook = renamer_class.begin_bundle is not Renamer.begin_bundle
        rename = renamer.rename
        relieve_pressure = renamer.relieve_pressure
        on_complete = renamer.on_complete
        complete_hook = renamer_class.on_complete is not Renamer.on_complete
        on_store_executed = renamer.on_store_executed
        store_hook = (renamer_class.on_store_executed
                      is not Renamer.on_store_executed)
        on_retire = renamer.on_retire
        retire_hook = renamer_class.on_retire is not Renamer.on_retire
        arch_state = self._arch_state
        apply_di = arch_state.apply_di if arch_state is not None else None
        hierarchy = self.hierarchy
        ifetch = hierarchy.ifetch
        dread = hierarchy.dread
        dwrite = hierarchy.dwrite
        predict_op = self.predictor.predict_op
        queues = self.sched.queues_by_idx
        # Each queue's heap of ready entries, by queue index.
        readies = [queue.ready for queue in queues]
        r_int, r_complex, r_fp, r_mem = readies
        # Issue visits the queues in index order; a port is a queue's
        # ready heap, its width, the queue, and whether it is the
        # memory queue.
        ports = tuple((queue.ready, queue.issue_width, queue,
                       index == QUEUE_MEM)
                      for index, queue in enumerate(queues))
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
        deadlock_window = _DEADLOCK_WINDOW
        nop_id = _NOP_ID
        # machine state
        frontend: deque[tuple[int, DynInstr]] = deque()  # (rename at, di)
        dispatch_queue: deque[tuple[int, DynInstr]] = deque()  # (enter at, di)
        rob: deque[DynInstr] = deque()
        # Events by cycle: the instructions whose result wakes their
        # consumers then, and those that complete then.
        events: dict[int, tuple[list[DynInstr], list[DynInstr]]] = {}
        late_done: list[DynInstr] = []
        waiting_on_preg: dict[int, list[DynInstr]] = {}
        waiting_on_store: dict[DynInstr, list[DynInstr]] = {}
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
        while True:
            now += 1
            # --- writeback: wakeups, then completions -----------------
            # A wakeup only marks a live register ready, counts down its
            # waiters and pushes onto seq-ordered heaps, so wakeups
            # commute with each other and with completions; completions
            # release registers, so they run in seq order.
            bucket = events.pop(now, None)
            if bucket is not None:
                wakes, dones = bucket
                for di in wakes:
                    preg = di.dst_preg
                    if preg is not None:
                        preg_ready[preg] = True
                        preg_values[preg] = di.result
                        waiters = waiting_on_preg.pop(preg, None)
                    elif di.is_store:  # a store writes no register
                        waiters = waiting_on_store.pop(di, None)
                    else:
                        continue
                    if waiters:
                        # Each waiter has one dependence fewer; one
                        # with none left is ready to issue.
                        for waiter in waiters:
                            left = waiter.deps_remaining - 1
                            waiter.deps_remaining = left
                            if not left:
                                heappush(readies[waiter.queue_idx],
                                         (waiter.seq, waiter))
                dones.sort(key=_seq_of)
            else:
                dones = ()
            if late_done:
                # Scheduled last cycle for a cycle already written back:
                # these run ahead of this cycle's own completions.
                late_done.sort(key=_seq_of)
                late_done += dones
                dones = late_done
                late_done = []
            for di in dones:
                di.completed = True
                # Release the source references taken at rename.
                for preg in di.src_pregs:
                    count = refcounts[preg] - 1
                    if count > 0:
                        refcounts[preg] = count
                    elif not count:
                        refcounts[preg] = 0
                        versions[preg] += 1
                        free_append(preg)
                    else:
                        raise ValueError(f"release of already-free "
                                         f"register p{preg}")
                if complete_hook:
                    on_complete(di, now)
                if store_hook and di.is_store:
                    on_store_executed(di)
                if di is fetch_blocked_by:
                    fetch_blocked_by = None
                    fetch_resume_cycle = now + redirect_penalty
                    if di.early and di.mispredicted:
                        recovered_early += 1
            # --- issue / execute: each queue's oldest ready entries ---
            if r_int or r_mem or r_complex or r_fp:
                for ready, width, queue, is_mem in filter(_has_ready, ports):
                    taken = len(ready)
                    if taken > width:
                        taken = width
                    queue.count -= taken
                    issued += taken
                    for _ in range(taken):
                        di = heappop(ready)[1]
                        di.issue_cycle = now
                        if not is_mem:
                            latency = di.exec_latency
                        else:
                            agen = 0 if di.addr_known else 1
                            if di.is_store:
                                # Write-buffer semantics: touch the
                                # line, complete quickly.
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
                            di.exec_latency = latency
                            if not latency:
                                # A zero-cycle load (an L1 of latency 0
                                # and a rename-time address) wakes its
                                # consumers in the next writeback.
                                cycle = now + 1
                                bucket = events.get(cycle)
                                if bucket is None:
                                    events[cycle] = ([di], [])
                                else:
                                    bucket[0].append(di)
                                if regread:
                                    cycle = now + regread
                                    bucket = events.get(cycle)
                                    if bucket is None:
                                        events[cycle] = ([], [di])
                                    else:
                                        bucket[1].append(di)
                                else:
                                    late_done.append(di)
                                continue
                        # Every other latency is at least one cycle.
                        cycle = now + latency
                        bucket = events.get(cycle)
                        if bucket is None:
                            events[cycle] = ([di], [])
                        else:
                            bucket[0].append(di)
                        cycle += regread
                        bucket = events.get(cycle)
                        if bucket is None:
                            events[cycle] = ([], [di])
                        else:
                            bucket[1].append(di)
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
                        waiters = waiting_on_store.get(store)
                        if waiters is None:
                            waiting_on_store[store] = [di]
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
                # Room counted once: only this stage fills the ROB and
                # the dispatch queue this cycle.
                rob_room = rob_size - len(rob)
                dispatch_room = dispatch_cap - len(dispatch_queue)
                while (renamed < rename_width and frontend
                       and frontend[0][0] <= now):
                    if renamed == rob_room:
                        rename_stall_rob += 1
                        break
                    if not dispatch_room:
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
                    if di.early or di.op == nop_id:
                        if di.early:
                            early_executed += 1
                            if di.is_control:
                                early_branches += 1
                        # Done when rename is: both events, no issue.
                        if rename_delay:
                            cycle = now + rename_delay
                            bucket = events.get(cycle)
                            if bucket is None:
                                events[cycle] = ([di], [di])
                            else:
                                bucket[0].append(di)
                                bucket[1].append(di)
                        else:
                            late_done.append(di)
                            bucket = events.get(now + 1)
                            if bucket is None:
                                events[now + 1] = ([di], [])
                            else:
                                bucket[0].append(di)
                    else:
                        dispatch_queue.append((now + dispatch_delay, di))
                        dispatch_room -= 1
            # --- fetch ------------------------------------------------
            if fetch_blocked_by is not None:
                fetch_blocked_cycles += 1
            elif now < fetch_resume_cycle:
                fetch_icache_stall_cycles += 1
            elif row < n_rows:
                frontend_time = now + frontend_depth
                # Room counted once: only this stage fills the front end.
                stop = row + frontend_cap - len(frontend)
                if stop > row + fetch_width:
                    stop = row + fetch_width
                if stop > n_rows:
                    stop = n_rows
                # Fetch delivers one aligned block per cycle; the next
                # block starts next cycle.
                block = pcs[iidx[row]] & block_mask
                while row < stop:
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
                    # Release the mapping this instruction replaced.
                    preg = di.prev_preg
                    if preg is not None:
                        left = refcounts[preg] - 1
                        if left > 0:
                            refcounts[preg] = left
                        elif not left:
                            refcounts[preg] = 0
                            versions[preg] += 1
                            free_append(preg)
                        else:
                            raise ValueError(f"release of already-free "
                                             f"register p{preg}")
                    if retire_hook:
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
                if row >= n_rows and retired >= row:
                    break  # drained this cycle
            elif now - last_retire_cycle > deadlock_window:
                raise SimulationDeadlock(
                    f"no retirement since cycle {last_retire_cycle} "
                    f"(now {now}, retired {retired}/{row} fetched, "
                    f"rob {len(rob)}, head {rob[0] if rob else None})")
            # --- idle-cycle fast-forward ------------------------------
            # If the next cycle provably does nothing, jump straight to
            # the next cycle where anything *can* happen, crediting the
            # per-cycle fetch stall counters for the skipped cycles.
            # The tests run most-often-true first.
            nxt = now + 1
            if nxt in events or late_done:
                continue  # writeback next cycle
            if frontend and frontend[0][0] <= nxt:
                continue  # rename (or a rename stall) next cycle
            blocked = fetch_blocked_by is not None
            fetch_waits = (not blocked and row < n_rows
                           and len(frontend) < frontend_cap)
            if fetch_waits and nxt >= fetch_resume_cycle:
                continue  # fetch next cycle
            if r_int or r_mem or r_complex or r_fp:
                continue  # issue next cycle
            if dispatch_queue and dispatch_queue[0][0] <= nxt:
                continue
            if rob and rob[0].completed:
                continue  # retirement can proceed next cycle
            target = last_retire_cycle + deadlock_window + 1
            if events:
                target = min(target, min(events))
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


def simulate_trace(trace: PackedTrace, config: MachineConfig,
                   runs: list | None = None) -> PipelineStats:
    """Simulate *trace* on *config*'s machine and return its stats.

    *trace* is a :class:`PackedTrace` (what the emulator produces;
    ``PackedTrace.from_entries`` packs an entry list).  Builds the
    optimizing renamer when
    ``config.optimizer.enabled``, otherwise the baseline renamer.

    *runs*, if given, is the caller's record of finished runs of this
    same trace, one ``(config, (add_bound, mem_bound), stats)`` entry
    per run.  When one of them provably repeats *config* (see
    :func:`repro.core.optimizer.covers`: it differs only in depth
    limits its run never tested apart), the call returns a copy of its
    stats and simulates nothing; otherwise it simulates and appends
    the run.

    Telemetry sits at per-run granularity (one clock read pair around
    the whole simulation — never per cycle), recording wall time,
    retired instruction and cycle totals, and a simulation-throughput
    gauge; an answered call counts in ``repro_sim_reused_total``.
    """
    if runs:
        from ..core.optimizer import covers
        for ran, bounds, stats in runs:
            if covers(ran, bounds, config):
                _telemetry().counter("repro_sim_reused_total").inc()
                return replace(stats, extra=dict(stats.extra))
    started_ns = time.perf_counter_ns()
    pipeline = make_pipeline(trace, config)
    stats = pipeline.run()
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
    if runs is not None:
        renamer = pipeline.renamer
        runs.append((config, (renamer.add_bound, renamer.mem_bound), stats))
    return stats

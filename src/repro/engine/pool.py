"""Sweep planner: shards a grid into work units for any backend.

:func:`run_sweep_iter` executes a list of :class:`SweepPoint` grid
points **incrementally**, yielding each completed point as soon as its
shard finishes; :func:`run_sweep` is the collect-everything wrapper:

* Points are **sharded by** ``(workload, scale)`` so every machine
  variant of one workload lands on the same worker and shares a single
  functional emulation (the trace is configuration-independent).
* Shards become ``sweep-shard`` :class:`~repro.engine.backend.WorkUnit`
  s submitted to an :class:`~repro.engine.backend.ExecutionBackend` —
  inline (serial, in-process), a local process pool, or remote socket
  workers.  One loop serves them all: submit every shard, then drain
  results as they complete, absorbing them by grid index, so the
  ledger is identical on every backend.  A consumer that stops
  iterating early (``break`` / ``close()``) abandons the
  not-yet-consumed results — shards already *executing* finish (their
  artifacts land in the store), still-queued shards never run (the
  inline backend executes a unit only when it is drained; an owned
  pool cancels its queue), so a cancelled service job stops near its
  next completed shard instead of running the whole grid.
* When an :class:`~repro.engine.store.ArtifactStore` directory is
  given, workers consult it before emulating or simulating anything
  and persist whatever they compute, so a re-run of the same grid
  performs **zero** emulations and simulations.
* ``limit_insns`` simulates only each trace's first N instructions —
  the cheap-evaluation budget the search engine's successive-halving
  rungs use (:mod:`repro.engine.search`).  Truncated stats are stored
  under budget-specific keys — except when the budget does not
  actually truncate the trace, in which case the result *is* the full
  run's and is stored under the full-run key so later full-budget
  evaluations reuse it instead of re-simulating identical work.

All execution state lives in an explicit :class:`ExecutionContext`
(store binding + bounded LRU trace cache + counters), one per
executing environment: the inline backend builds a fresh environment
per planner run, so two interleaved serial sweeps — exactly what the
streaming service (:mod:`repro.engine.service`) produces — can never
clobber each other's store or corrupt each other's hit/miss
accounting; each pool or socket worker keeps one in its environment
scratch and reuses it across the units it leases.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from ..uarch.stats import PipelineStats
from ..uarch.pipeline import simulate_trace
from ..workloads import build_trace
from .backend import WorkUnit, register_executor, resolve_backend
from .campaign import SweepPoint
from .events import PointEvent
from .store import ArtifactStore
from .telemetry import TELEMETRY


#: Default cap on driver/worker-cached traces.  Shards are grouped by
#: ``(workload, scale)``, so one cached trace already covers a whole
#: shard; a handful absorbs per-point sharding's re-visits while
#: keeping a long-lived ``repro serve`` process from holding every
#: trace it ever emulated.
DEFAULT_TRACE_CACHE = 8


class ExecutionContext:
    """Per-sweep execution state: store, trace cache, eviction counter.

    Replaces the old module-level ``_worker_store``/``_worker_traces``
    globals, which made interleaved serial sweeps clobber each other's
    store binding (and grew without bound in a long-lived driver).
    One context belongs to exactly one inline planner run, or to one
    worker process's execution environment.

    The trace cache is a **bounded LRU** keyed ``(workload, scale)``:
    at most *max_cached_traces* traces stay resident
    (``None`` = unbounded); evictions are counted in
    ``trace_evictions`` and only cost a store unpickle (or, with no
    store, a re-emulation) on the next touch — results are unaffected.
    """

    def __init__(self, store_dir: str | os.PathLike | None = None,
                 max_cached_traces: int | None = DEFAULT_TRACE_CACHE):
        if max_cached_traces is not None and max_cached_traces < 1:
            raise ValueError(f"max_cached_traces must be >= 1 or None, "
                             f"got {max_cached_traces}")
        self.store = (ArtifactStore(store_dir)
                      if store_dir is not None else None)
        self.max_cached_traces = max_cached_traces
        self._traces: OrderedDict[tuple[str, int], list] = OrderedDict()
        self.trace_evictions = 0

    @property
    def cached_traces(self) -> int:
        return len(self._traces)

    def get_trace(self, workload: str,
                  scale: int) -> tuple[list, bool, bool]:
        """The oracle trace plus (emulated, store_hit) flags."""
        key = (workload, scale)
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            TELEMETRY.counter("repro_trace_cache_hits_total").inc()
            return trace, False, False
        TELEMETRY.counter("repro_trace_cache_misses_total").inc()
        store_hit = False
        if self.store is not None:
            trace = self.store.load_trace(workload, scale)
            store_hit = trace is not None
        emulated = trace is None
        if emulated:
            trace = build_trace(workload, scale).trace
            if self.store is not None:
                self.store.save_trace(workload, scale, trace)
        self._traces[key] = trace
        if self.max_cached_traces is not None:
            while len(self._traces) > self.max_cached_traces:
                self._traces.popitem(last=False)
                self.trace_evictions += 1
                TELEMETRY.counter(
                    "repro_trace_cache_evictions_total").inc()
        return trace, emulated, store_hit

    def run_shard(self, shard: list[tuple[int, str, int, str, object]],
                  limit_insns: int | None = None
                  ) -> list[tuple[int, PipelineStats, dict]]:
        """Execute one shard of (index, workload, scale, variant, config).

        ``limit_insns`` truncates every trace to its first N
        instructions before simulating (the search engine's
        cheap-evaluation budget).  Truncated stats go into the store
        under budget-specific keys — unless the trace is no longer
        than the budget, in which case the "truncated" run is exactly
        the full run and is loaded from / saved under the **full-run**
        key, so a successive-halving promotion to the full budget is a
        stats cache hit instead of a duplicate simulation + artifact.
        """
        out = []
        for index, workload, scale, variant, config in shard:
            flags = {"emulated": False, "simulated": False,
                     "trace_hit": False, "stats_hit": False}
            stats = None
            if self.store is not None:
                stats = self.store.load_stats(workload, scale, config,
                                              limit_insns=limit_insns)
                flags["stats_hit"] = stats is not None
            if stats is None:
                trace, emulated, trace_hit = self.get_trace(workload,
                                                            scale)
                flags["emulated"] = emulated
                flags["trace_hit"] = trace_hit
                effective_limit = limit_insns
                if limit_insns is not None and len(trace) <= limit_insns:
                    # the budget doesn't truncate this trace: alias to
                    # the full-run key.  Detecting this needs the
                    # trace length, so a store whose trace artifact
                    # was gc-evicted (full-run stats still present)
                    # pays one trace rebuild before the aliased hit —
                    # a deliberate trade-off vs persisting lengths as
                    # their own artifact kind
                    effective_limit = None
                    if self.store is not None:
                        stats = self.store.load_stats(workload, scale,
                                                      config)
                        flags["stats_hit"] = stats is not None
                if stats is None:
                    if effective_limit is not None:
                        trace = trace[:effective_limit]
                    stats = simulate_trace(trace, config)
                    flags["simulated"] = True
                    if self.store is not None:
                        self.store.save_stats(
                            workload, scale, config, stats,
                            limit_insns=effective_limit)
            out.append((index, stats, flags))
        return out

    def prewarm_shard(self, shard: list[tuple[str, int]]
                      ) -> list[tuple[str, int, int, bool]]:
        """Ensure traces exist for (workload, scale) pairs + lengths."""
        out = []
        for workload, scale in shard:
            trace, emulated, _ = self.get_trace(workload, scale)
            out.append((workload, scale, len(trace), emulated))
        return out


# ----------------------------------------------------------------------
# unit executors (run wherever the backend puts them)
# ----------------------------------------------------------------------

def _env_context(env, max_cached_traces: int | None) -> ExecutionContext:
    """The environment's sweep context, built once per cache size.

    Keyed into the environment's scratch dict so one worker reuses its
    trace cache across every unit it executes — exactly what the old
    per-process ``_worker_context`` global provided.
    """
    key = ("context", max_cached_traces)
    context = env.scratch.get(key)
    if context is None:
        context = ExecutionContext(env.store_dir, max_cached_traces)
        env.scratch[key] = context
    return context


@register_executor("sweep-shard")
def _execute_sweep_shard(payload, env):
    """One sweep shard; returns (results, cumulative evictions)."""
    shard, limit_insns, max_cached_traces = payload
    context = _env_context(env, max_cached_traces)
    with TELEMETRY.timer("repro_pool_shard_execute_seconds"):
        out = context.run_shard(shard, limit_insns)
    return out, context.trace_evictions


@register_executor("prewarm-shard")
def _execute_prewarm_shard(payload, env):
    (shard,) = payload
    return _env_context(env, DEFAULT_TRACE_CACHE).prewarm_shard(shard)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointResult:
    """One completed grid point.

    ``segments``/``segments_from_cache`` are filled by the segmented
    engine (:mod:`repro.engine.segments`); a flat sweep leaves them 0.
    ``estimated`` marks stats extrapolated from sampled segments
    (``SegmentPolicy(mode="sampled")``) rather than simulated in full;
    ``error_bounds`` then carries the per-field confidence
    half-widths (see ``segments._extrapolate``).
    """

    point: SweepPoint
    stats: PipelineStats
    emulated: bool
    simulated: bool
    segments: int = 0
    segments_from_cache: int = 0
    estimated: bool = False
    error_bounds: dict | None = None

    @property
    def from_cache(self) -> bool:
        return not self.simulated


@dataclass
class SweepResult:
    """Everything one sweep produced, in grid order."""

    results: list[PointResult]
    counters: dict[str, int]
    elapsed: float = 0.0
    jobs: int = 1

    def stats_by_label(self) -> dict[str, PipelineStats]:
        """``"workload@scale/variant" -> stats`` for easy lookup."""
        return {r.point.label: r.stats for r in self.results}

    def to_dict(self) -> dict:
        """JSON-ready report: per-point summaries plus counters."""
        return {
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed, 3),
            "counters": dict(self.counters),
            "points": [
                {
                    "workload": r.point.workload,
                    "scale": r.point.scale,
                    "variant": r.point.variant,
                    "config_key": r.point.config.cache_key(),
                    "from_cache": r.from_cache,
                    **({"segments": r.segments,
                        "segment_cache_hits": r.segments_from_cache}
                       if r.segments else {}),
                    **({"estimated": True,
                        "relative_error":
                            (r.error_bounds or {}).get("relative_error"),
                        "error_bounds": r.error_bounds}
                       if r.estimated else {}),
                    **r.stats.summary(),
                }
                for r in self.results
            ],
        }

    def ledger_json(self) -> str:
        """Canonical JSON of the sweep's *deterministic* content.

        Strips everything that legitimately varies between otherwise
        identical runs — wall-clock, worker count, cache-hit
        provenance — and keeps the full per-point stats in grid order.
        Two runs of the same grid must produce **byte-identical**
        ledgers regardless of ``jobs``, backend, or store warmth; the
        determinism test suite pins exactly that.
        """
        from ..uarch.config import canonical_json
        return canonical_json({
            "points": [
                {"workload": r.point.workload, "scale": r.point.scale,
                 "variant": r.point.variant,
                 "config_key": r.point.config.cache_key(),
                 # only sampled mode writes these keys, so exact-mode
                 # ledgers stay byte-identical to every prior release
                 **({"estimated": True,
                     "error_bounds": r.error_bounds}
                    if r.estimated else {}),
                 "stats": r.stats.to_dict()}
                for r in self.results
            ],
        })


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 serial, <=0 all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _make_shards(points: list[SweepPoint], by_point: bool = False
                 ) -> list[list[tuple[int, str, int, str, object]]]:
    if by_point:
        return [[(index, p.workload, p.scale, p.variant, p.config)]
                for index, p in enumerate(points)]
    shards: dict[tuple[str, int], list] = {}
    for index, p in enumerate(points):
        shards.setdefault((p.workload, p.scale), []).append(
            (index, p.workload, p.scale, p.variant, p.config))
    return list(shards.values())


def run_sweep_iter(points: list[SweepPoint], jobs: int | None = 1,
                   store_dir: str | os.PathLike | None = None,
                   counters: dict | None = None,
                   limit_insns: int | None = None,
                   shard_by_point: bool = False,
                   max_cached_traces: int | None = DEFAULT_TRACE_CACHE,
                   backend=None
                   ) -> Iterator[tuple[int, PointResult]]:
    """Execute a sweep grid incrementally, yielding per-point results.

    A generator over ``(grid_index, PointResult)`` pairs in
    **completion order** (shards finish whenever their worker does;
    within a shard, points come back in grid order).  The caller can
    stop consuming at any time — an early ``break`` abandons the
    results it has not read; shards already executing on workers
    finish (their artifacts still land in the store) while still-
    queued shards are cancelled.

    ``backend`` selects the execution mechanism: ``None`` auto-picks
    (inline for serial shapes, a process pool otherwise), a name from
    :data:`~repro.engine.backend.BACKEND_NAMES` forces one, and a live
    :class:`~repro.engine.backend.ExecutionBackend` instance (the
    service's shared socket backend) is used without being closed.
    Backends never change *what* is planned — ``jobs`` keeps that role
    — so the yielded results are backend-independent.

    ``counters``, if given, is a dict the generator updates in place
    (``points``/``shards``/``emulations``/``simulations``/
    ``trace_cache_hits``/``stats_cache_hits``/``trace_evictions`` —
    the last counts inline-execution LRU evictions, always 0 on the
    pool and workers paths where eviction happens inside workers) —
    read it after exhausting the iterator for final totals.

    ``limit_insns`` simulates only each trace's first N instructions:
    the search engine's successive-halving rungs use this to buy cheap
    candidate rankings before promoting survivors to full runs.

    ``shard_by_point`` makes every grid point its own shard, so many
    variants of one workload spread across all workers instead of
    serializing on one.  Only sensible with a *store* whose traces are
    already present (each worker process unpickles a workload's trace
    once and caches it) — see :func:`run_trace_prewarm`; without a
    store it would re-emulate per point.  The search engine uses this
    for candidate batches, which are exactly the many-variants/
    few-workloads shape.

    ``max_cached_traces`` bounds every context's LRU trace cache
    (``None`` = unbounded).
    """
    jobs = resolve_jobs(jobs)
    store_dir = os.fspath(store_dir) if store_dir is not None else None
    shards = _make_shards(points, by_point=shard_by_point)
    if counters is None:
        counters = {}
    counters.update({"points": len(points), "shards": len(shards),
                     "emulations": 0, "simulations": 0,
                     "trace_cache_hits": 0, "stats_cache_hits": 0,
                     "trace_evictions": 0})

    def _absorb(shard_out) -> list[tuple[int, PointResult]]:
        absorbed = []
        for index, stats, flags in shard_out:
            point = points[index]
            result = PointResult(point=point, stats=stats,
                                 emulated=flags["emulated"],
                                 simulated=flags["simulated"])
            counters["emulations"] += flags["emulated"]
            counters["simulations"] += flags["simulated"]
            counters["trace_cache_hits"] += flags["trace_hit"]
            counters["stats_cache_hits"] += flags["stats_hit"]
            absorbed.append((index, result))
        return absorbed

    backend, owned = resolve_backend(backend, jobs=jobs,
                                     store_dir=store_dir,
                                     units=len(shards))
    inline = backend.name == "inline"
    try:
        group = backend.group()
        for shard in shards:
            group.submit(WorkUnit("sweep-shard",
                                  (shard, limit_insns, max_cached_traces)))
        while group.pending:
            _, (shard_out, evictions) = group.wait_any()
            if inline:
                # before the yields: a consumer that breaks mid-shard
                # must still see this shard's evictions
                counters["trace_evictions"] = evictions
            yield from _absorb(shard_out)
    finally:
        # an abandoned generator (early break / close(), or a
        # cancelled service job) must not run the rest of the grid:
        # the inline group runs a unit only when drained, and closing
        # an owned pool cancels its still-queued units
        if owned:
            backend.close()


def run_sweep(points: list[SweepPoint], jobs: int | None = 1,
              store_dir: str | os.PathLike | None = None,
              progress=None, segment_policy=None,
              max_cached_traces: int | None = DEFAULT_TRACE_CACHE,
              backend=None) -> SweepResult:
    """Execute a sweep grid, optionally in parallel and/or persisted.

    Collects :func:`run_sweep_iter` into a :class:`SweepResult` in
    grid order.  ``progress``, if given, is called after every
    completed point with a :class:`~repro.engine.events.PointEvent`
    (or, on the segmented path, per completed unit with a
    :class:`~repro.engine.events.SegmentEvent`).

    ``segment_policy`` (a
    :class:`~repro.engine.segments.SegmentPolicy`) switches to the
    segmented engine (:func:`repro.engine.segments.run_segmented_sweep`):
    traces are split into instruction-count segments that parallelize
    *within* a workload, at the cost of per-segment cold-start/drain
    effects on cycle counts.
    """
    if segment_policy is not None:
        from .segments import run_segmented_sweep
        return run_segmented_sweep(points, segment_policy, jobs=jobs,
                                   store_dir=store_dir, progress=progress,
                                   backend=backend)
    started = time.perf_counter()
    slots: list = [None] * len(points)
    counters: dict = {}
    done = 0
    for index, result in run_sweep_iter(points, jobs=jobs,
                                        store_dir=store_dir,
                                        counters=counters,
                                        max_cached_traces=
                                        max_cached_traces,
                                        backend=backend):
        slots[index] = result
        done += 1
        if progress is not None:
            progress(PointEvent(label=result.point.label, done=done,
                                total=len(points),
                                from_cache=result.from_cache))
    return SweepResult(results=slots, counters=counters,
                       elapsed=time.perf_counter() - started,
                       jobs=resolve_jobs(jobs))


def run_trace_prewarm(pairs: list[tuple[str, int]], jobs: int | None,
                      store_dir: str | os.PathLike,
                      backend=None) -> dict[str, int]:
    """Emulate any missing oracle traces in parallel into a store.

    Only useful with a persistent store: workers deposit the traces
    there, and the caller's subsequent :func:`ArtifactStore.load_trace`
    calls become unpickles instead of emulations.  Returns counters
    ``{"traces": ..., "emulations": ...}``.
    """
    jobs = resolve_jobs(jobs)
    store_dir = os.fspath(store_dir)
    shards = [[pair] for pair in dict.fromkeys(pairs)]
    counters = {"traces": len(shards), "emulations": 0}
    if not shards:
        return counters
    backend, owned = resolve_backend(backend, jobs=jobs,
                                     store_dir=store_dir,
                                     units=len(shards))
    try:
        group = backend.group()
        for shard in shards:
            group.submit(WorkUnit("prewarm-shard", (shard,),
                                  phase="prewarm"))
        while group.pending:
            _, out = group.wait_any()
            counters["emulations"] += sum(emulated
                                          for *_, emulated in out)
    finally:
        if owned:
            backend.close()
    return counters

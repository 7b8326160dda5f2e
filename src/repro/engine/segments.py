"""Intra-workload sharding: segmented trace simulation under a policy.

The plain sweep engine (:mod:`repro.engine.pool`) parallelizes only
*across* grid points, so one long workload bounds a sweep's wall-clock
time.  This module decomposes each ``(workload, scale)`` trace into
instruction-count **segments** and simulates them under a
:class:`SegmentPolicy`:

* ``mode="fixed"`` — segments of exactly ``segment_insns``
  instructions.
* ``mode="adaptive"`` — segment size derived from the trace length:
  short traces collapse to one segment (zero extra drain boundaries,
  stats identical to the monolithic run), long traces target about
  ``2 x jobs`` shards so the pool tail stays short.
* ``mode="sampled"`` — simulate every ``sample_period``-th segment in
  detail (optionally with a ``warmup_insns`` warm prefix), emulate-only
  the rest, and extrapolate the merged :class:`PipelineStats` with
  per-field confidence half-widths.  Results are explicitly marked
  ``estimated``; exact modes stay byte-identical to the flat engine's
  event counters.

One planner drives every :class:`~repro.engine.backend.ExecutionBackend`
(inline, a local process pool, or remote socket workers).  It submits
work units and absorbs their results by ticket:

* a pair whose plan is known (a stored manifest, or a stored oracle
  trace to slice) is one ``seg-shard`` unit per detailed segment, each
  simulating that window for every config that misses the
  segment-stats cache;
* a cold pair on a parallel backend is a chain of ``seg-window``
  units, each emulating one segment from the previous boundary's
  stored checkpoint, with each detailed segment's shard dispatched as
  soon as its columns land (adaptive mode first learns the trace
  length with a ``seg-measure`` unit);
* a cold pair on a serial backend is one ``seg-stream`` unit: one
  emulator walks the trace and simulates each detailed window the
  moment it materializes, writing no segment trace, checkpoint or
  oracle trace that nothing would read back.

Segment boundaries are unchanged from the original planner: each
segment starts a **cold** microarchitecture (empty caches/predictors)
and ends with a full pipeline drain, so instruction and event counters
merge exactly while cycle counts carry a per-segment fill+drain
overhead (see README "Segmented simulation").
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, fields

from ..functional.emulator import Emulator
from ..uarch.config import MachineConfig
from ..uarch.pipeline import simulate_trace
from ..uarch.stats import _MERGE_MAX_FIELDS, PipelineStats
from ..workloads import build_program
from .backend import (ExecutionBackend, InlineBackend, WorkUnit,
                      register_executor, resolve_backend)
from .campaign import SweepPoint
from .events import SegmentEvent
from .pool import PointResult, SweepResult, resolve_jobs
from .store import ArtifactStore
from .telemetry import TELEMETRY

#: Matches ``workloads.build_trace``'s budget for monolithic emulation.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

#: Valid :class:`SegmentPolicy` modes.
SEGMENT_MODES = ("fixed", "adaptive", "sampled")

#: Simulate every Nth segment when ``mode="sampled"`` leaves the
#: period unspecified.
DEFAULT_SAMPLE_PERIOD = 4

#: Adaptive sizing never cuts segments smaller than this: below it the
#: per-segment fill+drain overhead dominates anything parallelism buys.
ADAPTIVE_MIN_SEGMENT = 4096

#: Two-sided 95% normal quantile for sampled-mode confidence bounds.
CONFIDENCE_Z = 1.959963984540054

#: Sampling can never prove the unsampled segments look like the
#: sampled ones: a program whose phase length divides the sample
#: stride shows the grid identical samples (zero estimated variance)
#: while hiding a real offset.  Every half-width is therefore floored
#: at this fraction of the field's extrapolated (unobserved) share.
ALIGNMENT_GUARD = 0.02


@dataclass(frozen=True)
class SegmentPolicy:
    """How a sweep segments, samples, and sizes its trace windows.

    One policy object is accepted everywhere a segmented sweep runs —
    :func:`run_segmented_sweep`, :func:`simulate_workload_segmented`,
    :func:`repro.engine.pool.run_sweep`, the experiment runner, the
    service job spec (as :meth:`to_manifest`), and the CLI.

    ``phase_seed`` decorrelates sampled mode's phase across workloads:
    the first detailed segment of each trace is a seeded hash of
    ``(phase_seed, workload, scale)`` modulo the period, so periodic
    program phases do not systematically align with the sample grid.
    """

    mode: str = "fixed"
    segment_insns: int | None = None
    sample_period: int | None = None
    warmup_insns: int = 0
    phase_seed: int = 0

    #: Manifest fields and their JSON types.
    _MANIFEST_TYPES = {"mode": str, "segment_insns": int,
                       "sample_period": int, "warmup_insns": int,
                       "phase_seed": int}

    def __post_init__(self):
        if self.mode not in SEGMENT_MODES:
            raise ValueError(
                f"segment mode must be one of {list(SEGMENT_MODES)}, "
                f"got {self.mode!r}")
        if self.mode == "adaptive":
            if self.segment_insns is not None:
                raise ValueError(
                    "adaptive mode sizes segments from the trace; "
                    f"drop segment_insns (got {self.segment_insns})")
        elif self.segment_insns is None or self.segment_insns <= 0:
            raise ValueError(
                f"{self.mode} mode needs segment_insns > 0, "
                f"got {self.segment_insns}")
        if self.mode == "sampled":
            period = (DEFAULT_SAMPLE_PERIOD if self.sample_period is None
                      else self.sample_period)
            if period < 2:
                raise ValueError(
                    "sample_period must be >= 2 (1 simulates every "
                    f"segment — use mode='fixed'), got {period}")
            object.__setattr__(self, "sample_period", period)
            if self.warmup_insns < 0:
                raise ValueError(
                    f"warmup_insns must be >= 0, got {self.warmup_insns}")
        else:
            if self.sample_period is not None:
                raise ValueError(
                    f"sample_period only applies to sampled mode, "
                    f"not {self.mode!r}")
            if self.warmup_insns:
                raise ValueError(
                    f"warmup_insns only applies to sampled mode, "
                    f"not {self.mode!r}")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_manifest(self) -> dict:
        """JSON-serializable identity (store manifests, job specs)."""
        manifest = {"mode": self.mode}
        if self.segment_insns is not None:
            manifest["segment_insns"] = self.segment_insns
        if self.mode == "sampled":
            manifest["sample_period"] = self.sample_period
            manifest["warmup_insns"] = self.warmup_insns
            manifest["phase_seed"] = self.phase_seed
        return manifest

    @classmethod
    def from_manifest(cls, manifest: dict) -> "SegmentPolicy":
        """Rebuild from :meth:`to_manifest` output.

        Unknown fields are rejected by name: a policy field the server
        does not understand silently ignored would change what the job
        simulates; so is a value of another JSON type (``1500.7`` or
        ``true`` for an integer).  A null field takes its default.
        """
        unknown = sorted(set(manifest) - set(cls._MANIFEST_TYPES))
        if unknown:
            raise ValueError(
                f"unknown segment policy fields {unknown}; "
                f"known fields: {sorted(cls._MANIFEST_TYPES)}")
        given = {key: value for key, value in manifest.items()
                 if value is not None}
        for key, value in given.items():
            # type(), not isinstance(): a bool is no JSON integer
            if type(value) is not cls._MANIFEST_TYPES[key]:
                kind = "a string" if key == "mode" else "an integer"
                raise ValueError(f"policy {key} must be {kind}, "
                                 f"got {value!r}")
        return cls(**given)

    def token(self) -> str:
        """A short stable string identity (cache keys, ledger labels)."""
        return "|".join(f"{key}={value}" for key, value
                        in sorted(self.to_manifest().items()))

    # ------------------------------------------------------------------
    # resolution against one trace
    # ------------------------------------------------------------------

    @property
    def sampled(self) -> bool:
        return self.mode == "sampled"

    def resolve(self, total_instructions: int, jobs: int) -> int:
        """Concrete segment size for one trace (store keys use this)."""
        if self.mode != "adaptive":
            return self.segment_insns
        total = max(1, total_instructions)
        if jobs <= 1 or total <= ADAPTIVE_MIN_SEGMENT:
            # no parallelism to feed (or nothing worth splitting):
            # one segment keeps stats identical to the monolithic run
            return total
        size = -(-total // (2 * jobs))  # ceil: ~2 shards per worker
        return max(size, ADAPTIVE_MIN_SEGMENT)

    def effective_warmup(self, segment_insns: int) -> int:
        """Warm-prefix length, clamped so windows never span two
        earlier segments (adjacent detailed segments cannot occur:
        ``sample_period >= 2``)."""
        if not self.sampled:
            return 0
        return min(self.warmup_insns, segment_insns)

    def sample_grid(self, workload: str, scale: int) -> tuple[int, int]:
        """``(period, offset)``: segment *j* of one trace is on the
        detailed grid when ``j % period == offset`` — every segment in
        exact modes, a seeded phase offset in sampled mode."""
        if not self.sampled:
            return 1, 0
        key = f"{self.phase_seed}:{workload}@{scale}"
        return (self.sample_period,
                zlib.crc32(key.encode()) % self.sample_period)

    def detailed_indices(self, num_segments: int, workload: str,
                         scale: int) -> tuple[int, ...]:
        """Which segment indices get detailed simulation.

        Exact modes: all of them.  Sampled: every
        ``sample_period``-th starting at the seeded phase offset,
        plus always the final segment — the only one whose length
        (and so drain share) can differ from the rest, so simulating
        it outright removes the one structural bias extrapolation
        cannot average away (and guarantees even a trace too short to
        hit the grid rests on at least one real sample).
        """
        period, offset = self.sample_grid(workload, scale)
        chosen = set(range(offset, num_segments, period))
        if self.sampled and num_segments > 0:
            chosen.add(num_segments - 1)
        return tuple(sorted(chosen))


@dataclass(frozen=True)
class SegmentPlan:
    """A completed segmentation of one ``(workload, scale)`` trace."""

    workload: str
    scale: int
    segment_insns: int
    lengths: tuple[int, ...]

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    @property
    def total_instructions(self) -> int:
        return sum(self.lengths)

    def to_manifest(self) -> dict:
        return {"workload": self.workload, "scale": self.scale,
                "segment_insns": self.segment_insns,
                "num_segments": self.num_segments,
                "total_instructions": self.total_instructions,
                "lengths": list(self.lengths)}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "SegmentPlan":
        return cls(workload=manifest["workload"], scale=manifest["scale"],
                   segment_insns=manifest["segment_insns"],
                   lengths=tuple(manifest["lengths"]))


def _arith_lengths(total: int, segment_insns: int) -> tuple[int, ...]:
    """Segment lengths of a trace known only by total length.

    Valid because only the final segment of a trace can be short —
    the same invariant the planner's checkpoint-resume relies on.
    """
    full, rem = divmod(total, segment_insns)
    return tuple([segment_insns] * full + ([rem] if rem else []))


# ----------------------------------------------------------------------
# window derivation: get one segment's columns from whatever exists
# ----------------------------------------------------------------------

def _segment_window(store: ArtifactStore, workload: str, scale: int,
                    segment_insns: int, index: int,
                    lengths: tuple[int, ...] | None, warmup: int,
                    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS):
    """Packed columns for segment *index* (plus its warm prefix).

    Cheapest available source first: the stored segment trace (exact
    windows only — a stored segment lacks the warm prefix), a slice of
    the stored oracle trace, an emulator restored from the nearest
    stored checkpoint, and finally a fresh emulator replaying the
    prefix.  *lengths* may be ``None`` only when the caller knows the
    segment trace is on disk (the pipelined pool driver's
    dispatch-on-land path).
    """
    warmup = min(warmup, segment_insns)
    if warmup <= 0:
        trace = store.load_segment_trace(workload, scale, segment_insns,
                                         index)
        if trace is not None:
            return trace
    if lengths is None:
        raise RuntimeError(
            f"segment trace {workload}@{scale}#{index} missing from "
            f"store {store.root} and no plan lengths to re-derive it")
    start = sum(lengths[:index])
    lo = max(0, start - warmup)
    hi = start + lengths[index]
    oracle = store.load_trace(workload, scale)
    if oracle is not None and len(oracle) >= hi:
        return oracle[lo:hi]
    emulator = Emulator(build_program(workload, scale),
                        max_instructions=max_instructions)
    # Checkpoint k sits at k * segment_insns instructions (only full
    # segments ever get a boundary checkpoint).
    for k in range(index, 0, -1):
        if k * segment_insns > lo:
            continue
        state = store.load_checkpoint(workload, scale, segment_insns, k)
        if state is not None:
            emulator.restore(state)
            break
    skip = lo - emulator.instruction_count
    if skip > 0:
        emulator.run_packed(skip)
    window = emulator.run_packed(hi - lo)
    emulated = skip + len(window) if skip > 0 else len(window)
    if emulated > 0:
        TELEMETRY.counter("repro_emu_runs_total").inc()
        TELEMETRY.counter("repro_emu_instructions_total").inc(emulated)
    if len(window) != hi - lo:
        raise RuntimeError(
            f"re-derived window for {workload}@{scale}#{index} came up "
            f"short ({len(window)} != {hi - lo} instructions)")
    return window


# ----------------------------------------------------------------------
# unit executors (run wherever the backend puts them)
# ----------------------------------------------------------------------

@register_executor("seg-measure")
def _measure_unit(payload: tuple[str, int, int], env
                  ) -> tuple[str, int, int, int]:
    """Adaptive sizing's cold-start: learn (and store) a trace's length.

    Emulates the whole trace once if the store has neither the oracle
    trace nor its metadata; saves both so follow-up shards slice the
    oracle instead of re-emulating.  Returns ``(workload, scale,
    total_instructions, emulated_instructions)``.
    """
    store = env.store
    workload, scale, max_instructions = payload
    with TELEMETRY.timer("repro_segments_plan_seconds"):
        trace = store.load_trace(workload, scale)
        emulated = 0
        if trace is None:
            emulator = Emulator(build_program(workload, scale),
                                max_instructions=max_instructions)
            trace = emulator.run_packed()
            emulated = len(trace)
            store.save_trace(workload, scale, trace)
            TELEMETRY.counter("repro_emu_runs_total").inc()
            TELEMETRY.counter("repro_emu_instructions_total").inc(emulated)
        total = len(trace)
        store.save_trace_info(workload, scale, {"instructions": total})
    return (workload, scale, total, emulated)


@register_executor("seg-window")
def _window_unit(payload: tuple[str, int, int, int, int], env
                 ) -> tuple[str, int, int, int, int, bool]:
    """Emulate one segment window, persisting its trace + checkpoint.

    One link of the pipelined driver's emulation chain: restore the
    boundary checkpoint for *index* (or the nearest earlier one,
    fast-forwarding the gap), emulate one segment, store it, and
    checkpoint the next boundary.  Returns ``(workload, scale, index,
    window_length, total_instructions_so_far, halted)`` — on halt the
    driver derives every segment length arithmetically from the total,
    so a stale short segment left by a killed run can never corrupt
    the plan.
    """
    store = env.store
    workload, scale, segment_insns, index, max_instructions = payload
    with TELEMETRY.timer("repro_segments_plan_seconds"):
        emulator = Emulator(build_program(workload, scale),
                            max_instructions=max_instructions)
        for k in range(index, 0, -1):
            state = store.load_checkpoint(workload, scale, segment_insns,
                                          k)
            if state is not None:
                emulator.restore(state)
                break
        while (not emulator.halted
               and emulator.instruction_count < index * segment_insns):
            gap = index * segment_insns - emulator.instruction_count
            if not len(emulator.run_packed(min(gap, segment_insns))):
                break
        window = emulator.run_packed(segment_insns)
        length = len(window)
        halted = emulator.halted or length < segment_insns
        if length:
            store.save_segment_trace(workload, scale, segment_insns,
                                     index, window)
            if not halted:
                store.save_checkpoint(workload, scale, segment_insns,
                                      index + 1, emulator.checkpoint())
            TELEMETRY.counter("repro_emu_runs_total").inc()
            TELEMETRY.counter("repro_emu_instructions_total").inc(length)
    return (workload, scale, index, length,
            emulator.instruction_count, halted)


def _simulate_window(store: ArtifactStore, workload: str, scale: int,
                     segment_insns: int, index: int, items: list,
                     warmup: int, load_window) -> list:
    """One segment's stats for every ``(point_index, config)`` item.

    The cache discipline both simulate units share: exact windows go
    through the segment-stats cache, while warmup-extended windows
    (sampled mode) are never persisted — they are not the segment's
    exact stats.  ``load_window()`` is called at most once, and only if
    some config misses the cache.  Returns ``[(point_index, index,
    stats, hit), ...]``.
    """
    persist = warmup == 0
    window = None
    out = []
    for point_index, config in items:
        stats = (store.load_segment_stats(workload, scale, segment_insns,
                                          index, config)
                 if persist else None)
        hit = stats is not None
        if stats is None:
            if window is None:
                window = load_window()
            stats = simulate_trace(window, config)
            if persist:
                store.save_segment_stats(workload, scale, segment_insns,
                                         index, config, stats)
        out.append((point_index, index, stats, hit))
    return out


@register_executor("seg-shard")
def _simulate_shard_unit(payload: tuple, env) -> list:
    """Simulate one segment for every config that needs it.

    ``payload`` is ``(workload, scale, segment_insns, seg_index,
    [(point_index, config), ...], lengths | None, warmup_insns)``; the
    segment window is materialized at most once no matter how many
    machine variants consume it (see :func:`_simulate_window`).
    """
    store = env.store
    workload, scale, segment_insns, index, items, lengths, warmup = payload
    with TELEMETRY.timer("repro_pool_shard_execute_seconds"):
        return _simulate_window(
            store, workload, scale, segment_insns, index, items, warmup,
            lambda: _segment_window(store, workload, scale, segment_insns,
                                    index, lengths, warmup))


@register_executor("seg-stream")
def _stream_unit(payload: tuple, env) -> tuple[int, int, int, list]:
    """A cold pair in one pass: emulate once, simulate as windows land.

    ``payload`` is ``(workload, scale, policy, jobs, segment_insns |
    None, [(point_index, config), ...], max_instructions)``.  One
    emulator walks the trace; each detailed window (warm prefix
    included) is simulated the moment it materializes, and skipped
    segments are emulated and discarded.  With no segment size yet
    (adaptive mode, no trace length stored) one pass both measures the
    trace and supplies every window.  Writes segment stats only — no
    segment trace, checkpoint or oracle trace that nothing would read
    back.  Returns ``(segment_insns, total_instructions,
    emulated_instructions, [shard rows per simulated segment])``; a
    detailed segment the stream could not cover (an off-grid final
    segment under a warm prefix) is left to the planner's shards.
    """
    store = env.store
    workload, scale, policy, jobs, segment_insns, items, \
        max_instructions = payload
    emulator = Emulator(build_program(workload, scale),
                        max_instructions=max_instructions)
    shards = []
    if segment_insns is None:
        # adaptive (every segment detailed, no warm prefix): slice the
        # windows out of the stored oracle trace or one full emulation
        trace = store.load_trace(workload, scale)
        emulated = 0
        if trace is None:
            trace = emulator.run_packed()
            emulated = len(trace)
        total = len(trace)
        segment_insns = policy.resolve(total, jobs)
        for start in range(0, total, segment_insns):
            window = trace[start:start + segment_insns]
            shards.append(_simulate_window(
                store, workload, scale, segment_insns,
                start // segment_insns, items, 0, lambda: window))
    else:
        warmup = policy.effective_warmup(segment_insns)
        period, offset = policy.sample_grid(workload, scale)
        pos = j = 0
        halted = False
        while not halted:
            start = j * segment_insns
            end = start + segment_insns
            if j % period == offset:
                # the window absorbs whatever warm prefix the previous
                # discard chunk deliberately left behind
                window = emulator.run_packed(end - pos)
                pos += len(window)
                halted = pos < end or emulator.halted
                if pos > start:  # window reaches into segment j
                    shards.append(_simulate_window(
                        store, workload, scale, segment_insns, j, items,
                        warmup, lambda: window))
            else:
                stop = end - (warmup if (j + 1) % period == offset else 0)
                need = stop - pos
                if need > 0:
                    chunk = emulator.run_packed(need)
                    pos += len(chunk)
                    halted = len(chunk) < need or emulator.halted
                    if halted and len(chunk) and warmup == 0:
                        # the program ended inside this discard chunk,
                        # which therefore IS the final segment — always
                        # a detailed sample, so simulate it now rather
                        # than re-deriving it with a second emulation
                        shards.append(_simulate_window(
                            store, workload, scale, segment_insns, j,
                            items, 0, lambda: chunk))
                else:
                    halted = emulator.halted
            j += 1
        total = emulated = pos
    if emulated:
        TELEMETRY.counter("repro_emu_runs_total").inc()
        TELEMETRY.counter("repro_emu_instructions_total").inc(emulated)
    return segment_insns, total, emulated, shards


# ----------------------------------------------------------------------
# sampled-mode extrapolation
# ----------------------------------------------------------------------

def _extrapolate(plan: SegmentPlan, detailed: tuple[int, ...],
                 samples: dict[int, PipelineStats], warmup: int,
                 ) -> tuple[PipelineStats, dict]:
    """Scale sampled per-segment stats up to the whole trace.

    Certainty-stratum ratio estimator: the simulated segments
    contribute their own (exactly known) counts; only the *unsampled*
    mass is extrapolated, at the pooled per-instruction rate of the
    sampled full-length segments.  ``retired`` is pinned to the exact
    trace length (known without simulation) and peak counters
    (:data:`_MERGE_MAX_FIELDS`) pass through unscaled.

    The returned bounds dict carries a per-field 95% confidence
    half-width covering the extrapolated share (segments as the
    sampling unit, finite-population corrected,
    successive-difference variance — every-Nth sampling walks the
    trace in order, so slow program-phase trends cancel between
    neighboring samples and only local variation remains) plus a
    headline ``relative_error`` derived from the cycle bound.
    Iteration order is fixed (sorted indices, declared field order)
    so repeated runs produce byte-identical ledgers.
    """
    idx = sorted(detailed)
    observed = PipelineStats.merge_all([samples[i] for i in idx])
    total = plan.total_instructions
    # each simulated window is its segment plus the warm prefix before
    # it (only the final segment can be short, so segment i starts at
    # i * segment_insns) — a function of the plan, whoever simulated it
    window_lens = {i: min(warmup, i * plan.segment_insns) + plan.lengths[i]
                   for i in idx}
    window_total = sum(window_lens[i] for i in idx)
    if window_total <= 0 or total <= 0:
        return observed, {"relative_error": 0.0, "half_width": {},
                          "sampled_segments": len(idx),
                          "total_segments": plan.num_segments,
                          "coverage": 1.0}
    known_insns = sum(plan.lengths[i] for i in idx)
    unknown_insns = total - known_insns
    # The rate pool: sampled segments of nominal length.  Short
    # segments (only the final one can be) carry a disproportionate
    # drain share and would skew the per-instruction rate applied to
    # the full-length unsampled segments.
    pool = [i for i in idx if plan.lengths[i] == plan.segment_insns]
    if not pool:
        pool = idx
    pool_window = sum(window_lens[i] for i in pool)
    n = len(pool)
    # Every unsampled segment is full-length (the final segment is
    # always sampled), so the pool is a systematic sample of the
    # full-length population; the finite-population correction
    # reflects how much of that population was actually simulated.
    full_population = sum(1 for length in plan.lengths
                          if length == plan.segment_insns)
    fpc = (math.sqrt(max(0, full_population - n) /
                     (full_population - 1))
           if full_population > 1 else 0.0)
    estimated = PipelineStats()
    half_width: dict[str, float] = {}
    for spec in fields(PipelineStats):
        if spec.name == "extra":
            continue
        value = getattr(observed, spec.name)
        if spec.name in _MERGE_MAX_FIELDS:
            setattr(estimated, spec.name, value)  # peak: best seen
            continue
        if spec.name == "retired":
            setattr(estimated, spec.name, total)  # exact by construction
            continue
        # Known stratum: each window's count scaled down to its
        # segment's share (a warmup prefix inflates the window; with
        # no warmup the factor is exactly 1).
        known = sum(getattr(samples[i], spec.name)
                    * (plan.lengths[i] / window_lens[i]) for i in idx)
        rate = (sum(getattr(samples[i], spec.name) for i in pool)
                / pool_window)
        setattr(estimated, spec.name,
                int(round(known + rate * unknown_insns)))
        if value <= 0 or unknown_insns <= 0:
            continue
        if n >= 2:
            residuals = [getattr(samples[i], spec.name)
                         - rate * window_lens[i] for i in pool]
            var = (sum((residuals[k] - residuals[k - 1]) ** 2
                       for k in range(1, n)) / (2 * (n - 1)))
            half = (CONFIDENCE_Z * math.sqrt(n * var)
                    * (unknown_insns / pool_window) * fpc)
            half = max(half, ALIGNMENT_GUARD * rate * unknown_insns)
        else:
            # one full-length sample: no variance estimate — bound by
            # the whole extrapolated (unobserved) share
            half = rate * unknown_insns
        if half > 0:
            half_width[spec.name] = round(half, 3)
    ratio = total / window_total
    estimated.extra = {key: value * ratio
                       for key, value in sorted(observed.extra.items())}
    cycles = getattr(estimated, "cycles", 0)
    relative = (half_width.get("cycles", 0.0) / cycles) if cycles else 0.0
    return estimated, {"relative_error": round(relative, 6),
                       "half_width": half_width,
                       "sampled_segments": len(idx),
                       "total_segments": plan.num_segments,
                       "coverage": round(known_insns / total, 6)}


# ----------------------------------------------------------------------
# the planner: one driver for every backend
# ----------------------------------------------------------------------

class _SegmentedRun:
    """State for one segmented sweep: plans, partials, counters, events."""

    def __init__(self, points: list[SweepPoint], policy: SegmentPolicy,
                 jobs: int, store_dir: str, progress,
                 max_instructions: int):
        if not isinstance(policy, SegmentPolicy):
            raise TypeError(f"segmented simulation needs a SegmentPolicy, "
                            f"got {policy!r}")
        self.points = points
        self.policy = policy
        self.jobs = jobs
        self.store_dir = store_dir
        self.progress = progress
        self.max_instructions = max_instructions
        self.pairs = list(dict.fromkeys((p.workload, p.scale)
                                        for p in points))
        self.items: dict[tuple[str, int], list] = {}
        for index, point in enumerate(points):
            self.items.setdefault((point.workload, point.scale),
                                  []).append((index, point.config))
        self.plans: dict[tuple[str, int], SegmentPlan] = {}
        self.detailed: dict[tuple[str, int], tuple[int, ...]] = {}
        self.partials: list[dict[int, PipelineStats]] = \
            [{} for _ in points]
        self.hits = [0] * len(points)
        self.counters = {
            "points": len(points),
            "segment_insns": policy.segment_insns or 0,
            "emulations": 0, "emulated_instructions": 0,
            "segments": 0, "segments_detailed": 0, "segments_skipped": 0,
            "segment_simulations": 0, "segment_stats_hits": 0,
            "simulations": 0,
        }
        self._done_units = 0
        self._total_units = 0

    # -- events --------------------------------------------------------

    def _emit(self, phase: str, done: int, total: int,
              message: str) -> None:
        if self.progress is not None:
            self.progress(SegmentEvent(
                message=message, done=done, total=max(total, done),
                phase=phase, estimated=self.policy.sampled))

    # -- plan bookkeeping ----------------------------------------------

    def _save_plan(self, store: ArtifactStore, plan: SegmentPlan) -> None:
        manifest = plan.to_manifest()
        # provenance only: the manifest is keyed by (workload, scale,
        # segment size), shared by every policy that resolves to them
        manifest["policy"] = self.policy.to_manifest()
        store.save_manifest(plan.workload, plan.scale,
                            plan.segment_insns, manifest)
        store.save_trace_info(plan.workload, plan.scale,
                              {"instructions": plan.total_instructions})

    def _finalize_plan(self, pair: tuple[str, int],
                       plan: SegmentPlan) -> None:
        self.plans[pair] = plan
        det = self.policy.detailed_indices(plan.num_segments, *pair)
        self.detailed[pair] = det
        self.counters["segments"] += plan.num_segments
        self.counters["segments_detailed"] += len(det)
        self.counters["segments_skipped"] += plan.num_segments - len(det)
        if self.policy.sampled:
            TELEMETRY.counter("repro_sampled_segments_total",
                              kind="detailed").inc(len(det))
            TELEMETRY.counter("repro_sampled_segments_total",
                              kind="skipped").inc(
                                  plan.num_segments - len(det))
        self._total_units += len(det) * len(self.items[pair])
        self._emit("plan", len(self.plans), len(self.pairs),
                   f"planned {pair[0]}@{pair[1]} "
                   f"({plan.num_segments} segments)")

    def _emulated_plan(self, store: ArtifactStore, pair: tuple[str, int],
                       segment_insns: int, total: int,
                       emulated: int) -> SegmentPlan:
        """Save and finalize the plan a cold pair's emulation found."""
        if emulated:
            self.counters["emulations"] += 1
            self.counters["emulated_instructions"] += emulated
        plan = SegmentPlan(pair[0], pair[1], segment_insns,
                           _arith_lengths(total, segment_insns))
        self._save_plan(store, plan)
        self._finalize_plan(pair, plan)
        return plan

    # -- driving units -------------------------------------------------

    def run_units(self, backend: ExecutionBackend) -> None:
        """Drive the whole run as work units on *backend*.

        The planner is backend-agnostic: it submits units to a private
        group and absorbs results by ticket, so inline, pool and
        socket-worker runs produce identical plans and ledgers.  The
        one choice the backend makes is how a cold pair is emulated: a
        serial backend streams it in one ``seg-stream`` unit, a
        parallel one chains ``seg-window`` units so simulation shards
        overlap the emulation.
        """
        store = ArtifactStore(self.store_dir)
        self._stream = backend.parallelism <= 1
        self._pending: dict[int, tuple[str, tuple[str, int]]] = {}
        self._chains: dict[tuple[str, int], dict] = {}
        self._group = backend.group()
        # dispatch-on-land sends shards whose window exists only as a
        # store artifact; that requires executors to see the planner's
        # artifacts — true for inline/pool (same store directory) and
        # for socket workers when the backend replicates blobs (it was
        # built with a store).  A storeless workers backend falls back
        # to post-plan dispatch, whose shards can re-derive windows.
        self._landed_ok = (backend.name != "workers"
                           or getattr(backend, "store_dir", None)
                           is not None)
        for pair in self.pairs:
            segment_insns = self.policy.segment_insns
            if self.policy.mode == "adaptive":
                info = store.load_trace_info(*pair)
                # resolve against self.jobs (not 1): inline execution
                # of a jobs=N plan must segment exactly like the pool
                # would, or backends could not be ledger-equivalent
                segment_insns = (
                    None if info is None else
                    self.policy.resolve(int(info["instructions"]),
                                        self.jobs))
            self._plan_pair(store, pair, segment_insns)
        while self._pending:
            ticket, payload = self._group.wait_any()
            kind, pair = self._pending.pop(ticket)
            if kind == "measure":
                self._on_measure(store, payload)
            elif kind == "window":
                self._on_window(store, pair, payload)
            elif kind == "stream":
                self._on_stream(store, pair, payload)
            else:
                self._on_shard(pair, payload)

    def _submit(self, kind: str, pair: tuple[str, int], unit_kind: str,
                payload: tuple, phase: str) -> None:
        ticket = self._group.submit(WorkUnit(unit_kind, payload,
                                             phase=phase))
        self._pending[ticket] = (kind, pair)

    def _plan_pair(self, store: ArtifactStore, pair: tuple[str, int],
                   segment_insns: int | None) -> None:
        """Plan one pair; ``segment_insns=None`` means adaptive mode
        has no trace length yet."""
        workload, scale = pair
        if segment_insns is not None:
            manifest = store.load_manifest(workload, scale, segment_insns)
            # warm-prefix windows are never persisted, so such a pair
            # plans like a cold one: the stream emulates it again in
            # one pass (it left no checkpoints to re-derive windows
            # from), and the chain resumes at its last checkpoint
            warmup = self.policy.effective_warmup(segment_insns)
            if manifest is not None and not warmup:
                plan = SegmentPlan.from_manifest(manifest)
                self._finalize_plan(pair, plan)
                self._dispatch_planned_shards(pair, plan, set())
                return
            info = store.load_trace_info(workload, scale)
            if info is not None and store.has_trace(workload, scale):
                # the oracle trace exists (a flat sweep, a prewarm, or
                # a measure task deposited it): the plan is pure
                # arithmetic and every shard just slices the oracle
                plan = SegmentPlan(workload, scale, segment_insns,
                                   _arith_lengths(
                                       int(info["instructions"]),
                                       segment_insns))
                self._save_plan(store, plan)
                self._finalize_plan(pair, plan)
                self._dispatch_planned_shards(pair, plan, set())
                return
        if self._stream:
            self._submit("stream", pair, "seg-stream",
                         (workload, scale, self.policy, self.jobs,
                          segment_insns, self.items[pair],
                          self.max_instructions), "plan")
            return
        if segment_insns is None:
            self._submit("measure", pair, "seg-measure",
                         (workload, scale, self.max_instructions), "plan")
            return
        # cold: chain window tasks through checkpoints, dispatching
        # each detailed segment's shard as soon as its columns land
        ready = 0
        while store.has_segment_trace(workload, scale, segment_insns,
                                      ready):
            ready += 1
        chain = self._chains[pair] = {
            "segment_insns": segment_insns, "emulated": 0,
            "dispatched": set(), "warmup": warmup,
            "grid": self.policy.sample_grid(workload, scale),
        }
        for index in range(ready):
            self._maybe_dispatch_landed(pair, chain, index)
        self._submit("window", pair, "seg-window",
                     (workload, scale, segment_insns, ready,
                      self.max_instructions), "plan")

    def _on_measure(self, store: ArtifactStore, payload) -> None:
        workload, scale, total, emulated = payload
        if emulated:
            self.counters["emulations"] += 1
            self.counters["emulated_instructions"] += emulated
        self._plan_pair(store, (workload, scale),
                        self.policy.resolve(total, self.jobs))

    def _on_stream(self, store: ArtifactStore, pair: tuple[str, int],
                   payload) -> None:
        segment_insns, total, emulated, shards = payload
        plan = self._emulated_plan(store, pair, segment_insns, total,
                                   emulated)
        for rows in shards:
            self._on_shard(pair, rows)
        self._dispatch_planned_shards(pair, plan,
                                      {rows[0][1] for rows in shards})

    def _maybe_dispatch_landed(self, pair: tuple[str, int], chain: dict,
                               index: int) -> None:
        """Dispatch a segment's shard the moment its trace is on disk.

        Only for exact windows (no warm prefix): a warmup window needs
        the finalized plan's offsets, so sampled-with-warmup shards
        wait for the chain to finish.
        """
        period, offset = chain["grid"]
        if not self._landed_ok:
            return
        if chain["warmup"] > 0 or index % period != offset:
            return
        if index in chain["dispatched"]:
            return
        chain["dispatched"].add(index)
        workload, scale = pair
        self._submit("shard", pair, "seg-shard",
                     (workload, scale, chain["segment_insns"], index,
                      self.items[pair], None, 0), "simulate")

    def _on_window(self, store: ArtifactStore, pair: tuple[str, int],
                   payload) -> None:
        workload, scale, index, length, total, halted = payload
        chain = self._chains[pair]
        segment_insns = chain["segment_insns"]
        chain["emulated"] += length
        if length:
            self._maybe_dispatch_landed(pair, chain, index)
        if not halted:
            self._submit("window", pair, "seg-window",
                         (workload, scale, segment_insns, index + 1,
                          self.max_instructions), "plan")
            return
        plan = self._emulated_plan(store, pair, segment_insns, total,
                                   chain["emulated"])
        self._dispatch_planned_shards(pair, plan, chain["dispatched"])

    def _dispatch_planned_shards(self, pair: tuple[str, int],
                                 plan: SegmentPlan,
                                 already: set[int]) -> None:
        warmup = self.policy.effective_warmup(plan.segment_insns)
        for index in self.detailed[pair]:
            if index in already:
                continue
            self._submit("shard", pair, "seg-shard",
                         (pair[0], pair[1], plan.segment_insns, index,
                          self.items[pair], list(plan.lengths), warmup),
                         "simulate")

    def _on_shard(self, pair: tuple[str, int], payload) -> None:
        for point_index, seg_index, stats, hit in payload:
            self.partials[point_index][seg_index] = stats
            self.counters["segment_stats_hits"] += hit
            self.counters["segment_simulations"] += not hit
            self.hits[point_index] += hit
        self._done_units += len(payload)
        self._emit("simulate", self._done_units, self._total_units,
                   f"{pair[0]}@{pair[1]} segment {payload[0][1]} "
                   f"({len(payload)} configs)")

    # -- reduction -----------------------------------------------------

    def reduce(self) -> list[PointResult]:
        self.counters["simulations"] = \
            self.counters["segment_simulations"]
        results = []
        max_relative = 0.0
        covered = total_insns = 0
        for index, point in enumerate(self.points):
            pair = (point.workload, point.scale)
            plan = self.plans[pair]
            detailed = self.detailed[pair]
            samples = self.partials[index]
            if not self.policy.sampled:
                ordered = [samples[seg]
                           for seg in range(plan.num_segments)]
                stats = (PipelineStats.merge_all(ordered) if ordered
                         else PipelineStats())
                results.append(PointResult(
                    point=point, stats=stats,
                    emulated=False,  # emulation is per workload
                    simulated=self.hits[index] < plan.num_segments,
                    segments=plan.num_segments,
                    segments_from_cache=self.hits[index]))
                continue
            if detailed:
                stats, bounds = _extrapolate(
                    plan, detailed, samples,
                    self.policy.effective_warmup(plan.segment_insns))
            else:
                stats, bounds = PipelineStats(), {"relative_error": 0.0,
                                                  "half_width": {}}
            max_relative = max(max_relative, bounds["relative_error"])
            covered += sum(plan.lengths[i] for i in detailed)
            total_insns += plan.total_instructions
            results.append(PointResult(
                point=point, stats=stats, emulated=False,
                simulated=self.hits[index] < len(detailed),
                segments=plan.num_segments,
                segments_from_cache=self.hits[index],
                estimated=True, error_bounds=bounds))
        if self.policy.sampled:
            TELEMETRY.gauge("repro_sampling_coverage").set(
                round(covered / total_insns, 6) if total_insns else 0.0)
            TELEMETRY.gauge("repro_sampling_relative_error").set(
                round(max_relative, 6))
        return results


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def simulate_workload_segmented(workload: str, config: MachineConfig,
                                scale: int, policy: SegmentPolicy,
                                store: ArtifactStore,
                                max_instructions: int =
                                DEFAULT_MAX_INSTRUCTIONS) -> PipelineStats:
    """Simulate one workload/config pair under a segment policy.

    The experiment runner's segmented path: a one-point run on the
    inline backend against *store*, so per-segment stats and the plan
    manifest persist for later sweeps (or re-runs).  Sampled policies
    return the extrapolated estimate (bounds travel on sweep results,
    not bare stats).
    """
    point = SweepPoint(workload=workload, scale=scale, variant="policy",
                       config=config)
    run = _SegmentedRun([point], policy, jobs=1,
                        store_dir=str(store.root), progress=None,
                        max_instructions=max_instructions)
    run.run_units(InlineBackend(store.root))
    return run.reduce()[0].stats


def run_segmented_sweep(points: list[SweepPoint], policy: SegmentPolicy,
                        jobs: int | None = 1,
                        store_dir: str | os.PathLike | None = None,
                        progress=None,
                        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                        *, backend=None) -> SweepResult:
    """Execute a sweep grid with intra-workload segment parallelism.

    Drop-in alternative to :func:`repro.engine.pool.run_sweep` (same
    ``SweepResult`` shape): a single long workload fans out across all
    ``jobs`` workers instead of serializing on one, and the emulate /
    simulate stages overlap (see the module docstring).

    Artifacts live in the store at *store_dir* — or a run-scoped
    temporary store when omitted — so a re-run against the same store
    performs zero emulation and (exact modes) zero segment
    simulations.  ``progress`` receives
    :class:`~repro.engine.events.SegmentEvent`\\ s per finalized plan
    (``phase="plan"``) and per simulated segment shard
    (``phase="simulate"``); sampled-mode events are flagged
    ``estimated``.
    """
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    scratch_dir = None
    if store_dir is None:
        if (isinstance(backend, ExecutionBackend)
                and backend.store_dir is not None):
            # share the live backend's store so its workers' blob
            # replication lands where the planner looks for artifacts
            store_dir = backend.store_dir
        else:
            scratch_dir = tempfile.mkdtemp(prefix="repro-segments-")
            store_dir = scratch_dir
    store_dir = os.fspath(store_dir)
    backend, owned = resolve_backend(backend, jobs=jobs,
                                     store_dir=store_dir)
    try:
        run = _SegmentedRun(points, policy, jobs, store_dir, progress,
                            max_instructions)
        run.run_units(backend)
        return SweepResult(results=run.reduce(), counters=run.counters,
                           elapsed=time.perf_counter() - started,
                           jobs=jobs)
    finally:
        if owned:
            backend.close()
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)

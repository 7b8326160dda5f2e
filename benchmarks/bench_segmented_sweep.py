"""Segmented-sweep scaling: cold, adaptive, sampled, and warm rows.

The flat sweep engine shards by workload, so a grid dominated by a
single long kernel is bound by one worker no matter how many cores
exist.  This benchmark runs exactly that worst case — one scaled-up
mcf kernel, three machine variants — under each :class:`SegmentPolicy`
mode and publishes one row per regime:

* **flat serial** — the monolithic baseline everything is measured
  against;
* **adaptive, jobs=1 cold** — the policy collapses to one whole-trace
  segment streamed in one ``seg-stream`` unit, so segmentation must
  not lose to the flat engine when there is nothing to parallelize;
* **fixed pool, cold** — (config x segment) units spread across the
  worker pool;
* **sampled, jobs=1 cold** — simulate every Nth segment and
  extrapolate; the win is bounded below and the reported confidence
  interval bounded above, so the speed/accuracy trade is pinned, not
  just demonstrated;
* **warm** — a re-run against the same store must perform zero
  emulation and zero segment simulations.
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import publish

from repro.engine.campaign import Campaign, parse_axis
from repro.engine.pool import run_sweep
from repro.engine.segments import SegmentPolicy, run_segmented_sweep
from repro.uarch.config import default_config

WORKLOAD = "mcf"
SCALE = 8
SEGMENT_INSNS = 20_000
#: Sampled-mode grain/period: fine segments give the estimator enough
#: strata for a tight interval while period 4 skips 3/4 of the
#: simulation work.
SAMPLE_SEGMENT_INSNS = 1_000
SAMPLE_PERIOD = 4
#: Reported 95% CI the sampled row must stay within.
MAX_SAMPLED_ERROR = 0.05
#: --smoke budget: a short trace split into a handful of segments.
SMOKE_SCALE = 2
SMOKE_SEGMENT_INSNS = 5_000

EXACT_FIELDS = ("retired", "fetched", "loads", "mem_ops",
                "cond_branches", "indirect_jumps")


def _campaign(scale) -> Campaign:
    return Campaign.from_axes(
        name="bench-segmented", workloads=[WORKLOAD], scales=[scale],
        base=default_config().with_optimizer(),
        axes=[parse_axis("optimizer.vf_delay=0,1")],
        include_baseline=True)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_segmented_sweep_speedup(benchmark, smoke):
    scale = SMOKE_SCALE if smoke else SCALE
    segment_insns = SMOKE_SEGMENT_INSNS if smoke else SEGMENT_INSNS
    points = _campaign(scale).points()
    ncpu = os.cpu_count() or 1
    fixed_policy = SegmentPolicy(segment_insns=segment_insns)
    adaptive_policy = SegmentPolicy(mode="adaptive")
    sampled_policy = SegmentPolicy(mode="sampled",
                                   segment_insns=SAMPLE_SEGMENT_INSNS,
                                   sample_period=SAMPLE_PERIOD)
    with tempfile.TemporaryDirectory() as flat_store, \
            tempfile.TemporaryDirectory() as adaptive_store, \
            tempfile.TemporaryDirectory() as sampled_store, \
            tempfile.TemporaryDirectory() as parallel_store:
        # flat serial engine: the monolithic baseline
        flat, flat_s = _timed(
            lambda: run_sweep(points, jobs=1, store_dir=flat_store))
        # adaptive jobs=1: one whole-trace segment, one streamed unit
        adaptive, adaptive_s = _timed(
            lambda: run_segmented_sweep(points, adaptive_policy, jobs=1,
                                        store_dir=adaptive_store))
        # sampled jobs=1: simulate 1/period of the segments, extrapolate
        sampled, sampled_s = _timed(
            lambda: run_segmented_sweep(points, sampled_policy, jobs=1,
                                        store_dir=sampled_store))
        # fixed-grain pool: (config x segment) units across workers
        parallel, parallel_s = benchmark.pedantic(
            lambda: _timed(
                lambda: run_segmented_sweep(points, fixed_policy,
                                            jobs=ncpu,
                                            store_dir=parallel_store)),
            rounds=1, iterations=1)
        warm, warm_s = _timed(
            lambda: run_segmented_sweep(points, fixed_policy, jobs=ncpu,
                                        store_dir=parallel_store))

    # segmented exact results are deterministic across reruns
    assert [r.stats.to_json() for r in parallel.results] == \
        [r.stats.to_json() for r in warm.results]
    # adaptive jobs=1 degrades to one whole-trace segment and merges
    # to exactly the flat run's stats
    assert adaptive.counters["segments"] == \
        len({(p.workload, p.scale) for p in points})
    assert [r.stats.to_json() for r in adaptive.results] == \
        [r.stats.to_json() for r in flat.results]
    # the warm run served everything from the store
    assert warm.counters["emulations"] == 0
    assert warm.counters["segment_simulations"] == 0
    # instruction/event counters match the monolithic run exactly
    for seg_result, flat_result in zip(parallel.results, flat.results):
        for name in EXACT_FIELDS:
            assert getattr(seg_result.stats, name) == \
                getattr(flat_result.stats, name), name
    # emulation is never sampled, so even extrapolated results retire
    # exactly the program's instructions
    for seg_result, flat_result in zip(sampled.results, flat.results):
        assert seg_result.stats.retired == flat_result.stats.retired
    # sampled rows are estimates and must say so, with a bounded CI
    skipped = sampled.counters["segments_skipped"]
    assert skipped > 0
    max_error = 0.0
    for result in sampled.results:
        assert result.estimated
        max_error = max(max_error,
                        result.error_bounds["relative_error"])

    adaptive_speedup = flat_s / adaptive_s
    sampled_speedup = flat_s / sampled_s
    if not smoke:
        # the gates (the smoke trace is too short for them: its CI is
        # wide by construction and its timings are dominated by fixed
        # startup costs, so these claims are full-budget-only):
        # cold segmented jobs=1 must not lose to the flat serial engine
        assert adaptive_s <= flat_s * 1.05, (adaptive_s, flat_s)
        # sampling must buy a real win with a tight reported interval,
        # not just skip work
        assert sampled_speedup >= 3.0, sampled_speedup
        assert max_error <= MAX_SAMPLED_ERROR, max_error
        if ncpu >= 2:
            # segments beat the one-worker-per-workload bound on a
            # long single-workload grid
            assert parallel_s < adaptive_s

    segments = parallel.counters["segments"]
    lines = [
        f"single-workload grid: {len(points)} points "
        f"({WORKLOAD}@{scale}, "
        f"{parallel.results[0].stats.retired} instructions, "
        f"{segments} segments of {segment_insns})",
        f"flat serial, cold           : {flat_s:8.2f} s  (jobs=1, "
        f"monolithic baseline)",
        f"adaptive jobs=1, cold       : {adaptive_s:8.2f} s   "
        f"{adaptive_speedup:.2f}x vs flat serial "
        f"({adaptive.counters['segments']} whole-trace segments)",
        f"sampled jobs=1, cold        : {sampled_s:8.2f} s   "
        f"{sampled_speedup:.2f}x vs flat serial "
        f"(1/{SAMPLE_PERIOD} of {sampled.counters['segments']} x "
        f"{SAMPLE_SEGMENT_INSNS}-insn segments simulated, "
        f"reported error ±{max_error * 100:.2f}%)",
        f"fixed pool jobs={ncpu:<2d}, cold    : {parallel_s:8.2f} s   "
        f"{adaptive_s / parallel_s:.2f}x over segmented serial",
        f"segmented steady-state, warm store: {warm_s:8.2f} s   "
        f"({warm.counters['segment_stats_hits']} segment-stats hits, "
        f"0 emulations, 0 simulations)",
    ]
    publish("segmented_sweep", "\n".join(lines), smoke, data={
        "points": len(points), "workload": WORKLOAD, "scale": scale,
        "instructions": parallel.results[0].stats.retired,
        "segments": segments, "segment_insns": segment_insns,
        "jobs": ncpu,
        "flat_serial_cold_seconds": round(flat_s, 4),
        "adaptive_cold_seconds": round(adaptive_s, 4),
        "adaptive_speedup_vs_flat": round(adaptive_speedup, 4),
        "sampled_cold_seconds": round(sampled_s, 4),
        "sampled_speedup_vs_flat": round(sampled_speedup, 4),
        "sampled_segment_insns": SAMPLE_SEGMENT_INSNS,
        "sampled_period": SAMPLE_PERIOD,
        "sampled_segments_skipped": skipped,
        "sampled_max_relative_error": round(max_error, 6),
        "pool_cold_seconds": round(parallel_s, 4),
        "warm_steady_state_seconds": round(warm_s, 4),
        "speedup_over_serial": round(adaptive_s / parallel_s, 4),
        "warm_counters": dict(warm.counters),
    })

"""Regenerates Figure 10: intra-bundle dependence-depth sweep.

Paper reference: SPECint/SPECfp barely move with depth; mediabench
climbs markedly (1.11 -> 1.25 at depth 3); chained memory operations
add nothing further.

Beside the bars the bench publishes the grid's ``points`` (baseline
and four depth settings per kernel) and the ``simulations`` it took,
read from ``repro_sim_runs_total`` and ``repro_sim_reused_total``: a
finished optimizer run answers every depth setting it provably repeats
(:func:`repro.uarch.pipeline.simulate_trace`), so the grid simulates
fewer pipelines than it has points.
"""

import time

from conftest import publish, rows_data

from repro.engine.telemetry import TELEMETRY
from repro.experiments import depth, runner

#: The full grid (bzip2, crafty, ammp, applu, g721_decode and
#: g721_encode: 30 points) before depth-range reuse, when every point
#: was a simulation.  Same script and grid, 2-CPU shared container,
#: CPython 3.11.7; the wall time includes emulating the six traces.
BEFORE = {"points": 30, "simulations": 30, "wall_seconds": 13.74}


def _counts() -> tuple[int, int]:
    return (TELEMETRY.counter("repro_sim_runs_total").value,
            TELEMETRY.counter("repro_sim_reused_total").value)


def test_fig10_dependence_depth(benchmark, smoke):
    assert TELEMETRY.enabled, "the point counts need telemetry"
    per_suite = 1 if smoke else 2
    # benches run before this one may have warmed the runner: start
    # cold so every point of this grid is counted here
    runner.clear_caches()
    runs, reused = _counts()
    started = time.perf_counter()
    rows = benchmark.pedantic(depth.run, rounds=1, iterations=1,
                              kwargs={"workloads_per_suite": per_suite})
    wall = time.perf_counter() - started
    simulations = _counts()[0] - runs
    points = simulations + _counts()[1] - reused
    if not smoke:
        media = next(r for r in rows if r.suite == "mediabench")
        # Mediabench must benefit from deeper chaining (the paper's
        # headline Figure 10 result).
        assert media.bars["depth 3"] >= media.bars["depth 0 (default)"]
        for row in rows:
            # Chained memory queries add essentially nothing.
            assert abs(row.bars["depth 3 & 1 mem"]
                       - row.bars["depth 3"]) < 0.05
    text = (depth.format(rows)
            + f"\n\n{points} points, {simulations} simulations, "
              f"{wall:.2f} s")
    if not smoke:
        text += (f" (before reuse: {BEFORE['simulations']} "
                 f"simulations, {BEFORE['wall_seconds']:.2f} s)")
    publish("fig10_depth", text, smoke,
            data={"rows": rows_data(rows), "points": points,
                  "simulations": simulations,
                  "wall_seconds": round(wall, 3), "before": BEFORE})
    # a grid of several depth settings repeats some of its runs
    assert simulations < points

"""Layer ledger, simulate rows: the baseline vs the optimizing renamer.

Measures the timing model's throughput (retired instructions per
second) on mcf, gcc and synth:branchy at scale 1, once with the
baseline renamer and once with the optimizing renamer (the default
optimizer), plus each workload's optimizer/baseline time ratio.  The
traces are emulated before timing starts, so the rows cover
simulation only; each is the best of ``ROUNDS`` passes.

``BEFORE`` keeps the same rows as measured before the optimizer's
table-driven fast path (same script, same 2-CPU container), so the
published ``BENCH_layers.json`` carries the before/after pair.  There
is deliberately no timing gate: on a shared 2-CPU container the
optimizer/baseline ratio moves by more between runs than a regression
gate could tolerate.
"""

from __future__ import annotations

import time

from conftest import publish

from repro.uarch.config import default_config, optimized_config
from repro.uarch.pipeline import simulate_trace
from repro.workloads import build_trace

WORKLOADS = ("mcf", "gcc", "synth:branchy")
SMOKE_WORKLOADS = ("mcf",)
ROUNDS = 3
SMOKE_ROUNDS = 1

#: The rows before the optimizer's table-driven fast path: per-source
#: ``_expr_of`` resolution, enum-and-namedtuple CP/RA outcomes and
#: per-call config reads (same script, best of 3, 2-CPU container; the
#: median of three runs, whose optimizer/baseline totals were 1.89x,
#: 1.80x and 1.78x).
BEFORE = {
    "renamer": "per-source _expr_of + cpra.transform Outcome",
    "rounds": 3,
    "rows": {
        "mcf": {"insns": 24215, "baseline_seconds": 0.4008,
                "optimized_seconds": 0.7189},
        "gcc": {"insns": 24462, "baseline_seconds": 0.368,
                "optimized_seconds": 0.7588},
        "synth:branchy": {"insns": 22658, "baseline_seconds": 0.4034,
                          "optimized_seconds": 0.6121},
    },
}


def _best_seconds(trace, config, rounds: int) -> tuple[float, int]:
    """Fastest of *rounds* simulations, and the retired count."""
    best = float("inf")
    retired = 0
    for _ in range(rounds):
        started = time.perf_counter()
        retired = simulate_trace(trace, config).retired
        best = min(best, time.perf_counter() - started)
    return best, retired


def _row(insns: int, base_s: float, opt_s: float) -> dict:
    return {"insns": insns,
            "baseline_seconds": round(base_s, 4),
            "optimized_seconds": round(opt_s, 4),
            "baseline_insns_per_s": round(insns / base_s, 1),
            "optimized_insns_per_s": round(insns / opt_s, 1),
            "time_ratio": round(opt_s / base_s, 4)}


def _total(rows: dict) -> dict:
    return _row(*(sum(row[key] for row in rows.values())
                  for key in ("insns", "baseline_seconds",
                              "optimized_seconds")))


def test_simulate_layers(benchmark, smoke):
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    traces = {name: build_trace(name).trace for name in workloads}
    baseline, optimized = default_config(), optimized_config()

    def run():
        rows = {}
        for name, trace in traces.items():
            base_s, insns = _best_seconds(trace, baseline, rounds)
            opt_s, _ = _best_seconds(trace, optimized, rounds)
            rows[name] = _row(insns, base_s, opt_s)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(row["insns"] > 0 for row in rows.values())
    total = _total(rows)
    before = _total({name: BEFORE["rows"][name] for name in workloads})
    speedup = (total["optimized_insns_per_s"]
               / before["optimized_insns_per_s"])

    def line(label, row):
        return (f"{label:14s} {row['baseline_insns_per_s']:>10,.0f} "
                f"{row['optimized_insns_per_s']:>10,.0f} "
                f"{row['time_ratio']:>7.2f}x")

    lines = [f"simulate throughput, best of {rounds} (insns/s)",
             f"{'':14s} {'baseline':>10s} {'optimizer':>10s} "
             f"{'opt/base':>8s}"]
    lines += [line(name, row) for name, row in rows.items()]
    lines += [line("total", total), line("total before", before),
              f"optimizing renamer: {speedup:.2f}x the before row"]
    publish("layers", "\n".join(lines), smoke, data={
        "workloads": list(workloads),
        "rounds": rounds,
        "rows": rows,
        "total": total,
        "before": dict(BEFORE, total=before),
        "optimized_speedup_over_before": round(speedup, 4),
    })

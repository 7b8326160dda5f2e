"""Layer ledger, simulate rows: the baseline vs the optimizing renamer.

Measures the timing model's throughput (retired instructions per
second) on mcf, gcc and synth:branchy at scale 1, once with the
baseline renamer and once with the optimizing renamer (the default
optimizer), plus each workload's optimizer/baseline time ratio.  The
traces are emulated before timing starts, so the rows cover
simulation only; each is the best of ``ROUNDS`` passes.

The work rows count what ``Pipeline.run`` executes per retired
instruction over the first ``WORK_ROWS`` rows of the same traces:
``bytecodes_per_insn`` (bytecode instructions, from ``sys.settrace``
opcode events, or ``sys.monitoring`` INSTRUCTION events on CPython
3.12+) and ``calls_per_insn`` (Python-level function calls).  The
counts are exact and repeat run to run, but differ between CPython
versions, so they are keyed by ``major.minor``.

``BEFORE`` keeps the throughput rows as measured before the
optimizer's table-driven fast path and ``WORK_BEFORE`` the work rows
before the fused cycle loop (same script, same 2-CPU container), so
the published ``BENCH_layers.json`` carries the before/after pairs.
There is deliberately no gate: on a shared 2-CPU container the
optimizer/baseline ratio moves by more between runs than a regression
gate could tolerate, and the work counts are a ledger, not a check.
"""

from __future__ import annotations

import sys
import time

from conftest import publish

from repro.uarch.config import default_config, optimized_config
from repro.uarch.pipeline import make_pipeline, simulate_trace
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


#: Rows of each trace the work rows simulate.
WORK_ROWS = 5000
SMOKE_WORK_ROWS = 500

#: The work rows before the fused cycle loop (per-stage methods, an
#: event heap, per-instruction record construction), CPython 3.11.
WORK_BEFORE = {
    "3.11": {
        "mcf": {"baseline": {"bytecodes_per_insn": 1553.0,
                             "calls_per_insn": 31.5},
                "optimized": {"bytecodes_per_insn": 1692.6,
                              "calls_per_insn": 32.1}},
        "gcc": {"baseline": {"bytecodes_per_insn": 1445.6,
                             "calls_per_insn": 30.4},
                "optimized": {"bytecodes_per_insn": 1775.0,
                              "calls_per_insn": 34.6}},
        "synth:branchy": {"baseline": {"bytecodes_per_insn": 1448.4,
                                       "calls_per_insn": 30.1},
                          "optimized": {"bytecodes_per_insn": 1659.9,
                                        "calls_per_insn": 32.4}},
    },
}


def _run_counting_settrace(pipeline) -> tuple[int, int, int]:
    counts = [0, 0]  # bytecodes, calls

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return on_opcode

    def on_call(frame, event, arg):
        counts[1] += 1
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        retired = pipeline.run().retired
    finally:
        sys.settrace(previous)
    return counts[0], counts[1], retired


def _run_counting_monitoring(pipeline) -> tuple[int, int, int]:
    monitoring = sys.monitoring
    events = monitoring.events
    tool = monitoring.PROFILER_ID
    counts = [0, 0]  # bytecodes, calls

    def on_instruction(code, offset):
        counts[0] += 1

    def on_start(code, offset):
        counts[1] += 1

    monitoring.use_tool_id(tool, "bench_layers")
    try:
        monitoring.register_callback(tool, events.INSTRUCTION,
                                     on_instruction)
        monitoring.register_callback(tool, events.PY_START, on_start)
        monitoring.set_events(tool, events.INSTRUCTION | events.PY_START)
        try:
            retired = pipeline.run().retired
        finally:
            monitoring.set_events(tool, events.NO_EVENTS)
    finally:
        monitoring.register_callback(tool, events.INSTRUCTION, None)
        monitoring.register_callback(tool, events.PY_START, None)
        monitoring.free_tool_id(tool)
    return counts[0], counts[1], retired


def _work_row(trace, config) -> dict:
    """Bytecodes and Python calls per retired instruction in ``run``."""
    pipeline = make_pipeline(trace, config)
    trace.statics()  # built once per trace, not per instruction
    count = (_run_counting_monitoring if sys.version_info >= (3, 12)
             else _run_counting_settrace)
    bytecodes, calls, retired = count(pipeline)
    # the call into run itself is not work done inside it
    return {"bytecodes_per_insn": round(bytecodes / retired, 1),
            "calls_per_insn": round((calls - 1) / retired, 1)}


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
    work_rows = SMOKE_WORK_ROWS if smoke else WORK_ROWS
    work = {name: {"baseline": _work_row(trace[:work_rows], baseline),
                   "optimized": _work_row(trace[:work_rows], optimized)}
            for name, trace in traces.items()}
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    # the before counts cover WORK_ROWS rows, not the smoke slice
    work_before = {} if smoke else WORK_BEFORE.get(python, {})
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

    def work_line(name, label):
        now = work[name][label]
        then = work_before.get(name, {}).get(label)
        text = (f"{name:14s} {label:10s} {now['bytecodes_per_insn']:>9,.1f}"
                f" {now['calls_per_insn']:>6.1f}")
        if then is not None:
            text += (f"   (before {then['bytecodes_per_insn']:,.1f},"
                     f" {then['calls_per_insn']:.1f})")
        return text

    lines += ["", f"work per instruction in Pipeline.run, rows 0-"
                  f"{work_rows - 1:,}, CPython {python}",
              f"{'':14s} {'renamer':10s} {'bytecodes':>9s} {'calls':>6s}"]
    lines += [work_line(name, label) for name in work
              for label in ("baseline", "optimized")]
    publish("layers", "\n".join(lines), smoke, data={
        "workloads": list(workloads),
        "rounds": rounds,
        "rows": rows,
        "total": total,
        "before": dict(BEFORE, total=before),
        "optimized_speedup_over_before": round(speedup, 4),
        "work_rows": work_rows,
        "work_per_insn": {python: work},
        "work_before": WORK_BEFORE,
    })

"""Metric names, units, and the per-layer numbers derived from a trace.

``BENCHMARK.json`` lists the same names and units; ``selftest.py``
checks that the two agree.
"""

from __future__ import annotations

import math
import resource

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "sim_insns_per_s": "insns/s",
    "checked_insns_per_s": "insns/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "max_rss_mb": "MB",
}

#: Per-layer metrics, reported by every workload's traced run (zero
#: where the workload does not reach the layer).
PER_LAYER = {
    "experiments.runner.self_s": "s",
    "experiments.runner.cache_hit_ratio": "ratio",
    "functional.emulate_s": "s",
    "functional.emulated_insns": "count",
    "functional.emulate_insns_per_s": "insns/s",
    "functional.arch_replay_s": "s",
    "uarch.pipelines": "count",
    "uarch.pipeline_init_s": "s",
    "uarch.sim_base_s": "s",
    "uarch.sim_base_insns_per_s": "insns/s",
    "uarch.pipeline_self_s": "s",
    "uarch.sim_cycles": "count",
    "core.sim_opt_s": "s",
    "core.sim_opt_insns_per_s": "insns/s",
    "core.renamer_s": "s",
    "core.renamer_calls": "count",
    "core.early_executed": "count",
    "core.loads_removed": "count",
    "engine.store.load_s": "s",
    "engine.store.save_s": "s",
    "engine.store.loads": "count",
    "engine.store.saves": "count",
    "engine.store.bytes_read": "count",
    "engine.store.bytes_written": "count",
    "engine.store.hit_ratio": "ratio",
    "engine.store.trace_load_mb_per_s": "MB/s",
    "engine.segments.self_s": "s",
    "engine.segments.detailed_ratio": "ratio",
    "engine.pool.self_s": "s",
    "engine.backend.units": "count",
    "engine.backend.unit_overhead_s": "s",
    "engine.differential.self_s": "s",
    "engine.service.submit_ms": "ms",
    "engine.service.queue_ms": "ms",
    "engine.service.deliver_ms": "ms",
    "engine.service.requests": "count",
    "engine.service.rejected": "count",
    "trace.unaccounted_s": "s",
    "trace.overhead_pct": "%",
}

#: Which span names make up each layer's self time (the coverage sum).
LAYER_SPANS = {
    "experiments.runner": ("experiments.runner",),
    "functional": ("functional.emulate", "functional.arch_replay"),
    "uarch": ("uarch.pipeline_init", "uarch.pipeline_run"),
    "core": ("core.renamer",),
    "engine.store": ("engine.store.load", "engine.store.save"),
    "engine.segments": ("engine.segments",),
    "engine.pool": ("engine.pool",),
    "engine.backend": ("engine.backend.submit", "engine.backend.execute"),
    "engine.differential": ("engine.differential",),
    # JobManager.submit runs inside each job's submit interval, which
    # the serve workload adds to this layer itself
    "engine.service": ("engine.service.job",),
}


def max_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_self_times(tracer) -> dict[str, float]:
    """Self seconds per layer (see :data:`LAYER_SPANS`)."""
    by_span = tracer.self_times()
    return {layer: sum(by_span.get(name, 0.0) for name in names)
            for layer, names in LAYER_SPANS.items()}


def per_layer(tracer, bytes_read: int, bytes_written: int,
              service: dict, unaccounted_s: float,
              overhead_pct: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from a finished traced run.

    *service* carries the serve workload's per-job medians and request
    counts (zeros elsewhere); the byte counts come from the store's own
    telemetry counters, read before and after the traced run.
    """
    spans = tracer.self_times()
    counts = tracer.counts
    hooks = tracer.hook_totals()
    emulate_s = spans.get("functional.emulate", 0.0)
    sim_base_s = counts["sim_base_s"]
    sim_opt_s = counts["sim_opt_s"]
    store_loads = counts["store.loads"]
    values = {
        "experiments.runner.self_s": spans.get("experiments.runner", 0.0),
        "experiments.runner.cache_hit_ratio":
            ratio(counts["runner.hits"], counts["runner.calls"]),
        "functional.emulate_s": emulate_s,
        "functional.emulated_insns": counts["emulated_insns"],
        "functional.emulate_insns_per_s":
            ratio(counts["emulated_insns"], emulate_s),
        "functional.arch_replay_s":
            hooks.get("functional.arch_replay", (0, 0.0))[1],
        "uarch.pipelines": counts["pipelines"],
        "uarch.pipeline_init_s": spans.get("uarch.pipeline_init", 0.0),
        "uarch.sim_base_s": sim_base_s,
        "uarch.sim_base_insns_per_s":
            ratio(counts["sim_base_insns"], sim_base_s),
        "uarch.pipeline_self_s": spans.get("uarch.pipeline_run", 0.0),
        "uarch.sim_cycles": counts["sim_cycles"],
        "core.sim_opt_s": sim_opt_s,
        "core.sim_opt_insns_per_s":
            ratio(counts["sim_opt_insns"], sim_opt_s),
        "core.renamer_s": hooks.get("core.renamer", (0, 0.0))[1],
        "core.renamer_calls": hooks.get("core.renamer", (0, 0.0))[0],
        "core.early_executed": counts["early_executed"],
        "core.loads_removed": counts["loads_removed"],
        "engine.store.load_s": spans.get("engine.store.load", 0.0),
        "engine.store.save_s": spans.get("engine.store.save", 0.0),
        "engine.store.loads": store_loads,
        "engine.store.saves": counts["store.saves"],
        "engine.store.bytes_read": bytes_read,
        "engine.store.bytes_written": bytes_written,
        "engine.store.hit_ratio": ratio(counts["store.hits"], store_loads),
        "engine.store.trace_load_mb_per_s":
            ratio(counts["store.trace_bytes"] / 1e6,
                  counts["store.trace_load_s"]),
        "engine.segments.self_s": spans.get("engine.segments", 0.0),
        "engine.segments.detailed_ratio":
            ratio(counts["segments_detailed"], counts["segments"]),
        "engine.pool.self_s": spans.get("engine.pool", 0.0),
        "engine.backend.units": counts["units"],
        "engine.backend.unit_overhead_s":
            spans.get("engine.backend.submit", 0.0),
        "engine.differential.self_s": spans.get("engine.differential", 0.0),
        "engine.service.submit_ms": service.get("submit_ms", 0.0),
        "engine.service.queue_ms": service.get("queue_ms", 0.0),
        "engine.service.deliver_ms": service.get("deliver_ms", 0.0),
        "engine.service.requests": service.get("requests", 0),
        "engine.service.rejected": service.get("rejected", 0),
        "trace.unaccounted_s": unaccounted_s,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: int(value) if PER_LAYER[name] == "count" else value
            for name, value in values.items()}


def store_bytes() -> tuple[int, int]:
    """The store's cumulative (read, written) byte counters."""
    from repro.engine.telemetry import TELEMETRY
    return (getattr(TELEMETRY.counter("repro_store_get_bytes_total"),
                    "value", 0),
            getattr(TELEMETRY.counter("repro_store_put_bytes_total"),
                    "value", 0))

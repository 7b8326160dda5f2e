"""repro.engine: parallel sweep engine with a persistent artifact store.

The engine turns the repo's one-figure-at-a-time experiment harness
into a design-space-exploration tool:

* :mod:`repro.engine.campaign` — declarative sweep specs: a grid of
  ``(workload x scale x MachineConfig variant)`` points built from
  named parameter axes (dotted config paths such as
  ``optimizer.vf_delay``).
* :mod:`repro.engine.store` — a content-addressed on-disk artifact
  store keyed by stable hashes of ``(workload, scale)`` for oracle
  traces and ``(workload, scale, config)`` for pipeline stats, so
  repeated figures and resumed sweeps are near-free.
* :mod:`repro.engine.pool` — a :class:`~concurrent.futures.\
ProcessPoolExecutor` sharding layer that groups sweep points by
  workload (one emulation per worker per workload), streams completed
  results back with progress reporting, and counts cache hits.
* :mod:`repro.engine.segments` — intra-workload sharding: traces are
  split into fixed-instruction-count segments (checkpointed streaming
  emulation, per-segment partial stats, associative merge) so a single
  long workload fans out across every worker.
* :mod:`repro.engine.search` — design-space search over the axes a
  ``Campaign`` sweeps: int-range/categorical dimensions, grid /
  seeded-random / successive-halving strategies, pluggable objectives,
  streaming per-evaluation progress, and store-ledgered resume.
* :mod:`repro.engine.events` — the unified typed event vocabulary
  every engine producer streams through its ``progress=`` callback
  (``point`` / ``evaluation`` / ``segment`` / ``finding`` / job
  lifecycle), with a stable JSON-lines wire form.
* :mod:`repro.engine.telemetry` — the dependency-free process
  metrics registry (counters / gauges / log-bucketed histograms /
  timer spans) every layer above records into; snapshots merge
  associatively so worker processes ship theirs back through the
  same result path as :class:`~repro.uarch.pipeline.PipelineStats`.
* :mod:`repro.engine.jobs` — the job layer: each job kind's spec
  keys, the one validator and the one run path that both ``repro
  sweep/search/fuzz`` and the service use.
* :mod:`repro.engine.service` — the async streaming results service:
  a :class:`~repro.engine.service.JobManager` running sweeps,
  searches, segmented sweeps, and fuzz campaigns as named concurrent
  jobs over one shared store, plus the stdlib HTTP front end behind
  ``repro serve`` / ``repro watch``.

``experiments/runner.py`` is a thin in-memory cache over this engine,
and ``repro sweep`` / ``repro search`` / ``repro serve`` on the
command line drive it directly.
"""

from .campaign import (Campaign, SweepPoint, apply_override, expand_axes,
                       parse_axis)
from .events import (EvaluationEvent, Event, FindingEvent,
                     JobFailedEvent, JobFinishedEvent, JobStartedEvent,
                     MetricEvent, PointEvent, SegmentEvent,
                     event_from_dict, event_from_json_line,
                     format_event)
from .pool import (ExecutionContext, PointResult, SweepResult, run_sweep,
                   run_sweep_iter)
from .search import (Candidate, Categorical, Evaluation, IntRange,
                     SearchResult, SearchSpace, make_objective, parse_dim,
                     run_search)
from .segments import (SegmentPlan, run_segmented_sweep,
                       simulate_workload_segmented)
from .store import ArtifactStore
from .telemetry import TELEMETRY, MetricsRegistry

#: Service symbols resolve lazily (PEP 562): importing the engine for
#: a plain sweep must not pay for asyncio + the HTTP server machinery.
_SERVICE_EXPORTS = ("JobManager", "ServiceError", "ServiceServer",
                    "TenantLimits", "parse_auth_tokens",
                    "run_service", "watch_job")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from . import service
        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute "
                         f"{name!r}")

__all__ = [
    "ArtifactStore",
    "Campaign", "SweepPoint", "apply_override", "expand_axes",
    "parse_axis",
    "Event", "PointEvent", "EvaluationEvent", "SegmentEvent",
    "FindingEvent", "JobStartedEvent", "JobFinishedEvent",
    "JobFailedEvent", "MetricEvent", "event_from_dict",
    "event_from_json_line", "format_event",
    "MetricsRegistry", "TELEMETRY",
    "ExecutionContext", "PointResult", "SweepResult", "run_sweep",
    "run_sweep_iter",
    "Candidate", "Categorical", "Evaluation", "IntRange",
    "SearchResult", "SearchSpace", "make_objective", "parse_dim",
    "run_search",
    "SegmentPlan", "run_segmented_sweep",
    "simulate_workload_segmented",
    # service symbols are deliberately NOT in __all__: a star-import
    # would resolve each name through __getattr__ and eagerly load
    # asyncio + the HTTP machinery — exactly what the lazy export
    # below avoids.  Import them explicitly (or from .service).
]

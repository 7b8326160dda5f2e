"""Async streaming results service: named concurrent engine jobs.

The :class:`JobManager` runs sweeps, design-space searches, segmented
sweeps, and fuzz campaigns as **named concurrent jobs** sharing one
artifact store.  Each job emits the engine's unified typed event
stream (:mod:`repro.engine.events`) — buffered per job, so a client
that attaches late replays history before tailing live events.  This
is only sound because sweep execution state lives in per-sweep
:class:`~repro.engine.pool.ExecutionContext` objects: two jobs
interleaving in one process can no longer clobber each other's store
binding or hit/miss accounting.

Two front ends expose the manager:

* ``repro serve`` — :class:`ServiceServer`, a small stdlib-only HTTP
  server (hand-rolled on :func:`asyncio.start_server`) speaking
  JSON over four endpoints::

      POST   /jobs             submit {"kind": ..., ...spec} -> 201
      GET    /jobs             job summaries
      GET    /jobs/<id>/events JSON-lines event stream (replays
                               history, then tails until the job ends)
      DELETE /jobs/<id>        request cancellation
      GET    /metrics          Prometheus text exposition of the
                               process telemetry registry
                               (``?format=json`` for the raw snapshot)

* ``repro watch`` — :func:`watch_job`, a blocking client that tails
  one job's event stream and pretty-prints it.

Execution model: job bodies are the engine's synchronous,
process-pool-driven entry points, so the manager runs each in a
thread (``run_in_executor``) and marshals its events back onto the
event loop with ``call_soon_threadsafe``.  Cancellation is
cooperative — a ``DELETE`` sets the job's cancel flag, which the job
body observes at its next event emission or completed point.  A
client disconnecting mid-stream detaches only that stream; the job —
and everything else already submitted — keeps running.

Multi-tenancy: with bearer tokens configured (``repro serve
--auth-token tenant:token`` / ``REPRO_AUTH_TOKENS``), every ``/jobs``
request must carry ``Authorization: Bearer <token>`` (missing or bad
tokens get a 401 with ``WWW-Authenticate``; ``GET /metrics`` stays
open for scrapers).  The resolved tenant is threaded through each
:class:`Job`: tenants list, stream, and cancel only their own jobs
(cross-tenant access is a 403), each tenant's artifacts live in an
isolated store namespace (``<store>/tenants/<name>``) with an
optional byte budget enforced by that namespace's own LRU gc, and
``POST /jobs`` is bounded per tenant by an active-job quota and a
token-bucket rate limit — both reject with a 429 carrying
``Retry-After``, distinct from the global ``max_active_jobs`` 429.
With no tokens configured nothing changes: requests are anonymous,
jobs share the root store, and no per-tenant limit applies.

Execution backends: the manager can hold a live
:class:`~repro.engine.backend.ExecutionBackend` (``repro serve
--workers-port`` attaches a :class:`~repro.engine.backend
.SocketWorkerBackend` whose ``repro worker`` fleet executes every
job's work units) — job bodies thread it into the engine entry
points, so one worker fleet serves every concurrent job.  With a
persistent store the manager also journals each submitted job spec
under ``<store>/jobs/``; ``repro serve --resume`` re-queues the
journal's unfinished jobs on restart, and the engine's store
manifests make the re-run skip everything already computed.
"""

from __future__ import annotations

import asyncio
import atexit
import hashlib
import json
import math
import shutil
import sys
import tempfile
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import AsyncIterator, Callable

from ..uarch.config import default_config
from ..workloads.synth import FAMILIES
from .backend import BACKEND_NAMES, ExecutionBackend
from .campaign import Campaign, parse_axis, split_workloads
from .differential import DEFAULT_SEGMENT_INSNS, run_fuzz
from .events import (Event, JobFailedEvent, JobFinishedEvent,
                     JobStartedEvent, MetricEvent, format_event)
from .pool import resolve_jobs, run_sweep
from .search import (DEFAULT_RUNG_INSNS, SearchSpace, check_search_options,
                     make_objective, resolve_search_workloads, run_search)
from .segments import SegmentPolicy, run_segmented_sweep
from .store import (ArtifactStore, tenant_store_root, tenant_usage,
                    validate_tenant_name)
from .telemetry import TELEMETRY
from .workers import set_worker_start_method

JOB_KINDS = ("sweep", "search", "segments", "fuzz")

#: Recognized spec keys per job kind.  Submissions naming anything
#: else are rejected with a 400: a typo (``"workload"``) would
#: otherwise be dropped on the floor and — for sweeps — silently
#: expand the grid to all 22 kernels.
_COMMON_KEYS = frozenset({"kind", "name"})
_SPEC_KEYS = {
    "sweep": _COMMON_KEYS | {"workloads", "suite", "scales", "axes",
                             "optimized", "baseline"},
    "segments": _COMMON_KEYS | {"workloads", "suite", "scales", "axes",
                                "optimized", "baseline", "policy"},
    "search": _COMMON_KEYS | {"workloads", "suite", "scales", "dims",
                              "strategy", "budget", "objective",
                              "weights", "seed", "rung_insns",
                              "optimized"},
    "fuzz": _COMMON_KEYS | {"seeds", "families", "scale", "small",
                            "segment_insns"},
}

#: Job states.  ``cancelled`` is terminal; ``pending`` jobs sit in the
#: executor queue waiting for a thread.
TERMINAL_STATES = ("finished", "failed", "cancelled")


class JobCancelled(Exception):
    """Raised inside a job body when its cancel flag is observed."""


class ServiceError(ValueError):
    """A client-facing error (bad spec, unknown job) with an HTTP status.

    ``retry_after`` (seconds) rides along on 429s so the HTTP layer
    can emit a ``Retry-After`` header and clients can honor it.
    """

    def __init__(self, message: str, status: int = 400,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after

    def headers(self) -> dict[str, str]:
        """Extra response headers this error mandates."""
        headers = {}
        if self.status == 401:
            headers["WWW-Authenticate"] = 'Bearer realm="repro"'
        if self.retry_after is not None:
            headers["Retry-After"] = str(max(1,
                                             math.ceil(self.retry_after)))
        return headers


def _reject(reason: str, message: str,
            retry_after: float | None = None,
            status: int = 429) -> ServiceError:
    """Count one rejected request and build its ServiceError.

    ``reason`` is the ``repro_requests_rejected_total`` label:
    ``auth`` (401), ``quota`` / ``rate`` (per-tenant 429s), or
    ``capacity`` (the pre-existing global ``max_active_jobs`` 429).
    """
    TELEMETRY.counter("repro_requests_rejected_total",
                      reason=reason).inc()
    return ServiceError(message, status=status, retry_after=retry_after)


# ----------------------------------------------------------------------
# tenancy: token parsing, per-tenant limits, runtime state
# ----------------------------------------------------------------------


def parse_auth_tokens(specs) -> dict[str, str]:
    """``tenant:token`` pairs as a token -> tenant map.

    Accepts an iterable of pair strings (repeated ``--auth-token``
    flags, or a comma-split ``REPRO_AUTH_TOKENS``).  A bare token with
    no colon belongs to the ``default`` tenant.  Tenant names must be
    safe store-namespace names; one tenant may own several tokens
    (rotation), but one token cannot name two tenants.
    """
    tokens: dict[str, str] = {}
    for spec in specs:
        spec = spec.strip()
        if not spec:
            continue
        tenant, sep, token = spec.partition(":")
        if not sep:
            tenant, token = "default", spec
        tenant, token = tenant.strip(), token.strip()
        validate_tenant_name(tenant)
        if not token or any(c.isspace() for c in token):
            raise ValueError(f"bad auth token for tenant {tenant!r}: "
                             f"tokens must be non-empty and contain "
                             f"no whitespace")
        if token in tokens and tokens[token] != tenant:
            raise ValueError(f"auth token of tenant {tenant!r} already "
                             f"belongs to tenant {tokens[token]!r}")
        tokens[token] = tenant
    return tokens


@dataclass(frozen=True)
class TenantLimits:
    """Per-tenant bounds applied to every authenticated tenant.

    * ``max_active_jobs`` — pending + running jobs a tenant may hold
      (its share of the server, independent of the global cap),
    * ``rate_per_second`` / ``burst`` — a token bucket on
      ``POST /jobs``: ``burst`` submissions can land back-to-back,
      refilling at ``rate_per_second`` (<= 0 disables rate limiting),
    * ``max_store_bytes`` — byte budget for the tenant's store
      namespace, enforced by that namespace's own LRU gc after each
      finished job (``None`` = unbounded).
    """

    max_active_jobs: int = 8
    rate_per_second: float = 10.0
    burst: int = 20
    max_store_bytes: int | None = None

    def __post_init__(self):
        if self.max_active_jobs < 1:
            raise ValueError(f"max_active_jobs must be >= 1, "
                             f"got {self.max_active_jobs}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_store_bytes is not None and self.max_store_bytes < 0:
            raise ValueError(f"max_store_bytes must be >= 0, "
                             f"got {self.max_store_bytes}")


class TenantState:
    """One tenant's runtime rate-limit state (token bucket)."""

    __slots__ = ("name", "limits", "tokens", "refilled_at")

    def __init__(self, name: str, limits: TenantLimits):
        self.name = name
        self.limits = limits
        self.tokens = float(limits.burst)
        self.refilled_at = time.monotonic()

    def refill(self, now: float) -> float:
        """Credit elapsed time into the bucket; returns the level."""
        rate = self.limits.rate_per_second
        if rate > 0:
            self.tokens = min(float(self.limits.burst),
                              self.tokens + (now - self.refilled_at)
                              * rate)
        self.refilled_at = now
        return self.tokens

    def take(self, now: float) -> float:
        """Take one submission token.

        Returns 0.0 on success, else the seconds until the bucket
        next holds a whole token (the 429's ``Retry-After``).
        """
        if self.limits.rate_per_second <= 0:
            return 0.0
        if self.refill(now) >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.limits.rate_per_second


def _iso8601(wall: float) -> str:
    """A wall-clock timestamp as ISO-8601 UTC (``...Z``)."""
    return datetime.fromtimestamp(wall, tz=timezone.utc) \
        .isoformat(timespec="milliseconds").replace("+00:00", "Z")


@dataclass
class Job:
    """One named unit of engine work plus its buffered event history."""

    id: str
    kind: str
    name: str
    spec: dict
    #: Owning tenant name; "" for anonymous (no-auth) submissions.
    tenant: str = ""
    status: str = "pending"
    events: list[Event] = field(default_factory=list)
    result: dict | None = None
    error: str = ""
    cancel: threading.Event = field(default_factory=threading.Event)
    #: Lifecycle timestamps (``time.perf_counter()``) backing the
    #: queue/execute phase spans; ``started_at`` stays ``None`` for
    #: jobs cancelled before a thread ever picked them up.  The
    #: ``*_wall`` twins are ``time.time()`` captured at the same
    #: moments: perf_counter has no defined epoch, so only the wall
    #: pair can become the client-facing ISO-8601 ``submitted`` /
    #: ``started`` fields (span math stays on perf_counter, which
    #: cannot jump under NTP).
    submitted_at: float = 0.0
    started_at: float | None = None
    submitted_wall: float = 0.0
    started_wall: float | None = None

    def summary(self) -> dict:
        """JSON-ready state snapshot (the ``GET /jobs`` row)."""
        summary = {"id": self.id, "kind": self.kind, "name": self.name,
                   "status": self.status, "events": len(self.events)}
        if self.tenant:
            summary["tenant"] = self.tenant
        if self.submitted_wall:
            summary["submitted"] = _iso8601(self.submitted_wall)
        if self.started_wall is not None:
            summary["started"] = _iso8601(self.started_wall)
        if self.kind == "segments" and "policy" in self.spec:
            # echo the normalized segment policy, defaults filled in
            summary["policy"] = self.spec["policy"]
        if self.error:
            summary["error"] = self.error
        return summary


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# job bodies (run on executor threads; emit via a thread-safe callback)
# ----------------------------------------------------------------------


def _spec_scales(spec: dict) -> list[int]:
    """The spec's scales as a validated int list.

    A string would otherwise be iterated character by character
    (``"12"`` -> scales 1 and 2) — reject anything but a list/tuple
    of integers, in keeping with the submit-time strictness that
    rejects unknown keys.
    """
    scales = spec.get("scales", [1])
    if not isinstance(scales, (list, tuple)) or not scales:
        raise ValueError(f"scales must be a non-empty list of "
                         f"integers, got {scales!r}")
    return [int(s) for s in scales]


def _segment_policy_from_spec(spec: dict) -> SegmentPolicy:
    """The segments job's ``"policy"`` object.

    A :meth:`SegmentPolicy.to_manifest` object; unknown fields inside
    it are rejected by name.
    """
    policy_spec = spec.get("policy")
    if policy_spec is None:
        raise ValueError("segments job needs a policy")
    if not isinstance(policy_spec, dict):
        raise ValueError(f"policy must be a JSON object, "
                         f"got {policy_spec!r}")
    return SegmentPolicy.from_manifest(policy_spec)


def _campaign_from_spec(spec: dict) -> Campaign:
    base = default_config()
    if spec.get("optimized"):
        base = base.with_optimizer()
    workloads = spec.get("workloads")
    if isinstance(workloads, str):
        workloads = split_workloads(workloads)
    return Campaign.from_axes(
        workloads=workloads, suite=spec.get("suite"),
        scales=_spec_scales(spec), base=base,
        axes=[parse_axis(s) for s in spec.get("axes", [])],
        include_baseline=bool(spec.get("baseline", False)))


def _sweep_body(spec: dict, store_dir: str, jobs: int,
                emit: Callable[[Event], None], backend=None) -> dict:
    # emit() raises JobCancelled when the cancel flag is set and
    # run_sweep calls it after every completed point, so cancellation
    # needs no extra plumbing here
    points = _campaign_from_spec(spec).points()
    sweep = run_sweep(points, jobs=jobs, store_dir=store_dir,
                      progress=emit, backend=backend)
    ledger = sweep.ledger_json()
    return {"points": len(points), "counters": dict(sweep.counters),
            "elapsed_seconds": round(sweep.elapsed, 3),
            "retired_insns": sum(r.stats.retired
                                 for r in sweep.results),
            "ledger": ledger, "ledger_sha256": _sha256(ledger)}


def _segments_body(spec: dict, store_dir: str, jobs: int,
                   emit: Callable[[Event], None], backend=None) -> dict:
    # submit-time validation normalized the spec to a policy manifest
    policy = SegmentPolicy.from_manifest(spec["policy"])
    points = _campaign_from_spec(spec).points()
    sweep = run_segmented_sweep(points, policy, jobs=jobs,
                                store_dir=store_dir, progress=emit,
                                backend=backend)
    ledger = sweep.ledger_json()
    result = {"points": len(points), "counters": dict(sweep.counters),
              "elapsed_seconds": round(sweep.elapsed, 3),
              "retired_insns": sum(r.stats.retired
                                   for r in sweep.results),
              "policy": policy.to_manifest(),
              "ledger": ledger, "ledger_sha256": _sha256(ledger)}
    estimated = [r for r in sweep.results if r.estimated]
    if estimated:
        # sampled runs return extrapolations, never exact numbers —
        # the summary says so and carries the worst per-point CI
        result["estimated"] = True
        result["max_relative_error"] = max(
            (r.error_bounds or {}).get("relative_error", 0.0)
            for r in estimated)
    return result


def _search_options(spec: dict) -> dict:
    """A search spec's strategy options as :func:`run_search` keywords."""
    budget, rung_insns = spec.get("budget"), spec.get("rung_insns")
    return {"strategy": spec.get("strategy", "random"),
            "budget": None if budget is None else int(budget),
            "rung_insns": DEFAULT_RUNG_INSNS if rung_insns is None
            else int(rung_insns)}


def _search_body(spec: dict, store_dir: str, jobs: int,
                 emit: Callable[[Event], None], backend=None) -> dict:
    space = SearchSpace.from_specs(list(spec["dims"]))
    workloads_spec = spec.get("workloads")
    if isinstance(workloads_spec, str):
        workloads_spec = split_workloads(workloads_spec)
    workloads = resolve_search_workloads(workloads_spec,
                                         spec.get("suite"))
    base = default_config()
    if spec.get("optimized"):
        base = base.with_optimizer()
    result = run_search(
        space, workloads=workloads,
        scales=tuple(_spec_scales(spec)), base=base,
        objective=make_objective(spec.get("objective", "geomean-ipc"),
                                 spec.get("weights")),
        seed=int(spec.get("seed", 0)), jobs=jobs, store_dir=store_dir,
        progress=emit, backend=backend, **_search_options(spec))
    ledger = result.ledger_json()
    return {"best": result.best.candidate.label,
            "score": result.best.score,
            "evaluations": len(result.evaluations),
            "counters": dict(result.counters),
            "elapsed_seconds": round(result.elapsed, 3),
            "ledger": ledger, "ledger_sha256": _sha256(ledger)}


def _fuzz_body(spec: dict, store_dir: str, jobs: int,
               emit: Callable[[Event], None], backend=None) -> dict:
    seeds = spec.get("seeds", [0, 8])
    families = spec.get("families")
    started = time.perf_counter()
    fuzz = run_fuzz(
        range(int(seeds[0]), int(seeds[1])),
        **({"families": tuple(families)} if families else {}),
        scale=int(spec.get("scale", 1)),
        small=bool(spec.get("small", False)),
        segment_insns=int(spec.get("segment_insns",
                                   DEFAULT_SEGMENT_INSNS)),
        progress=emit, jobs=jobs, backend=backend)
    return {"ok": fuzz.ok, "programs": len(fuzz.programs),
            "failed": len(fuzz.failed),
            "elapsed_seconds": round(time.perf_counter() - started, 3),
            "retired_insns": sum(p.instructions
                                 for p in fuzz.programs)}


_JOB_BODIES = {"sweep": _sweep_body, "segments": _segments_body,
               "search": _search_body, "fuzz": _fuzz_body}


# ----------------------------------------------------------------------
# the job manager
# ----------------------------------------------------------------------


class JobManager:
    """Run engine jobs concurrently over one shared artifact store.

    ``store_dir=None`` creates a manager-lifetime scratch store
    (removed on :meth:`close`).  ``jobs`` is the worker-process count
    each job's sweeps use (1 = serial in the job's thread);
    ``max_concurrent_jobs`` bounds how many jobs execute at once —
    excess submissions queue in ``pending`` state.

    Not thread-safe by itself: all public coroutines must run on one
    event loop.  Job bodies run on executor threads and communicate
    only through ``call_soon_threadsafe``.

    ``tenant_limits`` bounds every *named* tenant (submissions that
    arrive with a ``tenant=``): an active-job quota, a token-bucket
    rate limit on submission, and an optional store byte budget — each
    tenant's artifacts live in ``<store>/tenants/<name>`` so the
    budget's LRU gc can only ever evict that tenant's own artifacts.
    Anonymous submissions (``tenant=""`` — the only kind that exists
    when no auth tokens are configured) use the root store and skip
    every per-tenant limit, preserving pre-tenancy behavior exactly.

    ``backend`` attaches a live
    :class:`~repro.engine.backend.ExecutionBackend` (or a backend
    name) that every job body threads into the engine — the seam
    ``serve --workers-port`` uses to put a socket-worker fleet behind
    every job kind at once.  The manager does not own the backend's
    lifetime; whoever constructed it closes it.

    With a persistent store every submitted job's spec is journaled
    under ``<store>/jobs/<id>.json`` and the journal entry removed
    when the job reaches a terminal state; :meth:`resume_jobs`
    re-queues whatever a crashed or restarted server left behind
    (the engine's store manifests make the re-run skip all finished
    work).  Scratch-store managers journal nothing — their store dies
    with them anyway.
    """

    def __init__(self, store_dir: str | None = None, jobs: int = 1,
                 max_concurrent_jobs: int = 4,
                 max_finished_jobs: int = 64,
                 max_active_jobs: int = 128,
                 tenant_limits: TenantLimits | None = None,
                 backend: ExecutionBackend | str | None = None):
        if max_concurrent_jobs < 1:
            raise ValueError(f"max_concurrent_jobs must be >= 1, "
                             f"got {max_concurrent_jobs}")
        if max_finished_jobs < 1:
            raise ValueError(f"max_finished_jobs must be >= 1, "
                             f"got {max_finished_jobs}")
        if max_active_jobs < 1:
            raise ValueError(f"max_active_jobs must be >= 1, "
                             f"got {max_active_jobs}")
        self.max_finished_jobs = max_finished_jobs
        self.max_active_jobs = max_active_jobs
        self._scratch_dir: str | None = None
        if store_dir is None:
            self._scratch_dir = tempfile.mkdtemp(prefix="repro-serve-")
            atexit.register(shutil.rmtree, self._scratch_dir,
                            ignore_errors=True)
            store_dir = self._scratch_dir
        self.store_dir = str(store_dir)
        self.jobs = jobs
        self._set_spawn = resolve_jobs(jobs) > 1
        if self._set_spawn:
            # job bodies run on executor threads; forking a worker
            # pool from a multi-threaded process can inherit a lock
            # held mid-operation by another thread and deadlock the
            # child, so the service's pools use spawn (close()
            # restores whatever this displaced — the setting must
            # not outlive the manager or clobber another user's)
            self._displaced_context = set_worker_start_method("spawn")
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent_jobs,
            thread_name_prefix="repro-job")
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._sequence = 0
        self._changed = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._closing = False
        self.tenant_limits = tenant_limits or TenantLimits()
        self._tenants: dict[str, TenantState] = {}
        if isinstance(backend, str) and backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"one of {', '.join(BACKEND_NAMES)}")
        if backend == "workers":
            raise ValueError(
                "the workers backend needs a live lease server; pass "
                "a SocketWorkerBackend instance (serve --workers-port "
                "constructs one)")
        #: Execution backend threaded into every job body (None =
        #: auto-pick per run from ``jobs``).  A plain attribute so
        #: ``run_service`` can attach a socket backend after the
        #: manager (and its store directory) exists.
        self.backend: ExecutionBackend | str | None = backend

    # -- the job journal (persistent queue behind serve --resume) ------

    @property
    def _journal_dir(self) -> Path | None:
        """Where submitted-but-unfinished job specs persist.

        ``None`` on scratch stores: a journal that cannot outlive the
        process is pure overhead.
        """
        if self._scratch_dir is not None:
            return None
        return Path(self.store_dir) / "jobs"

    def _persist_job(self, job: Job) -> None:
        journal = self._journal_dir
        if journal is None:
            return
        journal.mkdir(parents=True, exist_ok=True)
        entry = {"kind": job.kind, "name": job.name,
                 "tenant": job.tenant, "spec": job.spec,
                 "submitted": _iso8601(job.submitted_wall)}
        path = journal / f"{job.id}.json"
        temp = journal / f".{job.id}.json.tmp"
        temp.write_text(json.dumps(entry, sort_keys=True) + "\n")
        temp.replace(path)

    def _discard_job(self, job: Job) -> None:
        journal = self._journal_dir
        if journal is None:
            return
        (journal / f"{job.id}.json").unlink(missing_ok=True)

    async def resume_jobs(self) -> list[Job]:
        """Re-queue every journaled (i.e. unfinished) job spec.

        The journal holds exactly the jobs a previous server accepted
        but never finished (terminal jobs delete their entries), so a
        restart with ``--resume`` picks up where the crash left off —
        under **new** job ids, since the old ids' event histories died
        with the old process.  Store manifests and cached stats make
        the re-run skip everything already computed.  Entries that no
        longer validate (or overflow a tenant's quota) are dropped
        with their error recorded, not retried forever.
        """
        journal = self._journal_dir
        if journal is None or not journal.is_dir():
            return []
        resumed = []
        for path in sorted(journal.glob("*.json")):
            try:
                entry = json.loads(path.read_text())
                spec = dict(entry.get("spec") or {})
                spec["kind"] = entry.get("kind")
                if entry.get("name"):
                    spec["name"] = entry["name"]
                tenant = str(entry.get("tenant") or "")
            except (json.JSONDecodeError, OSError, AttributeError):
                path.unlink(missing_ok=True)
                continue
            # the stale entry goes first: submit() journals the job
            # again under its new id
            path.unlink(missing_ok=True)
            try:
                resumed.append(await self.submit(spec, tenant=tenant))
            except ServiceError as error:
                TELEMETRY.counter("repro_jobs_resume_dropped_total") \
                    .inc()
                print(f"repro serve: dropping journaled job "
                      f"{path.stem}: {error}", file=sys.stderr,
                      flush=True)
        if resumed:
            TELEMETRY.counter("repro_jobs_resumed_total") \
                .inc(len(resumed))
        return resumed

    # -- tenancy -------------------------------------------------------

    def _tenant_state(self, tenant: str) -> TenantState:
        """This tenant's runtime limit state (created on first use)."""
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = TenantState(
                tenant, self.tenant_limits)
        return state

    def tenant_store_dir(self, tenant: str) -> str:
        """Where *tenant*'s jobs keep artifacts ("" = the root store)."""
        if not tenant:
            return self.store_dir
        return str(tenant_store_root(self.store_dir, tenant))

    def _active_jobs(self, tenant: str | None = None) -> int:
        """Non-terminal job count, overall or for one tenant."""
        return sum(1 for job in self._jobs.values()
                   if job.status not in TERMINAL_STATES
                   and (tenant is None or job.tenant == tenant))

    def _check_tenant_limits(self, tenant: str) -> None:
        """Quota then rate for one named tenant; 429s carry Retry-After.

        Quota first, so a submission that would be rejected anyway
        does not burn a rate token.  Both rejections are deliberately
        distinct — in message, ``Retry-After``, and the
        ``repro_requests_rejected_total`` reason label — from the
        global ``max_active_jobs`` capacity 429.
        """
        state = self._tenant_state(tenant)
        limits = state.limits
        active = self._active_jobs(tenant)
        if active >= limits.max_active_jobs:
            raise _reject(
                "quota",
                f"tenant {tenant!r} active-job quota reached "
                f"({active}/{limits.max_active_jobs}); retry after one "
                f"finishes or is cancelled", retry_after=1.0)
        wait = state.take(time.monotonic())
        if wait > 0.0:
            raise _reject(
                "rate",
                f"tenant {tenant!r} submission rate limit exceeded "
                f"({limits.rate_per_second:g}/s, burst "
                f"{limits.burst})", retry_after=wait)

    def _enforce_store_budget(self, tenant: str) -> None:
        """Cap a tenant's store namespace (runs on the job's thread).

        Layered on the store's ordinary LRU :meth:`~.ArtifactStore.gc`
        over the tenant's own namespace only — the root store and
        every other tenant's artifacts are out of reach by
        construction.
        """
        budget = self.tenant_limits.max_store_bytes
        if not tenant or budget is None:
            return
        report = ArtifactStore.for_tenant(self.store_dir,
                                          tenant).gc(budget)
        if report["evicted"]:
            TELEMETRY.counter("repro_tenant_store_evictions_total",
                              tenant=tenant).inc(report["evicted"])

    # -- submission ----------------------------------------------------

    async def submit(self, spec: dict, tenant: str = "") -> Job:
        """Validate *spec*, register a job, and start it. Returns it.

        *tenant* is the authenticated tenant name ("" = anonymous).
        Named tenants pass through their quota and rate limit and get
        their own store namespace.
        """
        if not isinstance(spec, dict):
            raise ServiceError("job spec must be a JSON object")
        kind = spec.get("kind")
        if kind not in JOB_KINDS:
            raise ServiceError(f"unknown job kind {kind!r}; expected "
                               f"one of {', '.join(JOB_KINDS)}")
        if tenant:
            self._check_tenant_limits(tenant)
        # backpressure: running + queued jobs are bounded, the same
        # unbounded-growth class the trace cache and finished-job
        # history fixes address
        active = self._active_jobs()
        if active >= self.max_active_jobs:
            raise _reject(
                "capacity",
                f"job queue full ({active} active jobs); retry after "
                f"some finish or are cancelled")
        unknown = sorted(set(spec) - _SPEC_KEYS[kind])
        if unknown:
            raise ServiceError(
                f"unknown {kind} spec keys {unknown}; known: "
                f"{sorted(_SPEC_KEYS[kind] - _COMMON_KEYS)}")
        self._sequence += 1
        job_id = f"j{self._sequence}"
        name = str(spec.get("name") or job_id)
        job = Job(id=job_id, kind=kind, name=name, tenant=tenant,
                  spec={k: v for k, v in spec.items()
                        if k not in ("kind", "name")})
        # surface bad specs as a 400 now, not a failed job later: build
        # the campaign/space eagerly (cheap — no simulation happens)
        try:
            if kind in ("sweep", "segments"):
                # .size, not .points(): a huge grid must not be
                # materialized on the event loop just to validate
                campaign = _campaign_from_spec(job.spec)
                if kind == "segments":
                    # normalize: the body and the GET /jobs echo see
                    # one canonical manifest, defaults filled in
                    job.spec["policy"] = _segment_policy_from_spec(
                        job.spec).to_manifest()
                if campaign.size == 0:
                    raise ValueError("sweep spec names an empty grid")
            elif kind == "search":
                if not job.spec.get("dims"):
                    raise ValueError("search job needs a dims list")
                _spec_scales(job.spec)
                SearchSpace.from_specs(list(job.spec["dims"]))
                resolve_search_workloads(
                    split_workloads(job.spec["workloads"])
                    if isinstance(job.spec.get("workloads"), str)
                    else job.spec.get("workloads"),
                    job.spec.get("suite"))
                check_search_options(**_search_options(job.spec))
                make_objective(job.spec.get("objective", "geomean-ipc"),
                               job.spec.get("weights"))
                int(job.spec.get("seed", 0))
            elif kind == "fuzz":
                seeds = job.spec.get("seeds", [0, 8])
                # a string like "19" would pass a bare len()==2 check
                # and fuzz range(1, 9) — same class _spec_scales guards
                if not isinstance(seeds, (list, tuple)) \
                        or len(seeds) != 2 \
                        or int(seeds[0]) >= int(seeds[1]):
                    raise ValueError(f"bad fuzz seeds {seeds!r}; "
                                     f"expected [lo, hi) with lo < hi")
                int(job.spec.get("scale", 1))
                unknown = [f for f in job.spec.get("families", [])
                           if f not in FAMILIES]
                if unknown:
                    raise ValueError(f"unknown families {unknown}; "
                                     f"known: {list(FAMILIES)}")
        except ServiceError:
            raise
        except (ValueError, TypeError, AttributeError, KeyError) as err:
            raise ServiceError(str(err)) from err
        job.submitted_at = time.perf_counter()
        job.submitted_wall = time.time()
        self._jobs[job_id] = job
        self._order.append(job_id)
        self._persist_job(job)
        TELEMETRY.counter("repro_jobs_submitted_total").inc()
        task = asyncio.create_task(self._run(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    async def _run(self, job: Job) -> None:
        loop = asyncio.get_running_loop()

        def emit(event: Event) -> None:
            """Thread-safe publish; doubles as the cancel checkpoint."""
            if job.cancel.is_set():
                raise JobCancelled()
            loop.call_soon_threadsafe(self._append, job, event)

        body = _JOB_BODIES[job.kind]

        def execute():
            """The executor callable: lifecycle + the job body.

            Runs only once a thread is free, so a job queued behind
            ``max_concurrent_jobs`` stays ``pending`` (and emits no
            ``job-started``) until it genuinely starts — and a cancel
            that lands while it queues skips the body entirely.
            """
            if job.cancel.is_set():
                raise JobCancelled()
            loop.call_soon_threadsafe(self._mark_running, job)
            result = body(job.spec, self.tenant_store_dir(job.tenant),
                          self.jobs, emit, self.backend)
            # the byte budget runs here, on the job's own thread: it
            # walks only this tenant's namespace, so a gc triggered by
            # one tenant's job can never touch another tenant's files
            self._enforce_store_budget(job.tenant)
            return result

        try:
            result = await loop.run_in_executor(self._executor, execute)
        except JobCancelled:
            job.status = "cancelled"
            self._record_phases(job)
            TELEMETRY.counter("repro_jobs_cancelled_total").inc()
            self._append(job, JobFailedEvent(job=job.id,
                                             error="cancelled",
                                             cancelled=True))
        except Exception as error:
            job.status = "failed"
            job.error = f"{type(error).__name__}: {error}"
            self._record_phases(job)
            TELEMETRY.counter("repro_jobs_failed_total").inc()
            self._append(job, JobFailedEvent(job=job.id,
                                             error=job.error))
        else:
            # wall-clock lifecycle stamps ride in the result (the
            # GET /jobs row carries the same pair), NOT in the ledger:
            # ledgers stay volatile-field-free and byte-identical
            result["submitted"] = _iso8601(job.submitted_wall)
            if job.started_wall is not None:
                result["started"] = _iso8601(job.started_wall)
            job.result = result
            job.status = "finished"
            self._record_phases(job)
            TELEMETRY.counter("repro_jobs_finished_total").inc()
            self._append(job, JobFinishedEvent(job=job.id,
                                               result=result))
        # terminal: the journal must not resubmit this job — except
        # jobs cancelled *by shutdown*, which are exactly what a
        # restart with --resume is supposed to pick back up
        if not (self._closing and job.status == "cancelled"):
            self._discard_job(job)
        self._prune_finished()

    def _record_phases(self, job: Job) -> None:
        """Emit queue/execute span metrics for a job that ran.

        Appends two ``metric`` events (before the terminal event, so
        a stream's last line stays the terminal one) and feeds the
        same spans into the registry histograms.  Jobs cancelled
        while still queued never started, have no meaningful spans,
        and keep their single-``job-failed`` event history.
        """
        if job.started_at is None:
            return
        spans = (("queue", job.started_at - job.submitted_at),
                 ("execute", time.perf_counter() - job.started_at))
        for phase, seconds in spans:
            seconds = max(0.0, seconds)
            TELEMETRY.histogram("repro_job_phase_seconds",
                                phase=phase).observe(seconds)
            self._append(job, MetricEvent(
                name="repro_job_phase_seconds", value=round(seconds, 6),
                unit="seconds", job=job.id, labels={"phase": phase}))

    def _mark_running(self, job: Job) -> None:
        """Flip pending -> running + job-started (on the loop thread).

        Scheduled from the executor thread before the body's first
        event, so ``call_soon_threadsafe`` FIFO ordering guarantees
        ``job-started`` precedes everything the body emits.
        """
        if job.status == "pending":
            job.status = "running"
            job.started_at = time.perf_counter()
            job.started_wall = time.time()
            self._append(job, JobStartedEvent(job=job.id,
                                              job_kind=job.kind,
                                              name=job.name))

    def _append(self, job: Job, event: Event) -> None:
        """Record an event and wake every waiting stream (loop thread)."""
        job.events.append(event)
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    def _prune_finished(self) -> None:
        """Cap retained terminal jobs at ``max_finished_jobs``.

        A long-lived server would otherwise hold every job's full
        event history — including each job-finished event's embedded
        ledger — forever (the same unbounded-growth class the
        engine's trace cache fix addresses).  Oldest terminal jobs go
        first; live streams over a pruned job keep their reference
        and drain normally, but new lookups 404.
        """
        terminal = [job_id for job_id in self._order
                    if self._jobs[job_id].status in TERMINAL_STATES]
        for job_id in terminal[:-self.max_finished_jobs]:
            del self._jobs[job_id]
            self._order.remove(job_id)

    # -- consumption ---------------------------------------------------

    def get(self, job_id: str, tenant: str | None = None) -> Job:
        """Look up a job; with *tenant* set, enforce ownership (403).

        ``tenant=None`` (anonymous / unauthenticated deployments)
        skips the ownership check entirely — pre-tenancy behavior.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", status=404)
        if tenant is not None and job.tenant != tenant:
            raise ServiceError(
                f"job {job_id!r} belongs to another tenant", status=403)
        return job

    def list_jobs(self, tenant: str | None = None) -> list[dict]:
        """Summaries in submission order (*tenant*'s own when set)."""
        return [self._jobs[job_id].summary() for job_id in self._order
                if tenant is None or self._jobs[job_id].tenant == tenant]

    def publish_gauges(self) -> None:
        """Refresh jobs-by-state and queue-depth gauges (loop thread).

        Gauges are point-in-time, so they are recomputed on demand —
        at each ``/metrics`` scrape — rather than maintained
        incrementally across every status flip.
        """
        states = {state: 0 for state in
                  ("pending", "running") + TERMINAL_STATES}
        for job in self._jobs.values():
            states[job.status] = states.get(job.status, 0) + 1
        for state, count in states.items():
            TELEMETRY.gauge("repro_jobs", state=state).set(count)
        TELEMETRY.gauge("repro_job_queue_depth").set(states["pending"])
        now = time.monotonic()
        for name, state in self._tenants.items():
            TELEMETRY.gauge("repro_tenant_active_jobs",
                            tenant=name).set(self._active_jobs(name))
            TELEMETRY.gauge("repro_tenant_rate_tokens",
                            tenant=name).set(round(state.refill(now), 3))
        for name, used in tenant_usage(self.store_dir).items():
            TELEMETRY.gauge("repro_tenant_store_bytes",
                            tenant=name).set(used)

    async def events(self, job_id: str,
                     heartbeat: float | None = None,
                     tenant: str | None = None,
                     from_index: int = 0
                     ) -> AsyncIterator[Event | None]:
        """Replay a job's event history, then tail it live.

        Terminates after the job's terminal event (``job-finished`` /
        ``job-failed``).  A consumer abandoning this iterator detaches
        nothing but itself — the job keeps running.

        With *heartbeat* set, yields ``None`` whenever that many
        seconds pass without this stream yielding anything — the HTTP
        stream turns those into blank keep-alive lines so a client
        watching a queued or slow job can tell "nothing happened yet"
        from a dead server.  The deadline is this stream's own: other
        jobs' events wake the stream but do not postpone it.

        ``from_index`` skips that many history events — the
        ``GET .../events?from=N`` resume point a reconnecting
        ``repro watch`` uses to avoid replaying what it already saw.
        """
        job = self.get(job_id, tenant)
        index = max(0, from_index)
        clock = asyncio.get_running_loop().time
        deadline = (clock() + heartbeat) if heartbeat is not None else 0.0
        while True:
            waiter = self._changed
            while index < len(job.events):
                event = job.events[index]
                index += 1
                yield event
                if heartbeat is not None:
                    deadline = clock() + heartbeat
            if job.status in TERMINAL_STATES \
                    and index >= len(job.events):
                return
            if heartbeat is None:
                await waiter.wait()
                continue
            remaining = deadline - clock()
            if remaining > 0:
                # Not wait_for: on 3.11 it returns normally when this
                # task is cancelled in the iteration the waiter fires,
                # losing the cancellation.  asyncio.wait always raises.
                wake = asyncio.ensure_future(waiter.wait())
                try:
                    done, _ = await asyncio.wait({wake}, timeout=remaining)
                finally:
                    wake.cancel()
                if done:
                    continue
            yield None
            deadline = clock() + heartbeat

    async def cancel(self, job_id: str,
                     tenant: str | None = None) -> Job:
        """Request cancellation; returns the job (state may lag).

        Cancellation is cooperative: the job flips to ``cancelled``
        when its body observes the flag at the next emitted event or
        completed point.  Cancelling a terminal job is a no-op.
        With *tenant* set, cancelling another tenant's job is a 403.
        """
        job = self.get(job_id, tenant)
        if job.status not in TERMINAL_STATES:
            job.cancel.set()
        return job

    async def wait(self, job_id: str) -> Job:
        """Block until a job reaches a terminal state (test helper)."""
        job = self.get(job_id)
        while job.status not in TERMINAL_STATES:
            waiter = self._changed
            await waiter.wait()
        return job

    async def close(self) -> None:
        """Cancel everything, stop the executor, drop a scratch store.

        Jobs this cancels keep their journal entries: they were
        stopped by shutdown, not by a client, so a restart with
        ``--resume`` re-queues them.
        """
        self._closing = True
        for job in self._jobs.values():
            if job.status not in TERMINAL_STATES:
                job.cancel.set()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self._set_spawn:
            set_worker_start_method(self._displaced_context)
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# HTTP front end (stdlib only: asyncio.start_server + hand-rolled HTTP)
# ----------------------------------------------------------------------

_MAX_BODY_BYTES = 1 << 20  # a job spec has no business being > 1 MiB


class ServiceServer:
    """JSON-over-HTTP front end for a :class:`JobManager`.

    Responses are ``Connection: close`` (one request per connection) —
    event streams are framed by connection close, so a client needs no
    chunked-transfer decoding: read lines until EOF.
    """

    #: Blank keep-alive line cadence on idle event streams, so a
    #: client's socket timeout only fires when the server is actually
    #: gone — not while a queued job waits for a thread.
    HEARTBEAT_SECONDS = 15.0

    #: A stream write must drain within this long; a client that
    #: stopped reading (dead network, stuck process) would otherwise
    #: pin its connection task and fd forever — the write-side twin
    #: of ``REQUEST_READ_SECONDS``.
    STREAM_WRITE_SECONDS = 60.0

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0,
                 heartbeat_seconds: float = HEARTBEAT_SECONDS,
                 auth_tokens: dict[str, str] | None = None):
        self.manager = manager
        self.host = host
        self.port = port
        self.heartbeat_seconds = heartbeat_seconds
        #: token -> tenant (see :func:`parse_auth_tokens`); empty =
        #: open server, every request anonymous.
        self.auth_tokens = dict(auth_tokens or {})
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> int:
        """Bind and listen; returns the actual port (for ``port=0``)."""
        self._server = await asyncio.start_server(self._handle,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- request plumbing ----------------------------------------------

    #: A client gets this long to deliver a complete request; a
    #: stalled or never-writing connection (a scanner, slowloris)
    #: must not pin a task and a file descriptor forever.
    REQUEST_READ_SECONDS = 30.0

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> tuple[str, str, dict[str, str], bytes]:
        """Parse one request; raises ServiceError on protocol errors.

        A client-side protocol error is a 400/413, never a 500 — 5xx
        would mislead clients that retry on server errors.  Returns
        ``(method, target, headers, body)`` with header names
        lowercased.  Duplicate ``Content-Length`` headers that
        *disagree* are rejected outright (the request-smuggling
        class: last-one-wins would let a proxy and this server frame
        the same bytes differently); identical repeats are tolerated
        per RFC 9110 §8.6.
        """

        async def readline(what: str) -> bytes:
            try:
                return await reader.readline()
            except ValueError as error:
                # the StreamReader's 64 KiB line limit: a client
                # problem, not a server one
                raise ServiceError(f"{what} too long",
                                   status=413) from error

        request = await readline("request line")
        parts = request.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError("bad request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        length: int | None = None
        while True:
            line = await readline("header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            headers[name] = value
            if name == "content-length":
                try:
                    parsed = int(value)
                except ValueError:
                    parsed = -1
                if parsed < 0:
                    raise ServiceError(f"bad Content-Length {value!r}")
                if length is not None and parsed != length:
                    raise ServiceError("conflicting Content-Length "
                                       "headers")
                length = parsed
        length = length or 0
        if length > _MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        body = (await reader.readexactly(length)) if length else b""
        return method.upper(), target, headers, body

    def _authenticate(self, headers: dict[str, str]) -> str | None:
        """Resolve the request's tenant (None = open server).

        With tokens configured, a missing, malformed, or unknown
        ``Authorization: Bearer`` credential is a counted 401 carrying
        ``WWW-Authenticate``.
        """
        if not self.auth_tokens:
            return None
        credential = headers.get("authorization", "")
        scheme, _, token = credential.partition(" ")
        tenant = self.auth_tokens.get(token.strip()) \
            if scheme.lower() == "bearer" else None
        if tenant is None:
            raise _reject("auth", "missing or invalid bearer token",
                          status=401)
        return tenant

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, headers, body = await asyncio.wait_for(
                    self._read_request(reader),
                    self.REQUEST_READ_SECONDS)
            except (TimeoutError, asyncio.TimeoutError):
                return  # stalled client: just drop the connection
            await self._route(method, target, headers, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except ServiceError as error:
            await self._respond(writer, error.status,
                                {"error": str(error)},
                                extra_headers=error.headers())
        except Exception as error:  # never kill the accept loop
            await self._respond(
                writer, 500,
                {"error": f"{type(error).__name__}: {error}"})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, target: str,
                     headers: dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        target, _, query = target.partition("?")
        segments = [s for s in target.split("/") if s]
        if segments == ["metrics"] and method == "GET":
            # /metrics stays open even with tokens configured —
            # Prometheus-style scrapers don't carry app credentials,
            # and the registry holds aggregates, not tenant payloads
            # refresh point-in-time gauges at scrape time, then render
            self.manager.publish_gauges()
            params = urllib.parse.parse_qs(query)
            if params.get("format", [""])[0] == "json":
                return await self._respond(writer, 200,
                                           TELEMETRY.snapshot())
            return await self._respond_text(writer, 200,
                                            TELEMETRY.to_prometheus())
        tenant = self._authenticate(headers)
        if segments == ["jobs"] and method == "POST":
            try:
                spec = json.loads(body.decode() or "null")
            except json.JSONDecodeError as error:
                raise ServiceError(f"bad JSON body: {error}") from error
            job = await self.manager.submit(spec, tenant=tenant or "")
            return await self._respond(writer, 201, job.summary())
        if segments == ["jobs"] and method == "GET":
            return await self._respond(
                writer, 200, {"jobs": self.manager.list_jobs(tenant)})
        if len(segments) == 2 and segments[0] == "jobs" \
                and method == "DELETE":
            job = await self.manager.cancel(segments[1], tenant)
            return await self._respond(writer, 200, job.summary())
        if len(segments) == 3 and segments[0] == "jobs" \
                and segments[2] == "events" and method == "GET":
            params = urllib.parse.parse_qs(query)
            raw_from = params.get("from", ["0"])[0]
            try:
                from_index = int(raw_from)
                if from_index < 0:
                    raise ValueError
            except ValueError:
                raise ServiceError(f"bad from index {raw_from!r}; "
                                   f"expected a non-negative integer") \
                    from None
            return await self._stream_events(segments[1], writer,
                                             tenant, from_index)
        raise ServiceError(f"no route for {method} {target}",
                           status=404)

    _REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
                401: "Unauthorized", 403: "Forbidden",
                404: "Not Found", 413: "Payload Too Large",
                429: "Too Many Requests",
                500: "Internal Server Error"}

    @classmethod
    async def _respond(cls, writer: asyncio.StreamWriter, status: int,
                       payload: dict,
                       extra_headers: dict[str, str] | None = None
                       ) -> None:
        await cls._send(writer, status,
                        (json.dumps(payload) + "\n").encode(),
                        "application/json", extra_headers)

    @classmethod
    async def _respond_text(cls, writer: asyncio.StreamWriter,
                            status: int, text: str) -> None:
        # the version parameter marks Prometheus text exposition 0.0.4
        await cls._send(writer, status, text.encode(),
                        "text/plain; version=0.0.4; charset=utf-8")

    @classmethod
    async def _send(cls, writer: asyncio.StreamWriter, status: int,
                    body: bytes, content_type: str,
                    extra_headers: dict[str, str] | None = None
                    ) -> None:
        extras = "".join(f"{name}: {value}\r\n" for name, value
                         in (extra_headers or {}).items())
        head = (f"HTTP/1.1 {status} "
                f"{cls._REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter,
                             tenant: str | None = None,
                             from_index: int = 0) -> None:
        self.manager.get(job_id, tenant)  # 404/403 before bytes go out
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head)
        await writer.drain()
        try:
            async for event in self.manager.events(
                    job_id, heartbeat=self.heartbeat_seconds,
                    tenant=tenant, from_index=from_index):
                line = ("\n" if event is None  # keep-alive
                        else event.to_json_line() + "\n")
                writer.write(line.encode())
                await asyncio.wait_for(writer.drain(),
                                       self.STREAM_WRITE_SECONDS)
        except (TimeoutError, asyncio.TimeoutError):
            return  # client stopped reading: treat as disconnected
        except (ConnectionError, OSError):
            # client disconnected mid-stream: drop only this stream —
            # the job (and everything already submitted) keeps running
            return
        except Exception:
            # anything else after the headers went out (e.g. the job
            # was pruned between our lookup and the iterator's) must
            # NOT become a second HTTP response inside the ndjson
            # body; closing the connection is the stream's normal
            # termination signal
            return


async def run_service(store_dir: str | None = None, jobs: int = 1,
                      max_concurrent_jobs: int = 4,
                      host: str = "127.0.0.1", port: int = 8787,
                      announce: Callable[[str, int, str], None]
                      | None = None,
                      shutdown: asyncio.Event | None = None,
                      auth_tokens: dict[str, str] | None = None,
                      tenant_limits: TenantLimits | None = None,
                      backend: ExecutionBackend | str | None = None,
                      workers_port: int | None = None,
                      resume: bool = False) -> int:
    """Run a manager + HTTP server until *shutdown* (or cancellation).

    The coroutine behind ``repro serve``: *announce* is called once
    with ``(host, actual_port, store_dir)`` after binding (``port=0``
    picks an ephemeral port).  Without a *shutdown* event it serves
    until cancelled (Ctrl-C under ``asyncio.run``); with one — how
    tests drive it — it stops when the event is set.  *auth_tokens*
    (token -> tenant) switches on bearer auth; *tenant_limits*
    overrides the per-tenant quota/rate/store bounds.

    *workers_port* opens a :class:`~repro.engine.backend
    .SocketWorkerBackend` lease server on that port (0 = ephemeral) —
    ``repro worker --connect host:port`` fleets then execute every
    job's work units, with artifacts replicated against the manager's
    store; worker lifecycle events are logged on stderr.  *backend*
    alternatively names ``inline``/``pool`` (or passes a live
    instance) for every job body.  *resume* re-queues the store
    journal's unfinished jobs before serving.
    """
    manager = JobManager(store_dir=store_dir, jobs=jobs,
                         max_concurrent_jobs=max_concurrent_jobs,
                         tenant_limits=tenant_limits, backend=backend)
    owned_backend = None
    if workers_port is not None:
        from .backend import SocketWorkerBackend

        def log_worker_event(event: Event) -> None:
            print(format_event(event), file=sys.stderr, flush=True)

        # built after the manager so a scratch store still gets
        # replicated to workers; parallelism comes from --jobs so
        # plans fan out identically with or without the fleet
        owned_backend = SocketWorkerBackend(
            store_dir=manager.store_dir, host=host, port=workers_port,
            parallelism=resolve_jobs(jobs), on_event=log_worker_event)
        manager.backend = owned_backend
        print(f"leasing work units on "
              f"{owned_backend.host}:{owned_backend.port} (connect "
              f"workers with: repro worker --connect "
              f"{owned_backend.host}:{owned_backend.port})",
              file=sys.stderr, flush=True)
    server = ServiceServer(manager, host=host, port=port,
                           auth_tokens=auth_tokens)
    try:
        # start() inside the try: a busy port must still tear the
        # manager (and its scratch store) down on the way out
        actual_port = await server.start()
        if announce is not None:
            announce(host, actual_port, manager.store_dir)
        if resume:
            resumed = await manager.resume_jobs()
            if resumed:
                print(f"resumed {len(resumed)} unfinished job(s) from "
                      f"the store journal: "
                      f"{', '.join(job.id for job in resumed)}",
                      file=sys.stderr, flush=True)
        if shutdown is not None:
            await shutdown.wait()
        else:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        await manager.close()
        if owned_backend is not None:
            owned_backend.close()
    return 0


# ----------------------------------------------------------------------
# blocking client (the `repro watch` front end; also used by tests)
# ----------------------------------------------------------------------


def _connect(url: str, timeout: float):
    """``(HTTPConnection, path_prefix)`` for a service base URL.

    The URL's own path component becomes a prefix applied to every
    request path — ``http://host:8787/repro`` reaches ``/repro/jobs``
    (a reverse-proxy mount), where it used to be silently dropped and
    the client would quietly talk to the root.
    """
    import http.client
    import urllib.parse
    parsed = urllib.parse.urlsplit(url if "//" in url
                                   else f"http://{url}")
    if not parsed.hostname:
        raise ServiceError(f"bad service URL {url!r}")
    return (http.client.HTTPConnection(parsed.hostname,
                                       parsed.port or 80,
                                       timeout=timeout),
            parsed.path.rstrip("/"))


def _auth_headers(token: str | None) -> dict[str, str]:
    return {"Authorization": f"Bearer {token}"} if token else {}


def _error_from(response) -> ServiceError:
    """The server's JSON error body as a client-side ServiceError."""
    try:
        detail = json.loads(response.read().decode() or "{}")
    except json.JSONDecodeError:
        detail = {}
    retry_after = None
    header = response.getheader("Retry-After")
    if header is not None:
        try:
            retry_after = float(header)
        except ValueError:
            pass
    return ServiceError(detail.get("error", f"HTTP {response.status}"),
                        status=response.status,
                        retry_after=retry_after)


def request_json(url: str, method: str, path: str,
                 payload: dict | None = None,
                 timeout: float = 30.0,
                 token: str | None = None) -> dict:
    """One blocking JSON request against a running service."""
    conn, prefix = _connect(url, timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = _auth_headers(token)
        if body:
            headers["Content-Type"] = "application/json"
        conn.request(method, prefix + path, body=body, headers=headers)
        response = conn.getresponse()
        if response.status >= 400:
            raise _error_from(response)
        return json.loads(response.read().decode() or "{}")
    finally:
        conn.close()


def watch_job(url: str, job_id: str,
              on_event: Callable[[Event], None],
              timeout: float = 600.0,
              token: str | None = None,
              retries: int = 5,
              backoff: float = 0.25,
              on_reconnect: Callable[[int, Exception], None]
              | None = None) -> Event | None:
    """Tail one job's event stream until it ends; returns the last event.

    Decodes the JSON-lines stream back into typed events and hands
    each to *on_event*.  Returns the stream's final event (normally
    ``job-finished`` or ``job-failed``), or ``None`` for an empty
    stream.

    A transport error mid-stream (connection reset, timeout) no
    longer kills the watch: up to *retries* reconnect attempts are
    made with exponential backoff (capped at 5s), resuming from the
    last-seen event index via the server's ``?from=`` query so no
    event is dropped or duplicated.  Receiving an event resets the
    attempt budget — only consecutive failures exhaust it.  A clean
    end-of-stream is never retried: the server closed the stream on
    purpose (terminal event, shutdown), and callers detect the
    missing terminal event themselves.  *on_reconnect*, when given,
    observes each retry as ``(attempt, error)``.
    """
    import http.client
    from .events import event_from_json_line
    last: Event | None = None
    seen = 0
    attempts = 0
    while True:
        conn, prefix = _connect(url, timeout)
        try:
            conn.request("GET",
                         f"{prefix}/jobs/{job_id}/events?from={seen}",
                         headers=_auth_headers(token))
            response = conn.getresponse()
            if response.status != 200:
                raise _error_from(response)
            while True:
                line = response.readline()
                if not line:
                    return last
                line = line.decode().strip()
                if not line:
                    continue
                last = event_from_json_line(line)
                seen += 1
                attempts = 0  # progress: a fresh retry budget
                on_event(last)
        except (ConnectionError, OSError, http.client.HTTPException) \
                as exc:
            attempts += 1
            if attempts > retries:
                raise
            if on_reconnect is not None:
                on_reconnect(attempts, exc)
            time.sleep(min(backoff * 2 ** (attempts - 1), 5.0))
        finally:
            conn.close()

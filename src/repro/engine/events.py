"""Unified typed event stream for every engine producer.

Before this module each engine entry point invented its own progress
callback shape — ``run_sweep`` called ``progress(done, total, label)``,
the segmented engine ``progress(done, total, message)``, the search
engine passed raw dicts, and the fuzz harness
``progress(report, done, total)``.  Consumers (the CLI, the streaming
service, tests) had to know which producer they were wired to.

Now every producer emits instances of one small event vocabulary and a
``progress`` callback always has the signature ``progress(event)``:

============== ====================================================
kind           emitted by / meaning
============== ====================================================
``point``      one sweep grid point completed (flat or segmented
               sweeps; search evaluations also stream these, tagged
               with the owning candidate)
``evaluation`` one search candidate fully scored at one budget
``segment``    one segmented-engine unit finished (a planning task
               or a (config x segment) simulation shard)
``finding``    one fuzzed program's differential verdict
``job-*``      lifecycle of a named service job (``job-started``,
               ``job-finished``, ``job-failed``) — emitted only by
               :mod:`repro.engine.service`
``metric``     one named telemetry measurement (a per-job phase span
               such as queue wait or execute time) — emitted by the
               service just before a job's terminal event
``worker-*``   lifecycle of a remote socket worker registered with a
               :class:`~repro.engine.backend.SocketWorkerBackend`
               (``worker-joined``, ``worker-left``)
``unit-leased`` one :class:`~repro.engine.backend.WorkUnit` handed to
               a connected worker
============== ====================================================

Events are frozen dataclasses with a stable JSON form: ``to_dict()``
always carries the ``kind`` discriminator, ``to_json_line()`` frames
one event per line (the service's wire format), and
:func:`event_from_dict` rebuilds the typed event on the client side —
unknown keys are dropped, so old clients survive new fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar


@dataclass(frozen=True)
class Event:
    """Base event: a ``kind`` discriminator plus a stable JSON form."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        return payload

    def to_json_line(self) -> str:
        """One-line JSON framing (the service's stream format)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class PointEvent(Event):
    """One completed sweep grid point.

    ``candidate`` is empty for plain sweeps; the search engine tags
    each point with the candidate whose evaluation it belongs to and
    uses ``done``/``total`` to count points *within* that evaluation.
    """

    kind: ClassVar[str] = "point"
    label: str
    done: int
    total: int
    from_cache: bool = False
    candidate: str = ""


@dataclass(frozen=True)
class EvaluationEvent(Event):
    """One search candidate fully scored at one instruction budget."""

    kind: ClassVar[str] = "evaluation"
    candidate: str
    score: float
    limit_insns: int | None = None
    from_ledger: bool = False


@dataclass(frozen=True)
class SegmentEvent(Event):
    """One segmented-engine unit done (planning or simulation).

    ``phase`` is ``"plan"`` while workloads are being segmented and
    ``"simulate"`` while (config x segment) shards run.  ``estimated``
    flags units of a sampled-mode sweep, whose final stats are
    extrapolated rather than fully simulated.
    """

    kind: ClassVar[str] = "segment"
    message: str
    done: int
    total: int
    phase: str = "simulate"
    estimated: bool = False


@dataclass(frozen=True)
class FindingEvent(Event):
    """One fuzzed program's differential verdict."""

    kind: ClassVar[str] = "finding"
    workload: str
    scale: int
    instructions: int
    ok: bool
    done: int
    total: int
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class JobStartedEvent(Event):
    """A service job began executing."""

    kind: ClassVar[str] = "job-started"
    job: str
    job_kind: str
    name: str = ""


@dataclass(frozen=True)
class JobFinishedEvent(Event):
    """A service job completed; ``result`` is its JSON-ready summary.

    For sweep/search jobs the summary includes the run's canonical
    ``ledger`` string, so a client can byte-compare a service run
    against a serial CLI run of the same work.
    """

    kind: ClassVar[str] = "job-finished"
    job: str
    result: dict


@dataclass(frozen=True)
class JobFailedEvent(Event):
    """A service job raised (or was cancelled — see ``cancelled``)."""

    kind: ClassVar[str] = "job-failed"
    job: str
    error: str
    cancelled: bool = False


@dataclass(frozen=True)
class MetricEvent(Event):
    """One named telemetry measurement attached to an event stream.

    The service emits these for per-job phase spans (queue wait,
    execute time) right before the job's terminal event; ``labels``
    carries the metric's dimension(s) (e.g. ``{"phase": "queue"}``)
    using the same names the ``/metrics`` endpoint exposes.
    """

    kind: ClassVar[str] = "metric"
    name: str
    value: float
    unit: str = ""
    job: str = ""
    labels: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerJoinedEvent(Event):
    """A remote worker registered with the socket backend.

    ``workers`` is the connected-worker count *after* the join — the
    same number the ``repro_workers_connected`` gauge reports.
    """

    kind: ClassVar[str] = "worker-joined"
    worker: str
    workers: int


@dataclass(frozen=True)
class WorkerLeftEvent(Event):
    """A remote worker disconnected (cleanly or by dropping its link).

    ``requeued`` counts units the worker held a lease on at the time;
    they go back to the front of the queue for another worker.
    """

    kind: ClassVar[str] = "worker-left"
    worker: str
    workers: int
    requeued: int = 0


@dataclass(frozen=True)
class UnitLeasedEvent(Event):
    """One work unit handed to a connected remote worker."""

    kind: ClassVar[str] = "unit-leased"
    worker: str
    unit_kind: str
    backend: str = "workers"


EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (PointEvent, EvaluationEvent, SegmentEvent, FindingEvent,
                JobStartedEvent, JobFinishedEvent, JobFailedEvent,
                MetricEvent, WorkerJoinedEvent, WorkerLeftEvent,
                UnitLeasedEvent)
}


def event_from_dict(payload: dict) -> Event:
    """Rebuild a typed event from its ``to_dict()`` form.

    Unknown keys are ignored (forward compatibility); an unknown
    ``kind`` raises ``ValueError`` so a client cannot silently
    misinterpret a stream from a newer server.
    """
    kind = payload.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    known = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in payload.items() if k in known}
    if "failures" in kwargs and isinstance(kwargs["failures"], list):
        kwargs["failures"] = tuple(kwargs["failures"])
    try:
        return cls(**kwargs)
    except TypeError as error:
        # a known kind missing a required field (renamed upstream, or
        # a stream corrupted at a line boundary that still parses as
        # JSON) is a decoding error, not a programming error
        raise ValueError(f"bad {kind!r} event {payload!r}: "
                         f"{error}") from error


def event_from_json_line(line: str) -> Event:
    """Decode one JSON-lines frame back into a typed event."""
    return event_from_dict(json.loads(line))


def format_event(event: Event) -> str:
    """One human-readable line per event (``repro watch``'s output;
    the CLI's search progress printer uses the evaluation branch)."""
    if event.kind == "point":
        owner = f" [{event.candidate}]" if event.candidate else ""
        cache = " (cached)" if event.from_cache else ""
        return (f"[{event.done}/{event.total}]{owner} "
                f"{event.label}{cache}")
    if event.kind == "evaluation":
        budget = (f"first {event.limit_insns} insns"
                  if event.limit_insns else "full")
        source = "ledger" if event.from_ledger else "ran"
        return (f"[search] {event.candidate}  score {event.score:.4f}  "
                f"({budget}, {source})")
    if event.kind == "segment":
        marker = " ~estimated" if event.estimated else ""
        return f"[{event.done}/{event.total}] {event.message}{marker}"
    if event.kind == "finding":
        verdict = "ok" if event.ok else "FAIL"
        suffix = "".join(f"\n    {failure}" for failure in event.failures)
        return (f"[{event.done}/{event.total}] "
                f"{event.workload}@{event.scale} "
                f"({event.instructions} insns) {verdict}{suffix}")
    if event.kind == "job-started":
        return f"job {event.job} started ({event.job_kind}: {event.name})"
    if event.kind == "job-finished":
        keys = {k: v for k, v in event.result.items() if k != "ledger"}
        return f"job {event.job} finished: {json.dumps(keys)}"
    if event.kind == "job-failed":
        state = "cancelled" if event.cancelled else "failed"
        return f"job {event.job} {state}: {event.error}"
    if event.kind == "metric":
        labels = "".join(f" {k}={v}" for k, v in
                         sorted(event.labels.items()))
        unit = f" {event.unit}" if event.unit else ""
        return f"[metric] {event.name}{labels} = {event.value}{unit}"
    if event.kind == "worker-joined":
        return (f"worker {event.worker} joined "
                f"({event.workers} connected)")
    if event.kind == "worker-left":
        requeued = (f", {event.requeued} unit(s) requeued"
                    if event.requeued else "")
        return (f"worker {event.worker} left "
                f"({event.workers} connected{requeued})")
    if event.kind == "unit-leased":
        return (f"unit {event.unit_kind} leased to {event.worker} "
                f"[{event.backend}]")
    return event.to_json_line()

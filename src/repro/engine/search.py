"""Design-space search: optimize a ``MachineConfig`` over a sweep space.

The paper's tables and figures each evaluate a handful of hand-picked
machine variants; this module *searches* the space they sample.  A
:class:`SearchSpace` names the free dimensions — dotted config paths
(the same ones ``Campaign`` axes use) with **int-range** or
**categorical** domains — and :func:`run_search` drives the sweep
engine to find the candidate that maximizes an objective:

* **strategies** — ``grid`` (exhaustive, deterministic order),
  ``random`` (seeded sampling without replacement), and ``halving``
  (successive halving: rank every candidate on a short
  ``limit_insns`` instruction budget, promote the best half to a
  doubled budget, and evaluate the finalists on full runs);
* **objectives** — geometric-mean IPC across the selected workloads,
  or a weighted arithmetic mean for skewed workload mixes;
* **evaluations** stream through the incremental
  :func:`repro.engine.pool.run_sweep_iter` API, so per-point progress
  reaches the caller as shards complete and the searcher could stop
  consuming early;
* **resume** — with an :class:`~repro.engine.store.ArtifactStore`,
  every completed evaluation is recorded in a **search manifest**
  (rewritten atomically after each candidate), so a killed search
  re-run against the same store replays its ledger instead of
  re-simulating; the per-point stats artifacts make even un-ledgered
  partial progress cheap to recover.

``repro search`` on the command line and
:mod:`repro.experiments.autotune` both drive this module.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from ..uarch.config import MachineConfig, default_config
from ..workloads import get_workload, suite_workloads
from .backend import resolve_backend
from .campaign import SweepPoint, _parse_value, apply_override
from .events import EvaluationEvent, PointEvent
from .pool import (DEFAULT_TRACE_CACHE, PointResult, resolve_jobs,
                   run_sweep_iter, run_trace_prewarm)
from .store import ArtifactStore

# ----------------------------------------------------------------------
# search space: dimensions, candidates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IntRange:
    """An integer dimension: ``lo..hi`` inclusive, stepping by *step*."""

    path: str
    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"{self.path}: step must be > 0, "
                             f"got {self.step}")
        if self.lo > self.hi:
            raise ValueError(f"{self.path}: empty range "
                             f"{self.lo}..{self.hi}")

    def values(self) -> list[int]:
        return list(range(self.lo, self.hi + 1, self.step))

    def spec(self) -> str:
        suffix = f":{self.step}" if self.step != 1 else ""
        return f"{self.path}={self.lo}..{self.hi}{suffix}"


@dataclass(frozen=True)
class Categorical:
    """An explicit-choice dimension (bools, floats, sparse ints)."""

    path: str
    choices: tuple

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"{self.path}: no choices")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.path}: duplicate choices "
                             f"{list(self.choices)}")

    def values(self) -> list:
        return list(self.choices)

    def spec(self) -> str:
        rendered = ",".join(str(c).lower() if isinstance(c, bool)
                            else str(c) for c in self.choices)
        return f"{self.path}={rendered}"


def parse_dim(spec: str) -> IntRange | Categorical:
    """Parse one ``--dim`` spec into a dimension.

    ``path=lo..hi`` or ``path=lo..hi:step`` gives an :class:`IntRange`;
    ``path=v1,v2,...`` (the ``--axis`` value syntax) gives a
    :class:`Categorical`.
    """
    path, sep, domain = spec.partition("=")
    path, domain = path.strip(), domain.strip()
    if not sep or not path or not domain:
        raise ValueError(f"bad dimension {spec!r}; expected "
                         f"'path=lo..hi[:step]' or 'path=v1,v2,...'")
    if ".." in domain:
        bounds, _, step_text = domain.partition(":")
        lo_text, _, hi_text = bounds.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
            step = int(step_text) if step_text else 1
        except ValueError:
            raise ValueError(f"bad int range {domain!r} in {spec!r}; "
                             f"expected 'lo..hi[:step]'") from None
        return IntRange(path=path, lo=lo, hi=hi, step=step)
    return Categorical(path=path,
                       choices=tuple(_parse_value(v)
                                     for v in domain.split(",")))


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a full dimension assignment."""

    assignment: tuple[tuple[str, object], ...]

    @property
    def label(self) -> str:
        """The same ``path=value,...`` labelling sweep variants use."""
        return ",".join(f"{path}={value}"
                        for path, value in self.assignment)

    def config(self, base: MachineConfig) -> MachineConfig:
        """The machine this candidate names, on top of *base*."""
        config = base
        for path, value in self.assignment:
            config = apply_override(config, path, value)
        return config


@dataclass(frozen=True)
class SearchSpace:
    """The cartesian space spanned by a tuple of dimensions."""

    dimensions: tuple

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("search space has no dimensions")
        paths = [d.path for d in self.dimensions]
        if len(set(paths)) != len(paths):
            raise ValueError(f"duplicate dimension paths in {paths}")
        base = default_config()
        for dimension in self.dimensions:
            # surface bad paths/values at build time, not mid-search:
            # every value is probed, so a mixed-type categorical
            # (enabled=true,2) cannot blow up after simulations were
            # already spent on earlier candidates
            for value in dimension.values():
                apply_override(base, dimension.path, value)

    @classmethod
    def from_specs(cls, specs: list[str]) -> "SearchSpace":
        """Build a space from CLI-shaped ``--dim`` strings."""
        return cls(dimensions=tuple(parse_dim(s) for s in specs))

    @property
    def size(self) -> int:
        count = 1
        for dimension in self.dimensions:
            count *= len(dimension.values())
        return count

    def candidate(self, index: int) -> Candidate:
        """Decode grid index -> candidate (first dimension major)."""
        if not 0 <= index < self.size:
            raise IndexError(f"candidate index {index} outside "
                             f"space of {self.size}")
        assignment = []
        remaining = index
        for dimension in reversed(self.dimensions):
            values = dimension.values()
            remaining, digit = divmod(remaining, len(values))
            assignment.append((dimension.path, values[digit]))
        return Candidate(assignment=tuple(reversed(assignment)))

    def candidates(self) -> list[Candidate]:
        """Every candidate, in deterministic grid order."""
        return [self.candidate(i) for i in range(self.size)]

    def sample(self, rng: random.Random, count: int) -> list[Candidate]:
        """*count* distinct candidates, deterministic given *rng*."""
        count = min(count, self.size)
        return [self.candidate(i)
                for i in rng.sample(range(self.size), count)]

    def identity(self) -> dict:
        """JSON-ready description (folded into search-manifest keys)."""
        return {"dimensions": [d.spec() for d in self.dimensions]}


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GeomeanIPC:
    """Geometric-mean IPC across every evaluated point.

    Zero-IPC degenerate points (an adversarial synthetic program that
    retires nothing, or a zero-length truncation budget) are clamped
    to ``floor`` instead of zeroing the whole score: a candidate set
    containing one degenerate workload must still be *rankable* on the
    healthy ones, and a hard 0.0 for every candidate would make the
    search pick arbitrarily.
    """

    name: str = "geomean-ipc"
    floor: float = 1e-9

    def score(self, results: list[PointResult]) -> float:
        values = [max(r.stats.ipc, self.floor) for r in results]
        if not values:
            return 0.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def identity(self) -> dict:
        return {"name": self.name, "floor": self.floor}


@dataclass(frozen=True)
class WeightedIPC:
    """Weighted arithmetic-mean IPC; weights keyed by workload name.

    Workloads without an explicit weight count 1.0, so a single
    ``--weight mcf=4`` skews the score toward mcf without silencing
    the rest of the mix.
    """

    weights: tuple[tuple[str, float], ...] = ()
    name: str = "weighted-ipc"

    def score(self, results: list[PointResult]) -> float:
        weights = dict(self.weights)
        total = weighted = 0.0
        for result in results:
            weight = weights.get(result.point.workload, 1.0)
            total += weight
            weighted += weight * result.stats.ipc
        return weighted / total if total else 0.0

    def identity(self) -> dict:
        return {"name": self.name,
                "weights": {w: v for w, v in sorted(self.weights)}}


OBJECTIVES = ("geomean-ipc", "weighted-ipc")


def make_objective(name: str, weights: dict[str, float] | None = None):
    """Objective factory for CLI-shaped inputs."""
    if name == "geomean-ipc":
        return GeomeanIPC()
    if name == "weighted-ipc":
        return WeightedIPC(weights=tuple(sorted((weights or {}).items())))
    raise ValueError(f"unknown objective {name!r}; "
                     f"expected one of {', '.join(OBJECTIVES)}")


# ----------------------------------------------------------------------
# evaluations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate at one instruction budget."""

    candidate: Candidate
    score: float
    #: ``None`` means a full-trace run; an int is a halving rung's
    #: truncation budget.
    limit_insns: int | None
    #: per-point headline numbers, keyed ``workload@scale``
    points: dict[str, dict]
    #: True when the search manifest already held this score
    from_ledger: bool = False

    @property
    def full(self) -> bool:
        return self.limit_insns is None

    def to_dict(self) -> dict:
        return {"candidate": self.candidate.label,
                "score": round(self.score, 6),
                "limit_insns": self.limit_insns,
                "from_ledger": self.from_ledger,
                "points": self.points}


class _Evaluator:
    """Scores candidates through the backend, ledgered in the store."""

    def __init__(self, *, workloads: tuple[str, ...],
                 scales: tuple[int, ...], base: MachineConfig,
                 objective, jobs: int, store_dir, progress,
                 identity: dict, counters: dict, backend=None):
        self.workloads = workloads
        self.scales = scales
        self.base = base
        self.objective = objective
        self.jobs = jobs
        self.backend = backend
        self.store_dir = store_dir
        self.progress = progress
        self.identity = identity
        self.counters = counters
        self.store = (ArtifactStore(store_dir)
                      if store_dir is not None else None)
        self.ledger: dict[str, dict] = {}
        if self.store is not None:
            manifest = self.store.load_search_manifest(identity)
            if manifest is not None:
                self.ledger = manifest.get("evaluations", {})

    @staticmethod
    def _ledger_key(candidate: Candidate, limit_insns: int | None) -> str:
        return f"{candidate.label}@{limit_insns or 'full'}"

    def _emit(self, event) -> None:
        if self.progress is not None:
            self.progress(event)

    def _ledgered(self, candidate: Candidate, entry: dict,
                  limit_insns: int | None) -> Evaluation:
        self.counters["evaluations_reused"] += 1
        evaluation = Evaluation(candidate=candidate, score=entry["score"],
                                limit_insns=limit_insns,
                                points=entry.get("points", {}),
                                from_ledger=True)
        self._emit(EvaluationEvent(candidate=candidate.label,
                                   score=evaluation.score,
                                   limit_insns=limit_insns,
                                   from_ledger=True))
        return evaluation

    def _completed(self, candidate: Candidate, results: list[PointResult],
                   limit_insns: int | None) -> Evaluation:
        # Results stream back in shard-completion order, which depends
        # on worker timing; fix the order before scoring so float
        # accumulation (and the ledgered point dict) is byte-identical
        # between jobs=1 and jobs=N runs.
        results = sorted(results, key=lambda r: r.point.label)
        score = self.objective.score(results)
        summaries = {f"{r.point.workload}@{r.point.scale}":
                     {"ipc": round(r.stats.ipc, 4),
                      "cycles": r.stats.cycles}
                     for r in results}
        self.counters["evaluations"] += 1
        self.ledger[self._ledger_key(candidate, limit_insns)] = \
            {"score": score, "points": summaries}
        if self.store is not None:
            # rewritten after every candidate: a killed search resumes
            # at evaluation granularity
            self.store.save_search_manifest(
                self.identity, {"evaluations": self.ledger})
        self._emit(EvaluationEvent(candidate=candidate.label,
                                   score=score, limit_insns=limit_insns,
                                   from_ledger=False))
        return Evaluation(candidate=candidate, score=score,
                          limit_insns=limit_insns, points=summaries)

    def evaluate_batch(self, candidates: list[Candidate],
                       limit_insns: int | None = None
                       ) -> list[Evaluation]:
        """Score a batch of candidates, consulting the ledger first.

        Un-ledgered candidates are dispatched as **one** sweep with
        per-point sharding, so a rung of many candidates on few
        workloads still saturates every worker; each candidate's
        evaluation completes (ledger write + progress event) as soon
        as its last point streams back.  Returns evaluations in
        *candidates* order.
        """
        slots: dict[int, Evaluation] = {}
        pending: list[tuple[int, Candidate]] = []
        for batch_index, candidate in enumerate(candidates):
            entry = self.ledger.get(
                self._ledger_key(candidate, limit_insns))
            if entry is not None:
                slots[batch_index] = self._ledgered(candidate, entry,
                                                    limit_insns)
            else:
                pending.append((batch_index, candidate))
        if pending:
            per_candidate = len(self.workloads) * len(self.scales)
            fine = self.jobs > 1 and len(pending) > 1
            if fine:
                # per-point shards need the traces in the store first,
                # or every worker would emulate its own copy
                prewarmed = run_trace_prewarm(
                    [(w, s) for w in self.workloads
                     for s in self.scales],
                    jobs=self.jobs, store_dir=self.store_dir,
                    backend=self.backend)
                self.counters["emulations"] += prewarmed["emulations"]
            points, owners = [], []
            for batch_index, candidate in pending:
                config = candidate.config(self.base)
                for workload in self.workloads:
                    for scale in self.scales:
                        points.append(SweepPoint(
                            workload=workload, scale=scale,
                            variant=candidate.label, config=config))
                        owners.append(batch_index)
            gathered: dict[int, list[PointResult]] = \
                {i: [] for i, _ in pending}
            by_index = dict(pending)
            sweep_counters: dict = {}
            # per-point shards cycle every worker through the whole
            # (workload x scale) set once per candidate, so the trace
            # cache must hold the full set or cyclic reuse would
            # thrash an 8-entry LRU into all-misses
            cache_slots = max(per_candidate, DEFAULT_TRACE_CACHE)
            for index, result in run_sweep_iter(
                    points, jobs=self.jobs, store_dir=self.store_dir,
                    counters=sweep_counters, limit_insns=limit_insns,
                    shard_by_point=fine,
                    max_cached_traces=cache_slots,
                    backend=self.backend):
                batch_index = owners[index]
                bucket = gathered[batch_index]
                bucket.append(result)
                self._emit(PointEvent(
                    label=result.point.label, done=len(bucket),
                    total=per_candidate, from_cache=result.from_cache,
                    candidate=by_index[batch_index].label))
                if len(bucket) == per_candidate:
                    slots[batch_index] = self._completed(
                        by_index[batch_index], bucket, limit_insns)
            for name in ("emulations", "simulations",
                         "stats_cache_hits"):
                self.counters[name] += sweep_counters.get(name, 0)
        return [slots[i] for i in range(len(candidates))]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

#: Default first-rung instruction budget for successive halving.
DEFAULT_RUNG_INSNS = 2000


def _search_grid(space: SearchSpace, evaluator: _Evaluator,
                 budget: int | None, rng: random.Random,
                 rung_insns: int) -> list[Evaluation]:
    candidates = space.candidates()
    if budget is not None:
        candidates = candidates[:budget]
    return evaluator.evaluate_batch(candidates)


def _search_random(space: SearchSpace, evaluator: _Evaluator,
                   budget: int | None, rng: random.Random,
                   rung_insns: int) -> list[Evaluation]:
    count = space.size if budget is None else budget
    return evaluator.evaluate_batch(space.sample(rng, count))


def _search_halving(space: SearchSpace, evaluator: _Evaluator,
                    budget: int | None, rng: random.Random,
                    rung_insns: int) -> list[Evaluation]:
    """Successive halving: cheap rungs rank, full runs decide.

    Start from *budget* sampled candidates.  Each rung scores every
    survivor on its trace truncated to a ``rung_insns`` instruction
    prefix and promotes the best half to a doubled prefix.  Once at
    most two candidates survive they are re-evaluated on **full**
    traces (rung scores are rankings, never final results).
    """
    count = space.size if budget is None else budget
    survivors = space.sample(rng, count)
    evaluations: list[Evaluation] = []
    limit = rung_insns
    while len(survivors) > 2:
        rung = evaluator.evaluate_batch(survivors, limit_insns=limit)
        limit *= 2
        evaluations.extend(rung)
        ranked = sorted(rung, key=lambda e: e.score, reverse=True)
        keep = max(2, math.ceil(len(survivors) / 2))
        survivors = [e.candidate for e in ranked[:keep]]
    evaluations.extend(evaluator.evaluate_batch(survivors))
    return evaluations


_STRATEGY_FUNCS = {"grid": _search_grid, "random": _search_random,
                   "halving": _search_halving}


def check_search_options(strategy: str, budget: int | None = None,
                         rung_insns: int = DEFAULT_RUNG_INSNS) -> None:
    """Raise ``ValueError`` unless the strategy options are usable.

    The one home of these rules: :func:`run_search`, ``repro search``
    (exit 2) and the service's submit check (HTTP 400) all call it, so
    a bad value gets the same message wherever it is given.
    """
    # service specs are JSON: a list must be refused, not be unhashable
    if not isinstance(strategy, str) or strategy not in _STRATEGY_FUNCS:
        raise ValueError(f"unknown strategy {strategy!r}; expected one "
                         f"of {', '.join(_STRATEGY_FUNCS)}")
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if rung_insns <= 0:
        raise ValueError(f"rung_insns must be > 0, got {rung_insns}")


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


@dataclass
class SearchResult:
    """Everything one search produced."""

    best: Evaluation
    evaluations: list[Evaluation]
    counters: dict
    strategy: str
    objective: str
    space: SearchSpace
    elapsed: float = 0.0
    jobs: int = 1
    seed: int = 0
    budget: int | None = None
    workloads: tuple[str, ...] = ()
    scales: tuple[int, ...] = (1,)
    base: MachineConfig = field(default_factory=default_config)

    @property
    def best_config(self) -> MachineConfig:
        return self.best.candidate.config(self.base)

    def ranked_full(self) -> list[Evaluation]:
        """Full-budget evaluations, best first."""
        return sorted((e for e in self.evaluations if e.full),
                      key=lambda e: e.score, reverse=True)

    def ledger_json(self) -> str:
        """Canonical JSON of the search's *deterministic* content.

        Strips wall-clock, worker count, counters, and ledger-reuse
        provenance; keeps every evaluation (candidate, budget, score,
        per-point numbers) in evaluation order plus the winner.  Two
        searches over the same space with the same seed must produce
        byte-identical ledgers regardless of ``jobs``.
        """
        from ..uarch.config import canonical_json
        return canonical_json({
            "strategy": self.strategy,
            "objective": self.objective,
            "space": self.space.identity(),
            "seed": self.seed,
            "budget": self.budget,
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "best": {"candidate": self.best.candidate.label,
                     "score": self.best.score},
            "evaluations": [
                {"candidate": e.candidate.label,
                 "limit_insns": e.limit_insns,
                 "score": e.score,
                 "points": e.points}
                for e in self.evaluations
            ],
        })

    def to_dict(self) -> dict:
        """JSON-ready report."""
        return {
            "strategy": self.strategy,
            "objective": self.objective,
            "space": self.space.identity(),
            "space_size": self.space.size,
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "seed": self.seed,
            "budget": self.budget,
            "jobs": self.jobs,
            "elapsed_seconds": round(self.elapsed, 3),
            "counters": dict(self.counters),
            "best": self.best.to_dict(),
            "best_config_key": self.best_config.cache_key(),
            "evaluations": [e.to_dict() for e in self.evaluations],
        }


def format_result(result: SearchResult, top: int = 5) -> str:
    """Human-readable search report: ranking plus counters."""
    lines = [f"search: {result.strategy} over "
             f"{result.space.size}-candidate space, "
             f"objective {result.objective}",
             f"workloads: {', '.join(result.workloads)}  "
             f"scales: {', '.join(map(str, result.scales))}",
             f"evaluations: {result.counters['evaluations']} run, "
             f"{result.counters['evaluations_reused']} resumed from "
             f"ledger, {result.counters['simulations']} simulations "
             f"({result.elapsed:.2f} s)",
             ""]
    ranked = result.ranked_full()[:top] if top > 0 else []
    if not ranked:
        lines.append(f"  best: {result.best.candidate.label}  "
                     f"{result.objective} {result.best.score:.4f}")
        return "\n".join(lines)
    width = max(len(e.candidate.label) for e in ranked)
    for rank, evaluation in enumerate(ranked, start=1):
        marker = " <- best" if rank == 1 else ""
        lines.append(f"  {rank}. {evaluation.candidate.label:<{width}}  "
                     f"{result.objective} {evaluation.score:.4f}{marker}")
    return "\n".join(lines)


def resolve_search_workloads(workloads: list[str] | None = None,
                             suite: str | None = None) -> tuple[str, ...]:
    """Canonical workload names for a search (names/abbrevs/suite)."""
    if workloads:
        return tuple(get_workload(n).name for n in workloads)
    if suite:
        return tuple(w.name for w in suite_workloads(suite))
    raise ValueError("search needs --workloads or --suite (searching "
                     "all 22 kernels is rarely intended; pass them "
                     "explicitly if it is)")


def run_search(space: SearchSpace, *, workloads: tuple[str, ...],
               scales: tuple[int, ...] = (1,),
               base: MachineConfig | None = None,
               strategy: str = "random", budget: int | None = None,
               objective="geomean-ipc",
               weights: dict[str, float] | None = None,
               seed: int = 0, rung_insns: int = DEFAULT_RUNG_INSNS,
               jobs: int | None = 1,
               store_dir=None, progress=None,
               backend=None) -> SearchResult:
    """Search *space* for the config maximizing *objective*.

    ``budget`` caps the number of **candidates considered** (grid:
    first N in grid order; random/halving: N seeded samples); ``None``
    considers the whole space.  ``progress``, if given, receives typed
    :class:`~repro.engine.events.PointEvent` /
    :class:`~repro.engine.events.EvaluationEvent` objects as they
    happen.  With
    ``store_dir`` every completed evaluation is ledgered in a search
    manifest, so re-running a killed search resumes where it stopped.
    Without one, a run-scoped scratch store still carries traces and
    stats *across candidates* (one emulation per workload for the
    whole search, not per evaluation) — only the cross-run resume is
    lost.

    ``backend`` selects the execution mechanism for every evaluation
    sweep (``None`` auto-picks from ``jobs``; see
    :func:`repro.engine.backend.resolve_backend`).  The search
    resolves it **once**, so a process pool's warm workers — or a
    fleet of socket workers — persist across every rung and batch.
    """
    check_search_options(strategy, budget, rung_insns)
    if not workloads:
        raise ValueError("search needs at least one workload")
    if isinstance(objective, str):
        objective = make_objective(objective, weights)
    base = base if base is not None else default_config()
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    scratch_dir = None
    if store_dir is None:
        # run-scoped scratch store: candidates share one emulation per
        # workload even without a persistent store
        scratch_dir = tempfile.mkdtemp(prefix="repro-search-")
        store_dir = scratch_dir
    identity = {"space": space.identity(),
                "workloads": list(workloads), "scales": list(scales),
                "base": base.config_dict(),
                "objective": objective.identity()}
    counters = {"evaluations": 0, "evaluations_reused": 0,
                "emulations": 0, "simulations": 0, "stats_cache_hits": 0}
    backend, owned = resolve_backend(backend, jobs=jobs,
                                     store_dir=store_dir)
    try:
        evaluator = _Evaluator(workloads=workloads, scales=scales,
                               base=base, objective=objective, jobs=jobs,
                               store_dir=store_dir, progress=progress,
                               identity=identity, counters=counters,
                               backend=backend)
        rng = random.Random(seed)
        evaluations = _STRATEGY_FUNCS[strategy](space, evaluator, budget,
                                                rng, rung_insns)
    finally:
        if owned:
            backend.close()
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)
    full = [e for e in evaluations if e.full]
    if not full:
        raise RuntimeError("search produced no full-budget evaluations")
    best = max(full, key=lambda e: e.score)
    return SearchResult(best=best, evaluations=evaluations,
                        counters=counters, strategy=strategy,
                        objective=objective.name, space=space,
                        elapsed=time.perf_counter() - started, jobs=jobs,
                        seed=seed, budget=budget, workloads=workloads,
                        scales=scales, base=base)

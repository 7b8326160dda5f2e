"""Experiment runner: a thin in-memory cache over :mod:`repro.engine`.

All experiment modules funnel through :func:`run_workload`.  Lookups
go memory -> artifact store -> compute:

* the **in-memory caches** memoize traces and stats for the life of
  the process (one emulation per workload/scale, one simulation per
  workload/scale/machine configuration), keyed by the configs'
  explicit :meth:`~repro.uarch.config.MachineConfig.cache_key` so
  identity never depends on interpreter-local ``__hash__``;
* the optional **persistent store** (:func:`configure` with a
  directory, or ``repro --store DIR``) makes results survive across
  processes, so re-running a figure after a sweep costs nothing;
* :func:`prewarm` hands a whole grid to the engine's process pool
  (``--jobs N``) and back-fills the in-memory cache, so experiment
  modules keep their simple serial loops but fan the actual work out
  across cores.
"""

from __future__ import annotations

import atexit
import math
import shutil
import tempfile
from dataclasses import dataclass

from ..engine.backend import BACKEND_NAMES, ExecutionBackend
from ..engine.campaign import SweepPoint
from ..engine.pool import resolve_jobs, run_sweep, run_trace_prewarm
from ..engine.segments import SegmentPolicy
from ..engine.store import ArtifactStore
from ..functional.emulator import PackedTrace
from ..uarch.config import MachineConfig
from ..uarch.pipeline import simulate_trace
from ..uarch.stats import PipelineStats
from ..workloads import ALL_WORKLOADS, build_trace, get_workload

_trace_cache: dict[tuple[str, int], PackedTrace] = {}
#: keyed (workload, scale, config cache_key, segment-policy token) —
#: the last element keeps monolithic and each segmented flavour's
#: results distinct (their cycle counts legitimately differ, and a
#: sampled run's are estimates).
_stats_cache: dict[tuple[str, int, str, str], PipelineStats] = {}
_store: ArtifactStore | None = None
_default_jobs: int = 1
_segment_policy: SegmentPolicy | None = None
_scratch_store: ArtifactStore | None = None
_backend: ExecutionBackend | str | None = None


def _policy_token() -> str:
    """The stats-cache key element for the active segment policy."""
    return _segment_policy.token() if _segment_policy is not None else ""


def _fans_out(jobs: int) -> bool:
    """Whether a prewarm would reach more than one execution slot.

    Prewarming only pays off when work actually fans out; otherwise
    the lazy serial path costs less.  With no configured backend (or
    an explicit inline one) that is the classic ``jobs > 1`` test; a
    configured pool fans out by construction, and a live backend
    instance knows its own parallelism.
    """
    if _backend is None or _backend == "inline":
        return jobs > 1
    if isinstance(_backend, str):
        return True
    return _backend.parallelism > 1


def _prewarm_store_dir() -> str:
    """Where parallel prewarms exchange artifacts with their workers.

    The configured store when there is one; otherwise a process-lifetime
    scratch store, so consecutive prewarms (e.g. ``repro --jobs N all``)
    emulate each oracle trace once instead of once per experiment.
    """
    global _scratch_store
    if _store is not None:
        return str(_store.root)
    if _scratch_store is None:
        scratch_dir = tempfile.mkdtemp(prefix="repro-scratch-")
        atexit.register(shutil.rmtree, scratch_dir, ignore_errors=True)
        _scratch_store = ArtifactStore(scratch_dir)
    return str(_scratch_store.root)


def configure(store_dir: str | None = None,
              jobs: int | None = None,
              segment_policy: SegmentPolicy | None = None,
              backend: ExecutionBackend | str | None = None
              ) -> None:
    """Set the process-wide artifact store and default parallelism.

    ``store_dir=None`` leaves the store untouched; ``jobs=None``
    leaves the default job count untouched; ``segment_policy`` turns
    on segmented simulation under a :class:`SegmentPolicy` (fixed /
    adaptive / sampled — see :mod:`repro.engine.segments`).
    ``backend`` pins the execution backend every engine
    call routes through: ``"inline"``/``"pool"`` by name, or a live
    :class:`~repro.engine.backend.ExecutionBackend` instance (the only
    way to attach socket workers — a ``"workers"`` string has no lease
    server behind it).  The CLI calls this once from its global
    ``--store`` / ``--jobs`` / ``--backend`` / segmentation options.
    """
    global _store, _default_jobs, _segment_policy, _backend
    if store_dir is not None:
        _store = ArtifactStore(store_dir)
    if jobs is not None:
        _default_jobs = resolve_jobs(jobs)
    if segment_policy is not None:
        if not isinstance(segment_policy, SegmentPolicy):
            raise TypeError(f"segment_policy must be a SegmentPolicy, "
                            f"got {segment_policy!r}")
        _segment_policy = segment_policy
    if backend is not None:
        if isinstance(backend, str):
            if backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{', '.join(BACKEND_NAMES)}")
            if backend == "workers":
                raise ValueError(
                    "the workers backend needs a live lease server; "
                    "configure() with a SocketWorkerBackend instance "
                    "(the CLI's --backend workers does this)")
        _backend = backend


def active_store() -> ArtifactStore | None:
    """The configured artifact store, if any."""
    return _store


def clear_caches(*, detach_store: bool = False) -> None:
    """Drop all memoized traces and simulation results.

    ``detach_store=True`` additionally forgets the configured store,
    the scratch store, the default job count, the segment policy, and
    the configured backend (the backend is *detached*, not closed —
    whoever constructed it owns its lifetime; the scratch directory
    itself is removed at process exit).
    """
    global _store, _scratch_store, _default_jobs, _segment_policy, \
        _backend
    _trace_cache.clear()
    _stats_cache.clear()
    if detach_store:
        _store = None
        _scratch_store = None
        _default_jobs = 1
        _segment_policy = None
        _backend = None


def get_trace(name: str, scale: int = 1) -> PackedTrace:
    """The oracle trace for a workload (memory -> store -> emulate)."""
    # Canonicalize abbreviations and default-equivalent synth
    # spellings: cache and store keys must name one program one way.
    name = get_workload(name).name
    key = (name, scale)
    trace = _trace_cache.get(key)
    if trace is None and _store is not None:
        trace = _store.load_trace(name, scale)
    if trace is None and _scratch_store is not None:
        trace = _scratch_store.load_trace(name, scale)
    if trace is None:
        trace = build_trace(name, scale).trace
        if _store is not None:
            _store.save_trace(name, scale, trace)
    _trace_cache[key] = trace
    return trace


def run_workload(name: str, config: MachineConfig,
                 scale: int = 1) -> PipelineStats:
    """Simulate one workload on one machine configuration (cached).

    With a configured segment policy the simulation runs segmented
    (per-segment artifacts land in the store, merged stats are
    returned — sampled-mode policies return *estimates*); otherwise
    monolithically.
    """
    name = get_workload(name).name
    key = (name, scale, config.cache_key(), _policy_token())
    stats = _stats_cache.get(key)
    if stats is not None:
        return stats
    if _segment_policy is not None:
        from ..engine.segments import simulate_workload_segmented
        if _store is None:
            _prewarm_store_dir()  # materializes the scratch store
        store = _store if _store is not None else _scratch_store
        stats = simulate_workload_segmented(name, config, scale,
                                            _segment_policy, store=store)
    else:
        if _store is not None:
            stats = _store.load_stats(name, scale, config)
        if stats is None:
            stats = simulate_trace(get_trace(name, scale), config)
            if _store is not None:
                _store.save_stats(name, scale, config, stats)
    _stats_cache[key] = stats
    return stats


def prewarm(names: list[str], configs: list[MachineConfig],
            scale: int = 1, jobs: int | None = None) -> dict | None:
    """Fan a (workload x config) grid out to worker processes.

    Runs every not-yet-cached point through the engine's process pool
    and back-fills the in-memory stats cache, so subsequent
    :func:`run_workload` calls for the grid are pure lookups.  A no-op
    (returns ``None``) when the effective job count is 1 — the lazy
    serial path handles that case with no pool overhead.  Returns the
    sweep counters otherwise.
    """
    jobs = _default_jobs if jobs is None else resolve_jobs(jobs)
    if not _fans_out(jobs):
        return None
    token = _policy_token()
    unique_configs: dict[str, MachineConfig] = {}
    for config in configs:
        unique_configs.setdefault(config.cache_key(), config)
    points = [
        SweepPoint(workload=name, scale=scale, variant=key, config=config)
        for name in dict.fromkeys(names)
        for key, config in unique_configs.items()
        if (name, scale, key, token) not in _stats_cache
    ]
    if not points:
        return None
    result = run_sweep(points, jobs=jobs, store_dir=_prewarm_store_dir(),
                       segment_policy=_segment_policy, backend=_backend)
    for point_result in result.results:
        point = point_result.point
        _stats_cache[(point.workload, point.scale, point.variant,
                      token)] = point_result.stats
    return result.counters


def prewarm_traces(names: list[str], scale: int = 1,
                   jobs: int | None = None) -> dict | None:
    """Emulate missing oracle traces in parallel into a store.

    Workers hand traces back through the configured store (or the
    process-lifetime scratch store), where :func:`get_trace` picks
    them up as unpickles instead of emulations.  A no-op with one job.
    """
    jobs = _default_jobs if jobs is None else resolve_jobs(jobs)
    if not _fans_out(jobs):
        return None
    pairs = [(name, scale) for name in dict.fromkeys(names)
             if (name, scale) not in _trace_cache]
    if not pairs:
        return None
    return run_trace_prewarm(pairs, jobs=jobs,
                             store_dir=_prewarm_store_dir(),
                             backend=_backend)


def speedup(name: str, baseline: MachineConfig, variant: MachineConfig,
            scale: int = 1) -> float:
    """Cycle-count speedup of *variant* over *baseline* for a workload.

    Degenerate zero-cycle runs (an empty program retires nothing, so
    both machines take zero cycles) count as speedup 1.0 instead of
    dividing by zero; adversarial synthetic programs surface exactly
    this case.
    """
    base = run_workload(name, baseline, scale)
    opt = run_workload(name, variant, scale)
    if opt.cycles == 0:
        return 1.0 if base.cycles == 0 else math.inf
    return base.cycles / opt.cycles


def geomean(values: list[float], floor: float | None = None) -> float:
    """Geometric mean (the conventional speedup aggregate).

    Raises a descriptive :class:`ValueError` for the two inputs the
    formula cannot handle (instead of a bare ``ZeroDivisionError`` /
    "math domain error"): an empty list and non-positive values.

    ``floor`` opts into clamping instead of raising: every value below
    it (including zero-IPC degenerate points from adversarial
    synthetic workloads) is replaced by ``floor``, so one empty
    program drags an aggregate toward the floor without poisoning it
    into an exception or a hard zero.
    """
    if not values:
        raise ValueError("geomean() requires at least one value")
    if floor is not None:
        if floor <= 0:
            raise ValueError(f"geomean() floor must be > 0, got {floor}")
        values = [max(v, floor) for v in values]
    bad = [v for v in values if v <= 0]
    if bad:
        raise ValueError(f"geomean() requires strictly positive values; "
                         f"got {bad}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def suite_lists(workloads_per_suite: int | None = None) -> dict[str, list]:
    """Per-suite workload lists honouring the ``--per-suite`` bound.

    The shared prelude of every per-suite figure: all suites' workload
    objects, each list optionally truncated to the first N entries.
    """
    from ..workloads import SUITES, suite_workloads
    lists = {suite: suite_workloads(suite) for suite in SUITES}
    if workloads_per_suite is not None:
        lists = {suite: wl[:workloads_per_suite]
                 for suite, wl in lists.items()}
    return lists


def prewarm_suites(configs: list[MachineConfig], scale: int = 1,
                   jobs: int | None = None,
                   workloads_per_suite: int | None = None
                   ) -> dict[str, list]:
    """Prewarm a per-suite figure's whole grid; returns its suite lists.

    The common opening move of every sensitivity figure: fan the
    (suite workloads x configs) grid out to workers, then iterate the
    returned lists serially against the warm cache.
    """
    lists = suite_lists(workloads_per_suite)
    prewarm([w.name for wl in lists.values() for w in wl],
            configs, scale, jobs)
    return lists


def workload_names(suite: str | None = None,
                   subset: list[str] | None = None) -> list[str]:
    """Workload names, optionally filtered to a suite or explicit subset."""
    if subset is not None:
        return [get_workload(n).name for n in subset]
    names = [w.name for w in ALL_WORKLOADS]
    if suite is not None:
        names = [w.name for w in ALL_WORKLOADS if w.suite == suite]
    return names


@dataclass(frozen=True)
class SuiteAverages:
    """Per-suite aggregate of one metric across its workloads."""

    suite: str
    workloads: tuple[str, ...]
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def geomean(self) -> float:
        return geomean(list(self.values))

"""Per-layer tracing, installed from outside the ``repro`` package.

The traced run replaces each layer's public entry points with wrappers
that record a span per call: name, start, end, parent span and a
request id (the grid point, program or job the call serves).  Spans
stay in memory and are written out when the run ends.  Per-instruction
hooks (the optimizing renamer's callbacks and retire-time
``ArchState.apply_di``) are too frequent for spans, so they are
aggregated as a call count and a total time per hook family.

A span's *self* time is its duration minus the time its child spans
and aggregated hooks took.  Self times are summed per layer; their sum
over one thread's root spans is that thread's traced wall time, so
whatever no root span covers is reported as ``trace.unaccounted_s``.

Nothing here edits the package: :meth:`Tracer.install` swaps module
and class attributes after import and :meth:`Tracer.uninstall` puts
the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

#: OptimizingRenamer callbacks the pipeline drives per bundle or per
#: instruction.  ``on_retire`` is inherited from the baseline renamer;
#: wrapping it on the subclass leaves the baseline's untouched.
RENAMER_HOOKS = ("begin_bundle", "rename", "on_complete", "on_retire",
                 "on_store_executed", "relieve_pressure")


class Span:
    """One call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "request", "child_s",
                 "children")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._hook_tables: list[dict] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Additive per-layer counters (pipelines, retired insns, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: id(job spec dict) -> job id, so a job body's spans carry it.
        self.job_of_spec: dict[int, str] = {}
        #: job id -> perf_counter when JobManager.submit returned.
        self.submitted: dict[str, float] = {}
        #: job id -> (start, end) of the job body on its executor thread.
        self.bodies: dict[str, tuple[float, float]] = {}

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span()
        span.name = name
        span.parent = parent
        if request is None and parent is not None:
            request = parent.request
        span.request = request
        span.child_s = 0.0
        span.children = 0
        stack.append(span)
        span.start = _clock()
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent.child_s += span.end - span.start
            parent.children += 1
        self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               request: str | None) -> None:
        """A finished root span timed elsewhere (the client process)."""
        span = Span()
        span.name, span.start, span.end = name, start, end
        span.parent, span.request = None, request
        span.child_s, span.children = 0.0, 0
        self.spans.append(span)

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _hooks(self) -> dict:
        table = getattr(self._local, "hooks", None)
        if table is None:
            table = self._local.hooks = {}
            with self._lock:
                self._hook_tables.append(table)
        return table

    def hook_totals(self) -> dict[str, tuple[int, float]]:
        """``{hook family: (calls, seconds)}`` over every thread."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for table in self._hook_tables:
            for name, (calls, seconds) in table.items():
                totals[name][0] += calls
                totals[name][1] += seconds
        return {name: (calls, seconds)
                for name, (calls, seconds) in totals.items()}

    # -- wrappers ------------------------------------------------------

    def spanned(self, fn, name: str, on_exit=None, request_of=None):
        """*fn* wrapped in a span; ``on_exit(span, args, result)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = request_of(args) if request_of is not None else None
            span = tracer.begin(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return result
        return wrapper

    def hooked(self, fn, family: str):
        """*fn* counted and timed into *family*, charged to the caller."""
        local = self._local
        hooks = self._hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                table = getattr(local, "hooks", None)
                if table is None:
                    table = hooks()
                entry = table.get(family)
                if entry is None:
                    entry = table[family] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                stack = getattr(local, "stack", None)
                if stack:
                    stack[-1].child_s += elapsed
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, make) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for name, other in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(other, attr, None) is original:
                self._patch(other, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        from repro.core.optimizer import OptimizingRenamer
        from repro.engine import (backend, differential, pool, segments,
                                  service)
        from repro.engine.store import ArtifactStore
        from repro.experiments import runner
        from repro.functional.emulator import ArchState, Emulator
        from repro.uarch import pipeline

        # experiments.runner: a call that touched no other layer was a
        # hit in the runner's in-memory cache
        def runner_exit(span, args, result):
            self.add("runner.calls")
            self.add("runner.hits", span.children == 0)
        self._patch_function(runner, "run_workload", lambda fn: self.spanned(
            fn, "experiments.runner", runner_exit))
        self._patch_function(runner, "get_trace", lambda fn: self.spanned(
            fn, "experiments.runner"))

        # functional
        def emulate_exit(span, args, trace):
            self.add("emulated_insns", len(trace))
        self._patch(Emulator, "run_packed", self.spanned(
            Emulator.run_packed, "functional.emulate", emulate_exit))
        self._patch(ArchState, "apply_di", self.hooked(
            ArchState.apply_di, "functional.arch_replay"))

        # uarch: construction (renamer + register file + machine) and
        # simulation.  Pipeline.run's whole time counts as
        # core.sim_opt_s under the optimizing renamer and as
        # uarch.sim_base_s otherwise; its self time is uarch's
        def init_exit(span, args, result):
            self.add("pipelines")
        self._patch_function(pipeline, "make_pipeline",
                             lambda fn: self.spanned(fn,
                                                     "uarch.pipeline_init"))
        self._patch(pipeline.Pipeline, "__init__", self.spanned(
            pipeline.Pipeline.__init__, "uarch.pipeline_init", init_exit))

        def run_exit(span, args, stats):
            kind = ("opt" if isinstance(args[0].renamer, OptimizingRenamer)
                    else "base")
            self.add(f"sim_{kind}_s", span.duration)
            self.add(f"sim_{kind}_insns", stats.retired)
            self.add("sim_cycles", stats.cycles)
            self.add("early_executed", stats.early_executed)
            self.add("loads_removed", stats.loads_removed)
        self._patch(pipeline.Pipeline, "run", self.spanned(
            pipeline.Pipeline.run, "uarch.pipeline_run", run_exit))

        # core: the optimizer's rename-stage callbacks
        for hook in RENAMER_HOOKS:
            self._patch(OptimizingRenamer, hook, self.hooked(
                getattr(OptimizingRenamer, hook), "core.renamer"))

        # engine.store: every artifact load and save
        def load_exit(span, args, result):
            self.add("store.loads")
            self.add("store.hits", result is not None)

        for attr in sorted(vars(ArtifactStore)):
            if attr.startswith("load_"):
                original = getattr(ArtifactStore, attr)
                if attr in ("load_trace", "load_segment_trace"):
                    self._patch(ArtifactStore, attr,
                                self._trace_loader(original, load_exit))
                else:
                    self._patch(ArtifactStore, attr, self.spanned(
                        original, "engine.store.load", load_exit))
            elif attr.startswith("save_"):
                self._patch(ArtifactStore, attr, self.spanned(
                    getattr(ArtifactStore, attr), "engine.store.save",
                    lambda span, args, result: self.add("store.saves")))

        # engine.pool / engine.segments planners
        def segments_exit(span, args, result):
            counters = getattr(result, "counters", None) or {}
            self.add("segments", counters.get("segments", 0))
            self.add("segments_detailed",
                     counters.get("segments_detailed", 0))
        self._patch_function(pool, "run_sweep", lambda fn: self.spanned(
            fn, "engine.pool"))
        self._patch_function(segments, "run_segmented_sweep",
                             lambda fn: self.spanned(fn, "engine.segments",
                                                     segments_exit))
        self._patch_function(segments, "simulate_workload_segmented",
                             lambda fn: self.spanned(fn, "engine.segments"))

        # engine.backend: inline submission around unit execution
        self._patch(backend._InlineGroup, "submit", self.spanned(
            backend._InlineGroup.submit, "engine.backend.submit"))
        self._patch_function(backend, "execute_unit", lambda fn: self.spanned(
            fn, "engine.backend.execute",
            lambda span, args, result: self.add("units")))

        # engine.differential
        self._patch_function(differential, "check_workload",
                             lambda fn: self.spanned(fn,
                                                     "engine.differential"))

        # engine.service: submission on the event loop, job bodies on
        # executor threads (tagged with their job id)
        submit = service.JobManager.submit
        tracer = self

        @functools.wraps(submit)
        async def traced_submit(manager, spec, *args, **kwargs):
            span = tracer.begin("engine.service.submit")
            try:
                job = await submit(manager, spec, *args, **kwargs)
            finally:
                tracer.end(span)
            span.request = job.id
            tracer.job_of_spec[id(job.spec)] = job.id
            tracer.submitted[job.id] = span.end
            return job
        self._patch(service.JobManager, "submit", traced_submit)

        def body_exit(span, args, result):
            self.bodies[span.request] = (span.start, span.end)
        for kind, body in list(service._JOB_BODIES.items()):
            wrapped = self.spanned(
                body, "engine.service.job", body_exit,
                request_of=lambda args: self.job_of_spec.get(id(args[0])))
            self._patches.append((service._JOB_BODIES, kind, body, True))
            service._JOB_BODIES[kind] = wrapped

    def _trace_loader(self, original, load_exit):
        """A trace-artifact load, also timing its bytes for MB/s."""
        from metrics import store_bytes
        inner = self.spanned(original, "engine.store.load", load_exit)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = store_bytes()[0]
            started = _clock()
            result = inner(*args, **kwargs)
            if result is not None:
                self.add("store.trace_load_s", _clock() - started)
                self.add("store.trace_bytes", store_bytes()[0] - before)
            return result
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, hooks included."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        for family, (_, seconds) in self.hook_totals().items():
            totals[family] += seconds
        return dict(totals)

    def root_seconds(self) -> float:
        """Wall time covered by root spans (single-threaded runs)."""
        return sum(span.duration for span in self.spans
                   if span.parent is None)

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line of hook aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": (ids.get(id(span.parent))
                               if span.parent is not None else None),
                    "request": span.request}) + "\n")
            out.write(json.dumps({"hooks": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds)
                in self.hook_totals().items()}}) + "\n")

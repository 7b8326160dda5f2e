"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``                 list the 22 workloads with suites
``run <workload>``       baseline-vs-optimized comparison for one kernel
``table1`` / ``table3``  regenerate the paper's tables
``fig6`` / ``fig8`` / ``fig9`` / ``fig10`` / ``fig11`` / ``fig12``
                         regenerate the paper's figures
``all``                  everything above, in order
``sweep``                run an arbitrary design-space grid (JSON out)
``search``               design-space search: find the best config in
                         a dimension space (grid/random/halving)
``autotune``             recover Figure 10's best config via search
``fuzz``                 differential-check seeded synthetic programs
                         (emulator vs pipeline, optimizer on/off,
                         segmented vs monolithic)
``serve``                async streaming results service: run sweeps,
                         searches, segmented sweeps, and fuzz
                         campaigns as named concurrent jobs over one
                         shared store (JSON-lines event streams over
                         HTTP)
``watch``                tail one job's event stream from a running
                         ``repro serve`` (reconnects with backoff on
                         transient drops, resuming from the last-seen
                         event)
``worker``               connect to a lease server (``repro serve
                         --workers-port`` or ``repro --backend
                         workers``) and execute work units against a
                         local store replica
``metrics``              fetch and render a running service's
                         telemetry snapshot (``GET /metrics``)
``store gc`` / ``store info``
                         maintain the artifact store (LRU size cap)

Global options: ``--jobs N`` fans simulation out across N worker
processes (0 = all cores); ``--store DIR`` persists oracle traces and
stats in a content-addressed artifact store so re-runs are near-free;
``--segment-insns N`` / ``--segment-mode`` / ``--sample-period`` /
``--warmup-insns`` select a segmented-simulation policy — fixed-size
segments that parallelize *within* a workload, adaptive sizing from
the workload length, or sampled simulation with extrapolated stats
and error bounds (see README "Segmented simulation" for the
semantics); ``--store-max-bytes N`` enforces an
LRU size cap on the store after each sweep.  ``--backend
inline|pool|workers`` pins the execution backend every simulation
routes through (default: inline when serial, a process pool when
``--jobs`` fans out); ``--backend workers`` opens a lease server
(``--workers-port``, default ephemeral) that ``repro worker
--connect host:port`` processes execute for — see README
"Distributed execution".  Sensitivity figures
accept ``--per-suite N`` to bound runtime (default: all workloads; the
benchmark harness uses 2).  ``--scale N`` grows the dynamic
instruction counts of every kernel.  ``--profile`` prints a per-stage
wall-time tree (from the telemetry registry) on stderr after any
command; ``REPRO_TELEMETRY=0`` in the environment disables telemetry
collection entirely.

``sweep`` examples::

    repro --jobs 4 --store .repro-store sweep --suite SPECint \\
        --axis optimizer.vf_delay=0,1,5,10 --optimized --baseline
    repro sweep --workloads mcf,gzip --axis sched_entries=8,16,32
    repro --jobs 0 --store .repro-store --segment-insns 100000 \\
        sweep --workloads mcf --scales 64
    repro --store .repro-store store gc --max-bytes 500000000

``search`` examples::

    repro --jobs 4 --store .repro-store search --workloads mcf,gcc \\
        --dim optimizer.enabled=false,true --dim sched_entries=8..32:8 \\
        --strategy halving --budget 8
    repro search --suite mediabench --dim optimizer.add_depth=0..3 \\
        --strategy random --budget 4 --seed 7 --objective weighted-ipc \\
        --weight untoast=4

``fuzz`` examples::

    repro fuzz --seeds 0:50
    repro fuzz --budget-small --seeds 0:4 --families mixed,branchy

``serve`` / ``watch`` examples::

    repro --store .repro-store --jobs 4 serve --port 8787
    curl -X POST http://127.0.0.1:8787/jobs -d \\
        '{"kind": "sweep", "workloads": ["mcf"], \\
          "axes": ["optimizer.enabled=false,true"]}'
    repro watch j1 --url http://127.0.0.1:8787
    curl http://127.0.0.1:8787/metrics        # Prometheus text
    repro metrics --url http://127.0.0.1:8787 # human rendering

``worker`` examples (distributed execution)::

    repro --store .repro-store serve --workers-port 9900 --resume
    repro worker --connect 127.0.0.1:9900     # as many as you like
    repro --backend workers --workers-port 9900 sweep --suite SPECint \\
        --axis optimizer.enabled=false,true   # serve-less lease server

Synthetic workloads (``synth:<family>@seed=N[,param=V,...]``) are
first-class workload names everywhere a paper kernel is accepted::

    repro sweep --suite synth --axis optimizer.enabled=false,true
    repro run synth:ptrchase@seed=3
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import quick_compare
from .engine import jobs
from .engine.backend import BACKEND_NAMES
from .engine.differential import format_report
from .engine.events import format_event
from .engine.search import (DEFAULT_RUNG_INSNS, OBJECTIVES,
                            check_search_options, format_result)
from .engine.segments import SEGMENT_MODES, SegmentPolicy
from .engine.store import ArtifactStore
from .experiments import (autotune, depth, feedback, latency,
                          machine_models, runner, speedup, table1, table3,
                          vf_delay)
from .workloads import ALL_WORKLOADS, get_workload, synth

_FIGURES = {
    "fig8": machine_models,
    "fig9": feedback,
    "fig10": depth,
    "fig11": latency,
    "fig12": vf_delay,
}


def _cmd_list(_args) -> int:
    for workload in ALL_WORKLOADS:
        print(f"{workload.suite:11s}  {workload.name:13s} "
              f"({workload.abbrev})  {workload.description}")
    for name in synth.DEFAULT_ROSTER:
        workload = get_workload(name)
        print(f"{workload.suite:11s}  {workload.name:26s} "
              f"{workload.description}")
    return 0


def _cmd_run(args) -> int:
    result = quick_compare(args.workload, scale=args.scale)
    base = result["baseline"]
    opt = result["optimized"]
    print(f"workload : {result['workload']}")
    print(f"baseline : {base.cycles} cycles (IPC {base.ipc:.3f})")
    print(f"optimized: {opt.cycles} cycles (IPC {opt.ipc:.3f})")
    print(f"speedup  : {result['speedup']:.3f}")
    print(f"early    : {result['early_executed_pct']:.1f}%   "
          f"recovered: {result['mispredicts_recovered_pct']:.1f}%   "
          f"addr-gen: {result['addr_generated_pct']:.1f}%   "
          f"lds-removed: {result['loads_removed_pct']:.1f}%")
    return 0


def _cmd_table(module):
    def run(args) -> int:
        rows = module.run(scale=args.scale, jobs=args.jobs)
        print(module.format(rows))
        return 0
    return run


def _cmd_figure(module):
    def run(args) -> int:
        rows = module.run(scale=args.scale,
                          workloads_per_suite=args.per_suite,
                          jobs=args.jobs)
        print(module.format(rows))
        return 0
    return run


def _cmd_fig6(args) -> int:
    rows = speedup.run(scale=args.scale, jobs=args.jobs)
    print(speedup.format(rows))
    return 0


def _cmd_all(args) -> int:
    for handler in (_cmd_table(table1), _cmd_table(table3), _cmd_fig6,
                    *(_cmd_figure(mod) for mod in _FIGURES.values())):
        handler(args)
        print()
    return 0


def _check_store_cap(args) -> None:
    """Enforce ``--store-max-bytes`` on the store after a sweep."""
    if args.store is None or args.store_max_bytes is None:
        return
    report = ArtifactStore(args.store).gc(args.store_max_bytes)
    if report["evicted"]:
        print(f"store over {args.store_max_bytes} bytes; evicted "
              f"{report['evicted']} LRU artifacts "
              f"({report['freed_bytes']} bytes freed, "
              f"{report['remaining_bytes']} remaining)", file=sys.stderr)


def _usage_error(command: str, error: Exception) -> int:
    """Report a bad-arguments failure the way argparse does (exit 2)."""
    print(f"repro {command}: error: {error}", file=sys.stderr)
    return 2


#: The global segmentation options of commands that build no policy:
#: search and autotune simulate whole traces, fuzz takes --segment-insns
#: as its spec's segment size, and serve (each job carries its own
#: policy), list, store, watch, worker and metrics simulate nothing
#: themselves.  Others are refused, not ignored.
_SEGMENT_FLAGS_TAKEN = {"search": (), "autotune": (),
                        "fuzz": ("--segment-insns",),
                        "serve": (), "list": (), "store": (), "watch": (),
                        "worker": (), "metrics": ()}


def _build_segment_policy(args) -> SegmentPolicy | None:
    """The global segmentation options as one validated policy.

    Returns ``None`` when no segmentation flag was given (monolithic
    simulation).  Bad combinations — adaptive with a size, sampled
    without one, a sample period outside sampled mode — surface here,
    at parse time, as the :class:`SegmentPolicy` validation errors.
    """
    given = [flag for flag, value in (
        ("--segment-insns", args.segment_insns),
        ("--segment-mode", args.segment_mode),
        ("--sample-period", args.sample_period),
        ("--warmup-insns", args.warmup_insns)) if value is not None]
    taken = _SEGMENT_FLAGS_TAKEN.get(args.command)
    if taken is not None:
        refused = [flag for flag in given if flag not in taken]
        if refused:
            raise ValueError(f"{args.command} does not take "
                             f"{', '.join(refused)}")
        return None
    if not given:
        return None
    mode = args.segment_mode
    if mode is None:
        if args.segment_insns is None:
            raise ValueError("--sample-period/--warmup-insns need "
                             "--segment-mode sampled")
        mode = "fixed"  # bare --segment-insns keeps its old meaning
    return SegmentPolicy(mode=mode, segment_insns=args.segment_insns,
                         sample_period=args.sample_period,
                         warmup_insns=args.warmup_insns or 0)


def _parse_scales(args) -> list[int]:
    """The --scales list, falling back to the global --scale option."""
    if args.scales is None:
        return [args.scale]
    try:
        return [int(s) for s in args.scales.split(",")]
    except ValueError:
        raise ValueError(f"bad --scales {args.scales!r}; expected "
                         f"comma-separated integers") from None


def _print_event(event) -> None:
    print(format_event(event), file=sys.stderr)


def _run_job(args, kind: str, spec: dict, progress) -> tuple:
    """Run a normalized spec on the service's run path, with --store,
    --jobs and --backend."""
    return jobs.run(kind, spec, store_dir=args.store, jobs=args.jobs,
                    progress=None if args.quiet else progress,
                    backend=args.run_backend)


def _cmd_sweep(args) -> int:
    kind = "sweep" if args.segment_policy is None else "segments"
    try:
        spec = {"workloads": args.workloads, "suite": args.suite,
                "scales": _parse_scales(args), "axes": args.axis,
                "optimized": args.optimized, "baseline": args.baseline}
        if args.segment_policy is not None:
            spec["policy"] = args.segment_policy.to_manifest()
        spec = jobs.normalize(kind, spec)
    except ValueError as error:
        # bad --axis syntax, unknown config path, wrong value type,
        # unknown workload: the service's 400 message, not a traceback
        return _usage_error("sweep", error)
    result, summary = _run_job(args, kind, spec, _print_event)
    _check_store_cap(args)
    report = result.to_dict()
    report["campaign"] = {
        "workloads": spec["workloads"],
        "scales": spec["scales"],
        # grid order is workload-major, so these are the variants' order
        "variants": list(dict.fromkeys(r.point.variant
                                       for r in result.results)),
    }
    report["ledger_sha256"] = summary["ledger_sha256"]
    text = json.dumps(report, indent=2 if args.pretty else None,
                      sort_keys=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(result.results)} points to {args.out}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def _parse_weights(specs: list[str] | None) -> dict[str, float]:
    """``--weight WORKLOAD=W`` flags as a spec's weights object."""
    weights = {}
    for spec in specs or []:
        # rpartition: synth workload names legitimately contain '='
        # (synth:ilp@seed=0=2.5 weights synth:ilp@seed=0 at 2.5)
        name, sep, value = spec.rpartition("=")
        if not sep or not name or not value:
            raise ValueError(f"bad weight {spec!r}; expected "
                             f"'workload=value'")
        weights[name.strip()] = float(value)
    return weights


def _search_progress(event) -> None:
    """Stream search progress to stderr, one line per evaluation."""
    if event.kind == "evaluation":
        print(format_event(event), file=sys.stderr)


def _cmd_search(args) -> int:
    try:
        # all argument validation happens here; a failure inside the
        # search itself must surface as a traceback, not be disguised
        # as a usage error
        spec = jobs.normalize("search", {
            "workloads": args.workloads, "suite": args.suite,
            "scales": _parse_scales(args), "dims": args.dim,
            "strategy": args.strategy, "budget": args.budget,
            "objective": args.objective,
            "weights": _parse_weights(args.weight), "seed": args.seed,
            "rung_insns": args.rung_insns, "optimized": args.optimized})
    except ValueError as error:
        return _usage_error("search", error)
    result, summary = _run_job(args, "search", spec, _search_progress)
    _check_store_cap(args)
    report = json.dumps({**result.to_dict(),
                         "ledger_sha256": summary["ledger_sha256"]},
                        indent=2 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"wrote {len(result.evaluations)} evaluations to "
              f"{args.out}", file=sys.stderr)
    if args.json:
        print(report)
    else:
        print(format_result(result, top=args.top))
    return 0


def _cmd_autotune(args) -> int:
    per_suite = 2 if args.per_suite is None else args.per_suite
    try:
        check_search_options(args.strategy)
        if per_suite <= 0:
            raise ValueError(f"--per-suite must be > 0, got {per_suite}")
    except ValueError as error:
        return _usage_error("autotune", error)
    report = autotune.run(scale=args.scale,
                          workloads_per_suite=per_suite,
                          jobs=args.jobs, strategy=args.strategy,
                          seed=args.seed, store_dir=args.store,
                          progress=None if args.quiet
                          else _search_progress)
    print(autotune.format(report))
    return 0 if report.matches_paper else 1


def _parse_seed_range(text: str) -> list[int]:
    """``--seeds LO:HI`` (a bare N means 0:N) as a spec's seeds pair."""
    lo_text, sep, hi_text = text.partition(":")
    try:
        return [int(lo_text), int(hi_text)] if sep else [0, int(lo_text)]
    except ValueError:
        raise ValueError(f"bad --seeds {text!r}; expected 'LO:HI' "
                         f"(half-open) or a bare count") from None


def _cmd_fuzz(args) -> int:
    try:
        spec = jobs.normalize("fuzz", {
            "seeds": _parse_seed_range(args.seeds),
            "families": [f.strip() for f in args.families.split(",")]
            if args.families else None,
            "scale": args.scale, "small": args.budget_small,
            "segment_insns": args.segment_insns})
    except ValueError as error:
        return _usage_error("fuzz", error)
    fuzz, _ = _run_job(args, "fuzz", spec, _print_event)
    if args.json:
        print(json.dumps(fuzz.to_dict(),
                         indent=2 if args.pretty else None))
    else:
        print(format_report(fuzz))
    return 0 if fuzz.ok else 1


def _require_store(args) -> ArtifactStore:
    if args.store is None:
        raise SystemExit("store commands need the global --store DIR "
                         "option (e.g. repro --store .repro-store "
                         "store gc --max-bytes 1000000)")
    return ArtifactStore(args.store)


def _cmd_store_gc(args) -> int:
    store = _require_store(args)
    report = store.gc(args.max_bytes)
    print(json.dumps(report))
    return 0


def _cmd_store_info(args) -> int:
    store = _require_store(args)
    print(json.dumps({"root": str(store.root),
                      "total_bytes": store.total_bytes(),
                      "artifacts": store.artifact_count(),
                      "orphaned": store.orphan_info()}))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .engine.service import (TenantLimits, parse_auth_tokens,
                                 run_service)

    def announce(host: str, port: int, store_dir: str) -> None:
        # announced on stdout (and flushed) so scripts — CI's service
        # smoke job — can parse the ephemeral port
        print(f"serving on http://{host}:{port} (store: {store_dir})",
              flush=True)

    # --auth-token flags and the REPRO_AUTH_TOKENS env var (comma
    # separated) merge: the env var suits process managers that keep
    # secrets out of argv, the flag suits tests and one-offs
    specs = list(args.auth_token or [])
    specs += os.environ.get("REPRO_AUTH_TOKENS", "").split(",")
    try:
        auth_tokens = parse_auth_tokens(specs)
        tenant_limits = TenantLimits(
            max_active_jobs=args.tenant_max_jobs,
            rate_per_second=args.tenant_rate,
            burst=args.tenant_burst,
            max_store_bytes=args.tenant_store_bytes)
        backend = args.backend
        if backend == "workers":
            if args.workers_port is None:
                raise ValueError(
                    "--backend workers needs --workers-port to open "
                    "the lease server")
            backend = None  # --workers-port constructs the backend
        if args.resume and args.store is None:
            raise ValueError("--resume re-queues jobs from the store "
                             "journal; it needs the global --store DIR")
    except ValueError as error:
        return _usage_error("serve", error)
    try:
        return asyncio.run(run_service(
            store_dir=args.store, jobs=args.jobs,
            max_concurrent_jobs=args.max_jobs, host=args.host,
            port=args.port, announce=announce,
            auth_tokens=auth_tokens, tenant_limits=tenant_limits,
            backend=backend, workers_port=args.workers_port,
            resume=args.resume))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        return 0
    except (OSError, ValueError) as error:
        # a busy port, unbindable --host, or bad --max-jobs deserves
        # the same one-line treatment every other bad CLI input gets
        return _usage_error("serve", error)


def _cmd_watch(args) -> int:
    from .engine.service import watch_job

    def on_event(event) -> None:
        if args.json:
            print(event.to_json_line(), flush=True)
        else:
            print(format_event(event), flush=True)

    def on_reconnect(attempt: int, error: Exception) -> None:
        print(f"repro watch: connection lost ({error}); reconnecting "
              f"(attempt {attempt}/{args.retries})", file=sys.stderr,
              flush=True)

    try:
        last = watch_job(args.url, args.job, on_event,
                         timeout=args.timeout, token=args.token,
                         retries=args.retries,
                         on_reconnect=on_reconnect)
    except ValueError as error:
        # ServiceError (bad job id, HTTP errors) subclasses
        # ValueError; a bare ValueError is an unknown event kind from
        # a newer server — either way, a clean exit beats a traceback
        print(f"repro watch: error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as error:
        print(f"repro watch: cannot reach {args.url}: {error}",
              file=sys.stderr)
        return 2
    if last is not None and last.kind in ("job-finished", "job-failed"):
        print(_watch_summary(args.job, last), file=sys.stderr)
        return 0 if last.kind == "job-finished" else 1
    # the stream ended without a terminal event: a severed connection
    # or server restart, not a job verdict — report a client error
    print(f"repro watch: stream for {args.job} ended without a "
          f"terminal event", file=sys.stderr)
    return 2


def _watch_summary(job_id: str, last) -> str:
    """One-line job verdict printed after the stream ends.

    On stderr so ``--json`` consumers piping stdout still get pure
    JSON lines.  Wall time and instruction counts come from the
    terminal event's result when the job body reports them (search
    jobs report no retired-instruction total).
    """
    if last.kind == "job-failed":
        state = ("cancelled" if getattr(last, "cancelled", False)
                 else "failed")
        return f"job {job_id} {state}: {last.error}"
    result = last.result or {}
    parts = [f"job {job_id} finished"]
    if result.get("elapsed_seconds") is not None:
        parts.append(f"{result['elapsed_seconds']}s wall")
    if result.get("retired_insns") is not None:
        parts.append(f"{result['retired_insns']} insns simulated")
    if result.get("estimated"):
        # a sampled-mode job's numbers are extrapolations; the verdict
        # line must say so, with the worst per-point 95% CI
        error = result.get("max_relative_error", 0.0)
        parts.append(f"estimated (sampled, ±{error * 100:.2f}%)")
    return ": ".join([parts[0], ", ".join(parts[1:])]) if parts[1:] \
        else parts[0]


def _cmd_worker(args) -> int:
    from .engine.backend import run_worker

    def announce(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    try:
        run_worker(args.connect, store_dir=args.replica,
                   name=args.name, max_units=args.max_units,
                   announce=None if args.quiet else announce)
    except ValueError as error:
        # a malformed --connect spec, before any socket is opened
        return _usage_error("worker", error)
    except KeyboardInterrupt:
        print("repro worker: interrupted", file=sys.stderr)
        return 0
    except (ConnectionError, OSError) as error:
        print(f"repro worker: cannot serve {args.connect}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args) -> int:
    from .engine.service import request_json
    from .engine.telemetry import format_snapshot
    try:
        snapshot = request_json(args.url, "GET", "/metrics?format=json",
                                timeout=args.timeout, token=args.token)
    except ValueError as error:
        # ServiceError subclasses ValueError (bad URL, HTTP errors)
        print(f"repro metrics: error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as error:
        print(f"repro metrics: cannot reach {args.url}: {error}",
              file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(snapshot, indent=2 if args.pretty else None))
        else:
            print(format_snapshot(snapshot))
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error, but
        # point stdout at devnull so the interpreter's exit-time
        # flush doesn't raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _add_grid_flags(parser, workloads_note: str) -> None:
    """The flags sweep and search share: their grid's spec keys, then
    --pretty and --quiet."""
    parser.add_argument("--workloads", default=None,
                        help=f"comma-separated names/abbreviations "
                             f"{workloads_note}; use ';' as the separator "
                             f"when listing parameterized synth names "
                             f"that contain commas")
    parser.add_argument("--suite", default=None,
                        help="one whole suite (SPECint/SPECfp/mediabench/"
                             "synth)")
    parser.add_argument("--scales", default=None,
                        help="comma-separated scale factors (default: "
                             "the global --scale value)")
    parser.add_argument("--optimized", action="store_true",
                        help="enable the continuous optimizer on the "
                             "base config")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Continuous Optimization' (ISCA 2005)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--per-suite", type=int, default=None,
                        help="limit sensitivity figures to N workloads "
                             "per suite")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation "
                             "(0 = all cores, default 1)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent artifact store directory "
                             "(traces + stats survive across runs)")
    parser.add_argument("--backend", default=None,
                        choices=list(BACKEND_NAMES),
                        help="execution backend for every simulation: "
                             "inline (in-process, serial), pool "
                             "(process pool sized by --jobs), or "
                             "workers (open a lease server — see "
                             "--workers-port — that `repro worker "
                             "--connect` processes execute for); "
                             "default: inline when serial, pool when "
                             "--jobs fans out")
    parser.add_argument("--workers-port", type=int, default=None,
                        metavar="PORT",
                        help="with --backend workers (or serve): TCP "
                             "port for the work-unit lease server "
                             "(0 or unset = ephemeral; the bound port "
                             "is announced on stderr)")
    parser.add_argument("--segment-insns", type=int, default=None,
                        metavar="N",
                        help="split every trace into N-instruction "
                             "segments simulated independently and "
                             "merged (parallelizes within a workload; "
                             "cycle counts carry per-segment cold-start "
                             "+ drain overhead); alone it means "
                             "--segment-mode fixed")
    parser.add_argument("--segment-mode", default=None,
                        choices=list(SEGMENT_MODES),
                        help="segmentation policy: fixed "
                             "(--segment-insns sized), adaptive "
                             "(size chosen from workload length and "
                             "--jobs; no --segment-insns), or sampled "
                             "(simulate every --sample-period'th "
                             "segment and extrapolate with error "
                             "bounds)")
    parser.add_argument("--sample-period", type=int, default=None,
                        metavar="P",
                        help="sampled mode: simulate every P'th "
                             "segment (default 4); results are "
                             "estimates marked with confidence "
                             "intervals")
    parser.add_argument("--warmup-insns", type=int, default=None,
                        metavar="N",
                        help="sampled mode: emulate N extra "
                             "instructions before each sampled segment "
                             "to warm microarchitectural state "
                             "(excluded from its counted window)")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        metavar="N",
                        help="after each sweep, LRU-evict store "
                             "artifacts until the store is <= N bytes")
    parser.add_argument("--profile", action="store_true",
                        help="after the command, print a per-stage "
                             "wall-time tree from the telemetry "
                             "registry on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list workloads").set_defaults(
        handler=_cmd_list)
    run_parser = sub.add_parser("run", help="compare one workload")
    run_parser.add_argument("workload")
    run_parser.set_defaults(handler=_cmd_run)
    sub.add_parser("table1").set_defaults(handler=_cmd_table(table1))
    sub.add_parser("table3").set_defaults(handler=_cmd_table(table3))
    sub.add_parser("fig6").set_defaults(handler=_cmd_fig6)
    for name, module in _FIGURES.items():
        sub.add_parser(name).set_defaults(handler=_cmd_figure(module))
    sub.add_parser("all", help="every table and figure").set_defaults(
        handler=_cmd_all)
    sweep = sub.add_parser(
        "sweep", help="run a (workload x scale x config) grid",
        description="Run an arbitrary design-space grid and emit JSON "
                    "results (per-point stats plus cache-hit counters).")
    _add_grid_flags(sweep, "(default: all 22)")
    sweep.add_argument("--axis", action="append", metavar="PATH=V1,V2,...",
                       help="config axis, e.g. optimizer.vf_delay=0,1,5; "
                            "repeatable (axes take a cartesian product)")
    sweep.add_argument("--baseline", action="store_true",
                       help="also include the optimizer-off baseline "
                            "as a variant")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON report here instead of stdout")
    sweep.set_defaults(handler=_cmd_sweep)
    search = sub.add_parser(
        "search", help="design-space search for the best config",
        description="Search a dimension space for the MachineConfig "
                    "maximizing an objective; streams per-evaluation "
                    "progress and, with --store, resumes a killed "
                    "search from its manifest.")
    search.add_argument("--dim", action="append", required=True,
                        metavar="PATH=LO..HI[:STEP]|PATH=V1,V2,...",
                        help="search dimension: int range "
                             "(sched_entries=8..32:8) or categorical "
                             "(optimizer.enabled=false,true); repeatable")
    _add_grid_flags(search, "to score candidates on")
    search.add_argument("--strategy", default="random",
                        help="grid (exhaustive), random (seeded "
                             "sampling), or halving (truncated-trace "
                             "rungs, full-run finals)")
    search.add_argument("--budget", type=int, default=None, metavar="N",
                        help="max candidates to consider (default: the "
                             "whole space)")
    search.add_argument("--objective", default="geomean-ipc",
                        choices=list(OBJECTIVES),
                        help="score to maximize across workloads")
    search.add_argument("--weight", action="append", metavar="WORKLOAD=W",
                        help="weighted-ipc workload weight; repeatable "
                             "(unlisted workloads weigh 1.0)")
    search.add_argument("--seed", type=int, default=0,
                        help="RNG seed for random/halving sampling")
    search.add_argument("--rung-insns", type=int,
                        default=DEFAULT_RUNG_INSNS, metavar="N",
                        help="halving's first-rung instruction budget "
                             "(doubles per rung; default "
                             f"{DEFAULT_RUNG_INSNS})")
    search.add_argument("--top", type=int, default=5,
                        help="ranked candidates in the human report")
    search.add_argument("--json", action="store_true",
                        help="emit the JSON report on stdout instead "
                             "of the human summary")
    search.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    search.set_defaults(handler=_cmd_search)
    autotune_parser = sub.add_parser(
        "autotune", help="recover Figure 10's best config via search",
        description="Search the optimizer's dependence-depth space on "
                    "mediabench and report whether the winner matches "
                    "the paper's Figure 10 (exit 1 if it does not).")
    autotune_parser.add_argument("--strategy", default="halving",
                                 help="grid, random or halving "
                                      "(default halving)")
    autotune_parser.add_argument("--seed", type=int, default=0)
    autotune_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-evaluation progress")
    autotune_parser.set_defaults(handler=_cmd_autotune)
    fuzz = sub.add_parser(
        "fuzz", help="differential-check synthetic programs",
        description="Generate seeded synthetic programs and check, "
                    "for each: emulator state == optimizer-on pipeline "
                    "retirement; optimizer on == optimizer off; "
                    "segmented == monolithic counters.  Exit 1 if any "
                    "check disagrees.")
    fuzz.add_argument("--seeds", default="0:8", metavar="LO:HI",
                      help="half-open seed range per family "
                           "(default 0:8; a bare N means 0:N)")
    fuzz.add_argument("--families", default=None,
                      help="comma-separated synth families "
                           "(default: all five)")
    fuzz.add_argument("--budget-small", action="store_true",
                      help="tiny program parameters (CI smoke budget)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the JSON report instead of the "
                           "human summary")
    fuzz.add_argument("--pretty", action="store_true",
                      help="indent the JSON report")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-program progress on stderr")
    fuzz.set_defaults(handler=_cmd_fuzz)
    serve = sub.add_parser(
        "serve", help="async streaming results service",
        description="Run sweeps, searches, segmented sweeps, and fuzz "
                    "campaigns as named concurrent jobs over one "
                    "shared artifact store; JSON-lines event streams "
                    "over HTTP (POST /jobs, GET /jobs, "
                    "GET /jobs/<id>/events, DELETE /jobs/<id>).  Uses "
                    "the global --store and --jobs options.")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port (0 = ephemeral; the actual port "
                            "is announced on stdout; default 8787)")
    serve.add_argument("--max-jobs", type=int, default=4, metavar="N",
                       help="jobs executing concurrently; excess "
                            "submissions queue (default 4)")
    serve.add_argument("--auth-token", action="append", default=None,
                       metavar="TENANT:TOKEN",
                       help="require bearer-token auth; repeatable "
                            "(one entry per tenant token; a bare TOKEN "
                            "maps to tenant 'default').  Merged with "
                            "the comma-separated REPRO_AUTH_TOKENS "
                            "env var.  Without any, the server stays "
                            "open and anonymous")
    serve.add_argument("--tenant-max-jobs", type=int, default=8,
                       metavar="N",
                       help="per-tenant active-job quota (default 8; "
                            "only applies to authenticated tenants)")
    serve.add_argument("--tenant-rate", type=float, default=10.0,
                       metavar="R",
                       help="per-tenant POST /jobs token-bucket refill "
                            "rate per second (<= 0 disables; "
                            "default 10)")
    serve.add_argument("--tenant-burst", type=int, default=20,
                       metavar="N",
                       help="per-tenant token-bucket burst size "
                            "(default 20)")
    serve.add_argument("--tenant-store-bytes", type=int, default=None,
                       metavar="N",
                       help="per-tenant store byte budget, LRU-enforced "
                            "on the tenant's own namespace after each "
                            "finished job (default: unbounded)")
    # SUPPRESS: absent, the subparser must not clobber the global
    # --workers-port value already parsed into the namespace
    serve.add_argument("--workers-port", type=int,
                       default=argparse.SUPPRESS, metavar="PORT",
                       help="open a work-unit lease server on PORT "
                            "(0 = ephemeral) and execute every job on "
                            "connected `repro worker` processes")
    serve.add_argument("--resume", action="store_true",
                       help="re-queue the store journal's unfinished "
                            "jobs (submitted but not finished when the "
                            "last server stopped) before serving; "
                            "needs the global --store")
    serve.set_defaults(handler=_cmd_serve)
    watch = sub.add_parser(
        "watch", help="tail one job's event stream",
        description="Connect to a running `repro serve` and stream a "
                    "job's events (history first, then live) until "
                    "the job ends.  Exit 0 on job-finished, 1 on "
                    "job-failed/cancelled, 2 on client errors.")
    watch.add_argument("job", help="job id (e.g. j1)")
    watch.add_argument("--url", default="http://127.0.0.1:8787",
                       help="service base URL "
                            "(default http://127.0.0.1:8787)")
    watch.add_argument("--json", action="store_true",
                       help="print raw JSON-lines events instead of "
                            "the human rendering")
    watch.add_argument("--timeout", type=float, default=600.0,
                       help="socket timeout in seconds (default 600)")
    watch.add_argument("--token",
                       default=os.environ.get("REPRO_AUTH_TOKEN"),
                       help="bearer token for an auth-enabled service "
                            "(default: the REPRO_AUTH_TOKEN env var)")
    watch.add_argument("--retries", type=int, default=5, metavar="N",
                       help="reconnect attempts after a mid-stream "
                            "connection drop (exponential backoff, "
                            "resuming from the last-seen event; "
                            "0 disables; default 5)")
    watch.set_defaults(handler=_cmd_watch)
    worker = sub.add_parser(
        "worker", help="execute work units for a lease server",
        description="Connect to a work-unit lease server (`repro "
                    "serve --workers-port` or `repro --backend "
                    "workers`), lease units, execute them against a "
                    "local store replica synced by content hash, and "
                    "ship results back; loops until the server "
                    "releases the worker.  Exit 1 if the server is "
                    "unreachable.")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="lease server address (as announced by "
                             "the server)")
    worker.add_argument("--name", default=None,
                        help="worker name in events and metrics "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--replica", default=None, metavar="DIR",
                        help="local store replica directory (default: "
                             "a temporary replica removed on exit; a "
                             "persistent one makes blob pulls "
                             "incremental across runs)")
    worker.add_argument("--max-units", type=int, default=None,
                        metavar="N",
                        help="exit after executing N units (default: "
                             "loop until released)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-unit progress on stderr")
    worker.set_defaults(handler=_cmd_worker)
    metrics = sub.add_parser(
        "metrics", help="fetch a running service's telemetry",
        description="Fetch GET /metrics?format=json from a running "
                    "`repro serve` and render the snapshot (counters, "
                    "gauges, histogram summaries).  Exit 2 if the "
                    "service is unreachable.")
    metrics.add_argument("--url", default="http://127.0.0.1:8787",
                         help="service base URL "
                              "(default http://127.0.0.1:8787)")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw JSON snapshot instead of "
                              "the human rendering")
    metrics.add_argument("--pretty", action="store_true",
                         help="indent the JSON snapshot")
    metrics.add_argument("--timeout", type=float, default=30.0,
                         help="socket timeout in seconds (default 30)")
    metrics.add_argument("--token",
                         default=os.environ.get("REPRO_AUTH_TOKEN"),
                         help="bearer token for an auth-enabled "
                              "service (default: the REPRO_AUTH_TOKEN "
                              "env var; /metrics itself is served "
                              "unauthenticated)")
    metrics.set_defaults(handler=_cmd_metrics)
    store = sub.add_parser(
        "store", help="artifact-store maintenance",
        description="Maintain the --store directory: inspect its size "
                    "or LRU-evict artifacts down to a byte cap.")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used artifacts")
    store_gc.add_argument("--max-bytes", type=int, required=True,
                          help="target store size in bytes")
    store_gc.set_defaults(handler=_cmd_store_gc)
    store_sub.add_parser("info", help="store size and artifact counts") \
        .set_defaults(handler=_cmd_store_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.segment_policy = _build_segment_policy(args)
    except ValueError as error:
        # bad flag combination (adaptive with a size, a sample period
        # outside sampled mode, ...): exit 2 like any other bad input
        return _usage_error(args.command, error)
    owned_backend = None
    if args.backend == "workers" and args.command not in ("serve",
                                                          "worker"):
        # a serve-less lease server for this one command: announce the
        # connect address so workers can be attached from elsewhere
        # (serve builds its own; worker is the other end of the wire)
        from .engine.backend import SocketWorkerBackend
        from .engine.pool import resolve_jobs
        owned_backend = SocketWorkerBackend(
            store_dir=args.store, port=args.workers_port or 0,
            parallelism=resolve_jobs(args.jobs),
            on_event=lambda event: print(format_event(event),
                                         file=sys.stderr, flush=True))
        print(f"leasing work units on "
              f"{owned_backend.host}:{owned_backend.port} (connect "
              f"workers with: repro worker --connect "
              f"{owned_backend.host}:{owned_backend.port})",
              file=sys.stderr, flush=True)
    # handlers and the experiment runner see the same backend: a live
    # instance for workers, the bare name otherwise (serve threads the
    # name itself — its lease server belongs to the event loop)
    args.run_backend = owned_backend if owned_backend is not None \
        else (None if args.backend == "workers" else args.backend)
    try:
        runner.configure(store_dir=args.store, jobs=args.jobs,
                         segment_policy=args.segment_policy,
                         backend=args.run_backend)
        code = args.handler(args)
    finally:
        if owned_backend is not None:
            owned_backend.close()
    if args.profile:
        from .engine.telemetry import TELEMETRY, format_profile
        print(format_profile(TELEMETRY.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

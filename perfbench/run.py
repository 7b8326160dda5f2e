"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper|fuzz|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The package is pure Python under
``src/``, so there is nothing to build.  The seed fixes the workload's
inputs and ``--seconds`` its size, so one (seed, seconds) pair always
does the same work.  With ``--trace 0`` the run measures the
end-to-end metrics with no instrumentation; with ``--trace 1`` it runs
the workload once untraced and once with every layer's entry points
wrapped (see ``tracer.py``), reports the per-layer metrics, and writes
the spans to ``.perfbench/traces/``.  The last line of standard output
is the JSON result; ``layers.json`` says what each workload and metric
is for.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper", "fuzz", "serve")

#: Set-up runs per process; ``setup_s`` reports their median on top
#: of the one-off import time.
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-test")
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Re-run under a fixed hash seed with temp files in the checkout."""
    tmp = str(OUT / "tmp")
    if os.environ.get("PYTHONHASHSEED") == "0" \
            and os.environ.get("TMPDIR") == tmp:
        return
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=tmp)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _load(name: str):
    # the pipeline imports the optimizer on first use; import it here
    # so that cost lands in setup_s rather than in the first timed pass
    import repro.core.optimizer  # noqa: F401
    if name == "paper":
        from paper import Paper
        return Paper
    if name == "fuzz":
        from fuzz import Fuzz
        return Fuzz
    from serve import Serve
    return Serve


def _setup(workload) -> float:
    """Set up SETUP_REPEATS times; returns the median seconds."""
    times = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _traced_pass(workload, tracer_cls):
    """One untraced pass, then the same inputs traced."""
    from metrics import layer_self_times, per_layer, store_bytes
    plain = workload.run()
    workload.teardown()
    workload.setup()
    tracer = tracer_cls()
    read_before, written_before = store_bytes()
    tracer.install()
    try:
        traced = workload.run(tracer)
    finally:
        tracer.uninstall()
    read_after, written_after = store_bytes()
    service = traced.get("service", {})
    layers = layer_self_times(tracer)
    if service:
        layers["engine.service"] += (service["submit_s"]
                                     + service["queue_s"]
                                     + service["deliver_s"])
        covered, total = service["accounted_s"], traced["trace_base_s"]
        unaccounted = service["unaccounted_s"]
    else:
        covered, total = tracer.root_seconds(), traced["wall_s"]
        unaccounted = total - covered
    overhead = 100 * (traced["trace_base_s"] / plain["trace_base_s"] - 1)
    values = per_layer(tracer, read_after - read_before,
                       written_after - written_before, service,
                       unaccounted, overhead)
    info = [f"trace: layer self seconds "
            + ", ".join(f"{layer} {seconds:.3f}"
                        for layer, seconds in layers.items()),
            f"trace: layers cover {100 * sum(layers.values()) / total:.1f}%"
            f" of {total:.3f} s (root spans {100 * covered / total:.1f}%),"
            f" overhead {overhead:.1f}%"]
    path = OUT / "traces" / f"{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(path)
    info.append(f"trace: spans written to {path.relative_to(ROOT)}")
    return plain, traced, values, info


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import END_TO_END, PER_LAYER, max_rss_mb
    workload_cls = _load(args.workload)
    import_s = time.perf_counter() - _STARTED
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(args.seed, args.seconds, args.smoke, scratch)
    try:
        setup_s = import_s + _setup(workload)
        if args.trace:
            from tracer import Tracer
            plain, traced, values, info = _traced_pass(workload, Tracer)
            outcomes = (plain, traced)
            units = PER_LAYER
        else:
            plain = workload.run()
            outcomes = (plain,)
            values = dict(plain["metrics"], setup_s=setup_s,
                          max_rss_mb=max_rss_mb())
            info = []
            units = END_TO_END
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    for outcome in outcomes:
        for line in outcome["info"]:
            print(line)
    for line in info:
        print(line)
    result = {
        "correct": all(outcome["correct"] for outcome in outcomes),
        "attempted": sum(outcome["attempted"] for outcome in outcomes),
        "failed": sum(outcome["failed"] for outcome in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                    if name in values and math.isfinite(values[name])},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

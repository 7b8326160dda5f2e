"""The job layer: each job kind's spec, its one validator, its run path.

``repro serve``'s ``POST /jobs`` and the CLI's ``repro sweep``,
``search`` and ``fuzz`` describe work alike: a job kind plus a JSON
object of parameters, its *spec*.  This module is the only one that
knows the kinds.  :func:`normalize` is the only validator: the service
answers its ``ValueError`` with a 400, the CLI with ``repro <command>:
error: <message>`` and exit 2.  :func:`run` is the one run path per
kind.  A normalized spec normalizes to itself, so journaled specs
resume unchanged.
"""

from __future__ import annotations

import copy
import hashlib
import time

from ..uarch.config import default_config
from ..workloads import get_workload
from ..workloads.common import check_scale
from ..workloads.synth import FAMILIES
from .campaign import Campaign, parse_axis
from .differential import DEFAULT_SEGMENT_INSNS, run_fuzz
from .pool import run_sweep
from .search import (DEFAULT_RUNG_INSNS, OBJECTIVES, STRATEGIES,
                     SearchSpace, check_search_options, run_search)
from .segments import SegmentPolicy


def _list_of(value, item_type) -> bool:
    return type(value) is list and all(type(item) is item_type
                                       for item in value)


#: A JSON type, named as error messages name it -> its check.  Types
#: are compared exactly: Python's bool subclasses int, but true is no
#: JSON integer.
_TYPES = {
    "a boolean": lambda value: type(value) is bool,
    "an integer": lambda value: type(value) is int,
    "a string": lambda value: type(value) is str,
    "a list of strings": lambda value: _list_of(value, str),
    "a string or a list of strings":
        lambda value: type(value) is str or _list_of(value, str),
    "a list of integers": lambda value: _list_of(value, int),
    "a [lo, hi) pair of integers with lo < hi":
        lambda value: (_list_of(value, int) and len(value) == 2
                       and value[0] < value[1]),
    "an object of numbers":
        lambda value: type(value) is dict and all(
            type(item) in (int, float) for item in value.values()),
    "an object": lambda value: type(value) is dict,
}

#: The keys every grid-shaped kind (sweep, segments, search) takes.
_GRID_KEYS = {"workloads": ("a string or a list of strings", None),
              "suite": ("a string", None),
              "scales": ("a list of integers", [1]),
              "optimized": ("a boolean", False)}
_SWEEP_KEYS = {**_GRID_KEYS, "axes": ("a list of strings", []),
               "baseline": ("a boolean", False)}

#: Each job kind's spec keys, each as ``(JSON type, default)``: the
#: type is a name from ``_TYPES`` or the tuple of the only strings the
#: key takes.  A key left out, null or an empty list takes the default.
#: A segments policy's own fields are :class:`SegmentPolicy`'s.
JOB_KINDS = {
    "sweep": _SWEEP_KEYS,
    "search": {**_GRID_KEYS,
               "dims": ("a list of strings", None),
               "strategy": (STRATEGIES, "random"),
               "budget": ("an integer", None),
               "objective": (OBJECTIVES, "geomean-ipc"),
               "weights": ("an object of numbers", {}),
               "seed": ("an integer", 0),
               "rung_insns": ("an integer", DEFAULT_RUNG_INSNS)},
    "segments": {**_SWEEP_KEYS, "policy": ("an object", None)},
    "fuzz": {"seeds": ("a [lo, hi) pair of integers with lo < hi",
                       [0, 8]),
             "families": ("a list of strings", list(FAMILIES)),
             "scale": ("an integer", 1),
             "small": ("a boolean", False),
             "segment_insns": ("an integer", DEFAULT_SEGMENT_INSNS)},
}


def _base(spec: dict):
    base = default_config()
    return base.with_optimizer() if spec["optimized"] else base


def _names(workloads):
    """A workload list; a string splits on commas, or on semicolons if
    it has any: parameterized synth names hold commas, and a trailing
    ';' marks one such name (``'synth:mixed@seed=0,mem=40;'``)."""
    if type(workloads) is not str:
        return workloads
    separator = ";" if ";" in workloads else ","
    return [part for part in (p.strip() for p in workloads.split(separator))
            if part]


def _campaign(spec: dict) -> Campaign:
    """The grid a spec names, its points not built (a search's grid has
    the base machine alone)."""
    return Campaign.from_axes(
        workloads=_names(spec["workloads"]), suite=spec.get("suite"),
        scales=spec["scales"], base=_base(spec),
        axes=[parse_axis(axis) for axis in spec.get("axes", ())],
        include_baseline=spec.get("baseline", False))


def _finish_grid(spec: dict) -> None:
    for scale in spec["scales"]:
        check_scale(scale)
    spec["workloads"] = list(_campaign(spec).workloads)
    del spec["suite"]
    if "policy" in spec:
        if spec["policy"] is None:
            raise ValueError("segments job needs a policy")
        spec["policy"] = SegmentPolicy.from_manifest(spec["policy"]) \
            .to_manifest()


def _finish_search(spec: dict) -> None:
    if not spec["dims"]:
        raise ValueError("search job needs a dims list")
    SearchSpace.from_specs(spec["dims"])
    if not (spec["workloads"] or spec["suite"]):
        raise ValueError("search needs --workloads or --suite (searching "
                         "all 22 kernels is rarely intended; pass them "
                         "explicitly if it is)")
    _finish_grid(spec)
    check_search_options(spec["strategy"], spec["budget"],
                         spec["rung_insns"])
    # scoring looks weights up by canonical name: 'untst' must weight
    # untoast, and a name no workload has must not pass unnoticed
    spec["weights"] = {get_workload(name).name: float(weight)
                       for name, weight in spec["weights"].items()}


def _finish_fuzz(spec: dict) -> None:
    check_scale(spec["scale"])
    unknown = [f for f in spec["families"] if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}; "
                         f"known: {list(FAMILIES)}")
    if spec["segment_insns"] <= 0:
        raise ValueError(f"segment_insns must be > 0, "
                         f"got {spec['segment_insns']}")


_FINISH = {"sweep": _finish_grid, "segments": _finish_grid,
           "search": _finish_search, "fuzz": _finish_fuzz}


def normalize(kind: str, spec: dict) -> dict:
    """*spec* (*kind*'s keys only) checked and completed.

    Returns a new dict with every key of *kind* but ``suite``:
    defaults filled in, workload and weight names made canonical (a
    suite becomes its workloads), a ``policy`` made its manifest.
    Raises ``ValueError`` naming the first problem.  Builds no grid's
    points, so the service runs it on its event loop.
    """
    keys = JOB_KINDS[kind]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown {kind} spec keys {unknown}; "
                         f"known: {sorted(keys)}")
    normal = {}
    for key, (json_type, default) in keys.items():
        value = spec.get(key)
        if value is None or value == []:
            value = copy.copy(default)
        elif type(json_type) is tuple:
            if value not in json_type:
                raise ValueError(f"unknown {key} {value!r}; expected "
                                 f"one of {', '.join(json_type)}")
        elif not _TYPES[json_type](value):
            raise ValueError(f"{key} must be {json_type}, got {value!r}")
        normal[key] = value
    try:
        _FINISH[kind](normal)
    except (KeyError, TypeError, AttributeError) as error:
        # unknown workload, suite or config path, or a mistyped axis
        # value; a KeyError's str() would quote the whole message
        raise ValueError(error.args[0] if isinstance(error, KeyError)
                         else str(error)) from None
    return normal


# ----------------------------------------------------------------------
# run paths
# ----------------------------------------------------------------------


def _ledger(result) -> dict:
    ledger = result.ledger_json()
    return {"ledger": ledger,
            "ledger_sha256": hashlib.sha256(ledger.encode()).hexdigest()}


def _run_sweep(spec, store_dir, jobs, progress, backend):
    policy = spec.get("policy")
    points = _campaign(spec).points()
    sweep = run_sweep(points, jobs=jobs, store_dir=store_dir,
                      progress=progress,
                      segment_policy=None if policy is None
                      else SegmentPolicy.from_manifest(policy),
                      backend=backend)
    result = {"points": len(points), "counters": dict(sweep.counters),
              "elapsed_seconds": round(sweep.elapsed, 3),
              "retired_insns": sum(r.stats.retired
                                   for r in sweep.results)}
    if policy is not None:
        result["policy"] = dict(policy)
    result.update(_ledger(sweep))
    estimated = [r for r in sweep.results if r.estimated]
    if estimated:
        # sampled runs return extrapolations, never exact numbers —
        # the summary says so and carries the worst per-point CI
        result["estimated"] = True
        result["max_relative_error"] = max(
            (r.error_bounds or {}).get("relative_error", 0.0)
            for r in estimated)
    return sweep, result


def _run_search(spec, store_dir, jobs, progress, backend):
    search = run_search(
        SearchSpace.from_specs(spec["dims"]),
        workloads=tuple(spec["workloads"]), scales=tuple(spec["scales"]),
        base=_base(spec), strategy=spec["strategy"],
        budget=spec["budget"], objective=spec["objective"],
        weights=spec["weights"], seed=spec["seed"],
        rung_insns=spec["rung_insns"], jobs=jobs, store_dir=store_dir,
        progress=progress, backend=backend)
    return search, {"best": search.best.candidate.label,
                    "score": search.best.score,
                    "evaluations": len(search.evaluations),
                    "counters": dict(search.counters),
                    "elapsed_seconds": round(search.elapsed, 3),
                    **_ledger(search)}


def _run_fuzz(spec, store_dir, jobs, progress, backend):
    started = time.perf_counter()
    fuzz = run_fuzz(range(*spec["seeds"]), families=tuple(spec["families"]),
                    scale=spec["scale"], small=spec["small"],
                    segment_insns=spec["segment_insns"],
                    progress=progress, jobs=jobs, backend=backend)
    elapsed = time.perf_counter() - started
    return fuzz, {"ok": fuzz.ok, "programs": len(fuzz.programs),
                  "failed": len(fuzz.failed),
                  "elapsed_seconds": round(elapsed, 3),
                  "retired_insns": sum(p.instructions
                                       for p in fuzz.programs)}


_RUNS = {"sweep": _run_sweep, "segments": _run_sweep,
         "search": _run_search, "fuzz": _run_fuzz}


def run(kind: str, spec: dict, *, store_dir=None, jobs: int | None = 1,
        progress=None, backend=None) -> tuple[object, dict]:
    """Run a normalized *spec*: ``(engine result, result dict)``.

    The CLI prints the engine's report object; the dict is the
    ``job-finished`` result the service streams.
    """
    return _RUNS[kind](spec, store_dir, jobs, progress, backend)

"""Auto-tune: recover Figure 10's best-known config by search.

Figure 10 hand-sweeps the optimizer's intra-bundle dependence depths
and finds mediabench's best configuration at ``add_depth=3`` (chained
memory queries add nothing).  This experiment points the design-space
search engine (:mod:`repro.engine.search`) at exactly that knob space
— ``optimizer.add_depth`` x ``optimizer.mem_depth`` on the optimized
machine — and lets a strategy *find* the paper's answer instead of
tabulating it.

``repro autotune`` runs it from the command line; the assertion-style
check (:func:`found_known_best`) is what the benchmark harness and
tests consume.

On the default subset (g721_decode, g721_encode), ``add_depth`` 1, 2
and 3 give identical cycles (5,074 and 21,576) with either
``mem_depth``, and the search keeps the first-evaluated of equal
scores.  The verdict that the search "agrees with Figure 10" so comes
from halving's tie order at seed 0: a grid search over the same space
picks ``add_depth=1``, and ``repro autotune --seed 1`` reports that
it disagrees and exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.search import (SearchResult, SearchSpace, format_result,
                             run_search)
from ..uarch.config import optimized_config
from ..workloads import suite_workloads

#: The space Figure 10 samples by hand.
DIM_SPECS = ("optimizer.add_depth=0..3", "optimizer.mem_depth=0..1")

#: The paper's best-known mediabench setting: depth-3 addition
#: chaining (Figure 10's headline bar).  ``mem_depth`` is left out on
#: purpose — the paper's finding is that it does not matter.
KNOWN_BEST = {"optimizer.add_depth": 3}

SUITE = "mediabench"


@dataclass(frozen=True)
class AutotuneReport:
    """The search outcome plus the paper-agreement verdict."""

    result: SearchResult
    known_best: dict
    matches_paper: bool


def found_known_best(result: SearchResult) -> bool:
    """Whether the search's winner agrees with the paper's Figure 10."""
    assignment = dict(result.best.candidate.assignment)
    return all(assignment.get(path) == value
               for path, value in KNOWN_BEST.items())


def run(scale: int = 1, workloads_per_suite: int | None = 2,
        jobs: int | None = None, strategy: str = "halving",
        budget: int | None = None, seed: int = 0,
        store_dir=None, progress=None) -> AutotuneReport:
    """Search the Figure 10 knob space on mediabench workloads.

    ``workloads_per_suite`` bounds the evaluated mediabench subset
    exactly like the sensitivity figures' ``--per-suite`` (default 2,
    the benchmark harness setting; ``None`` uses the whole suite).
    """
    names = [w.name for w in suite_workloads(SUITE)]
    if workloads_per_suite is not None:
        names = names[:workloads_per_suite]
    space = SearchSpace.from_specs(list(DIM_SPECS))
    result = run_search(space, workloads=tuple(names), scales=(scale,),
                        base=optimized_config(), strategy=strategy,
                        budget=budget, seed=seed, jobs=jobs,
                        store_dir=store_dir, progress=progress)
    return AutotuneReport(result=result, known_best=dict(KNOWN_BEST),
                          matches_paper=found_known_best(result))


def format(report: AutotuneReport) -> str:
    """Render the autotune outcome with the paper verdict."""
    verdict = ("agrees with the paper's Figure 10 best"
               if report.matches_paper else
               "DISAGREES with the paper's Figure 10 best")
    known = ",".join(f"{p}={v}" for p, v in report.known_best.items())
    return "\n".join([
        "Autotune: search for Figure 10's best mediabench config",
        format_result(report.result),
        "",
        f"known best: {known}",
        f"verdict   : {verdict}",
    ])

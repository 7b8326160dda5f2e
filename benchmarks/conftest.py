"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper.
Formatted result tables are printed (visible with ``pytest -s``) and
written to ``benchmarks/results/``; the committed ones are cited by
the README's "Performance" section.  The experiment runner memoizes
traces and simulations, so the baseline runs are shared across
figures within one pytest session.

``--smoke`` runs every bench in a tiny-budget mode: one workload per
suite, minimal scales/budgets, and paper-shape assertions skipped
(tiny subsets do not reproduce the paper's aggregate shapes — smoke
mode only proves the perf scripts still *run*).  CI's ``bench-smoke``
job uses it so these scripts cannot silently rot; full-budget runs
stay the default locally::

    PYTHONPATH=src python -m pytest benchmarks -q --smoke
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="tiny-budget mode: 1 workload/suite, shape asserts off "
             "(used by CI's bench-smoke job)")


@pytest.fixture
def smoke(request) -> bool:
    """Whether the harness runs in tiny-budget smoke mode."""
    return request.config.getoption("--smoke")


def rows_data(rows) -> list[dict]:
    """Benchmark result rows as JSON-ready dicts.

    The experiment modules return dataclass rows; anything else with
    a ``__dict__`` (or a plain mapping) serializes as-is.
    """
    out = []
    for row in rows:
        if dataclasses.is_dataclass(row):
            out.append(dataclasses.asdict(row))
        elif isinstance(row, dict):
            out.append(dict(row))
        else:
            out.append(vars(row))
    return out


def publish(name: str, text: str, smoke: bool = False,
            data: dict | list | None = None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    Smoke-mode outputs land in ``<name>.smoke.txt`` so tiny-budget CI
    runs never clobber the committed full-budget tables.

    With *data*, the same result is also written machine-readably to
    ``BENCH_<name>[.smoke].json`` — so dashboards and regression
    scripts consume benchmarks without scraping the human tables.
    """
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = ".smoke" if smoke else ""
    (RESULTS_DIR / f"{name}{suffix}.txt").write_text(text + "\n")
    if data is not None:
        path = RESULTS_DIR / f"BENCH_{name}{suffix}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True,
                                   default=str) + "\n")

"""Golden search ledgers: default searches stay byte-identical.

Each case runs one search over autotune's Figure 10 knob space
(``optimizer.add_depth`` x ``optimizer.mem_depth`` on the optimized
machine, seed 0) and compares :meth:`SearchResult.ledger_json` with a
committed snapshot ``tests/golden/search/<case>.json``.  The ledger
holds every evaluation's candidate, instruction budget, score and
per-point numbers in evaluation order, so a change to a strategy's
candidate order, to halving's rung budgets or promotions, or to any
simulated number shows up here.  Each search gets its own store, so
every evaluation is computed, none replayed.

Refreshing after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_search_golden.py \
        --update-golden

then review and commit the rewritten ``tests/golden/search/*.json``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.engine.search import SearchSpace, run_search
from repro.experiments import autotune
from repro.uarch.config import optimized_config

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "search"

WORKLOADS = ("g721_decode", "untoast")

#: Snapshot name -> the strategy options of one search.
SEARCHES = {
    "halving-budget4": {"strategy": "halving", "budget": 4},
    "halving-all": {"strategy": "halving"},
    "grid": {"strategy": "grid"},
    "random-budget3": {"strategy": "random", "budget": 3},
}


def check_ledger(name: str, ledger: str, update_golden: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(ledger + "\n")
        return
    assert path.exists(), (
        f"missing golden ledger {path.name}; generate it with "
        f"pytest tests/test_search_golden.py --update-golden")
    assert path.read_text() == ledger + "\n", (
        f"{name}: search ledger drifted from {path.name}")


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_ledger_matches_golden(name, tmp_path, update_golden):
    result = run_search(SearchSpace.from_specs(list(autotune.DIM_SPECS)),
                        workloads=WORKLOADS, base=optimized_config(),
                        seed=0, jobs=1, store_dir=tmp_path,
                        **SEARCHES[name])
    check_ledger(name, result.ledger_json(), update_golden)


def test_autotune_ledger_matches_golden(tmp_path, update_golden):
    report = autotune.run(workloads_per_suite=2, jobs=1,
                          store_dir=tmp_path)
    check_ledger("autotune", report.result.ledger_json(), update_golden)


def test_golden_search_directory_has_no_orphans():
    expected = {f"{name}.json" for name in (*SEARCHES, "autotune")}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected

"""Golden-stats snapshot regression suite.

Every workload in :data:`GOLDEN_WORKLOADS` is simulated on each
machine configuration in :data:`GOLDEN_CONFIGS` — the baseline, the
default optimizer, and Figure 10's deepest bundle limits — and its
full :meth:`PipelineStats.to_json` compared against a committed
snapshot ``tests/golden/<workload>.<label>.json``.  Any behavioural
change in the emulator, the assembler, a workload kernel, the
synthetic generator, the timing model or the optimizer shows up as a
counter-level diff here — deliberately strict, so unintentional drift
cannot hide inside an aggregate.

Refreshing after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_stats.py \
        --update-golden

then review and commit the rewritten ``tests/golden/*.json``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.uarch.config import default_config, optimized_config
from repro.uarch.pipeline import simulate_trace
from repro.uarch.stats import PipelineStats
from repro.workloads import build_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: One kernel per paper suite plus one synthetic program per family —
#: broad enough to cover every workload generator, small enough that
#: the snapshot pass stays cheap.
GOLDEN_WORKLOADS = (
    "mcf",  # SPECint
    "equake",  # SPECfp
    "untoast",  # mediabench
    "synth:ptrchase@seed=0",
    "synth:stream@seed=0",
    "synth:branchy@seed=0",
    "synth:ilp@seed=0",
    "synth:mixed@seed=0",
)

#: Snapshot label -> machine configuration.  The optimizer labels pin
#: the optimizing renamer counter by counter; ``depth3`` also turns on
#: the intra-bundle chain limits (Figure 10's "3 & 1" point).
GOLDEN_CONFIGS = {
    "baseline": default_config(),
    "optimized": optimized_config(),
    "depth3": optimized_config(add_depth=3, mem_depth=1),
}
OPTIMIZER_LABELS = ("optimized", "depth3")


def golden_path(name: str, label: str = "baseline") -> pathlib.Path:
    safe = name.replace(":", "_").replace("@", "_").replace(",", "_") \
        .replace("=", "-")
    return GOLDEN_DIR / f"{safe}.{label}.json"


def compute_stats(name: str, label: str = "baseline") -> PipelineStats:
    return simulate_trace(build_trace(name).trace, GOLDEN_CONFIGS[label])


@pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
def test_baseline_stats_match_golden_snapshot(name, update_golden):
    check_snapshot(name, "baseline", update_golden)


@pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
@pytest.mark.parametrize("label", OPTIMIZER_LABELS)
def test_optimizer_stats_match_golden_snapshot(label, name, update_golden):
    check_snapshot(name, label, update_golden)


def check_snapshot(name: str, label: str, update_golden: bool) -> None:
    stats = compute_stats(name, label)
    path = golden_path(name, label)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(stats.to_json() + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"pytest tests/test_golden_stats.py --update-golden")
    expected = PipelineStats.from_json(path.read_text())
    current = stats.to_dict()
    recorded = expected.to_dict()
    if current != recorded:
        diffs = {key: (recorded[key], current[key])
                 for key in recorded
                 if recorded[key] != current.get(key)}
        pytest.fail(f"{name} ({label}): stats drifted from golden "
                    f"snapshot (recorded, current): {diffs}; if intentional, "
                    f"refresh with --update-golden")


def test_golden_directory_has_no_orphans():
    """Every committed snapshot names a listed workload and config."""
    expected = {golden_path(name, label).name
                for name in GOLDEN_WORKLOADS for label in GOLDEN_CONFIGS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual <= expected, (
        f"orphaned golden snapshots: {sorted(actual - expected)}")


def test_snapshots_are_canonical_json():
    """Snapshots stay byte-stable: canonical JSON, trailing newline."""
    for path in GOLDEN_DIR.glob("*.json"):
        text = path.read_text()
        assert text.endswith("\n"), path.name
        data = json.loads(text)
        assert PipelineStats.from_dict(data).to_json() == text.strip(), \
            path.name

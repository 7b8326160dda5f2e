"""Golden-stats snapshot regression suite.

Every workload in :data:`GOLDEN_WORKLOADS` is simulated on each
machine configuration in :data:`GOLDEN_CONFIGS` — the baseline, the
default optimizer, and Figure 10's deepest bundle limits — and its
full :meth:`PipelineStats.to_json` compared against a committed
snapshot ``tests/golden/<workload>.<label>.json``.  The
:data:`ZERO_STAGE_CONFIGS` snapshots pin machines with a zero-cycle
rename, dispatch or register-read stage, or a zero-latency L1 data
cache, on a prefix of two workloads.
Any behavioural change in the emulator, the assembler, a workload
kernel, the synthetic generator, the timing model or the optimizer
shows up as a counter-level diff here — deliberately strict, so
unintentional drift cannot hide inside an aggregate.

Refreshing after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_stats.py \
        --update-golden

then review and commit the rewritten ``tests/golden/*.json``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

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

#: Machines with a zero-cycle stage.  With no rename stages an
#: early-executed instruction (or a nop) schedules its events for the
#: cycle the pipeline has already written back, so they must run at the
#: next writeback; with no dispatch or register-read stage an
#: instruction enters the scheduler, or completes, as soon as it can.
#: Simulated on the first ``ZERO_STAGE_ROWS`` rows of each workload.
ZERO_STAGE_WORKLOADS = ("mcf", "synth:mixed@seed=0")
ZERO_STAGE_ROWS = 3000
_NO_RLE_SF = optimized_config(enable_rle_sf=False)
_DL1_LATENCY_0 = replace(_NO_RLE_SF, dl1=replace(_NO_RLE_SF.dl1, latency=0))
ZERO_STAGE_CONFIGS = {
    "rename0": replace(default_config(), rename_stages=0),
    "rename0-opt0": replace(optimized_config(opt_stages=0), rename_stages=0),
    "dispatch0": replace(default_config(), dispatch_stages=0),
    "regread0-opt": replace(optimized_config(), regread_stages=0),
    # A load with a rename-time address that the MBC cannot remove (RLE
    # and store forwarding off) and that hits a zero-latency L1 issues
    # with latency 0: it wakes its consumers at the next writeback, and
    # with no register-read stage completes there too.
    "dl1lat0-opt": _DL1_LATENCY_0,
    "dl1lat0-regread0-opt": replace(_DL1_LATENCY_0, regread_stages=0),
}


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


@pytest.mark.parametrize("name", ZERO_STAGE_WORKLOADS)
@pytest.mark.parametrize("label", tuple(ZERO_STAGE_CONFIGS))
def test_zero_stage_stats_match_golden_snapshot(label, name, update_golden):
    stats = simulate_trace(build_trace(name).trace[:ZERO_STAGE_ROWS],
                           ZERO_STAGE_CONFIGS[label])
    check_snapshot(name, label, update_golden, stats)


def check_snapshot(name: str, label: str, update_golden: bool,
                   stats: PipelineStats | None = None) -> None:
    if stats is None:
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
    expected |= {golden_path(name, label).name
                 for name in ZERO_STAGE_WORKLOADS
                 for label in ZERO_STAGE_CONFIGS}
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

"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size with tracing off and on, and checks:
the result line's keys, every metric's name and unit against
``BENCHMARK.json``, failure accounting, the traced run's coverage line,
the layer map in ``layers.json``, the design predictions the traced
runs must confirm, and that the command fails cleanly in a directory
holding only the benchmark's own files.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Smoke runs: (workload, seconds).  Serve needs a few seconds of
#: schedule to hold cold jobs and repeats.
SMOKE = (("paper", 2), ("fuzz", 2), ("serve", 6))


def run(workload: str, seconds: int, trace: int,
        cwd: Path = ROOT) -> tuple[dict, list[str]]:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(result: dict, units: dict, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert isinstance(result["attempted"], int) \
        and result["attempted"] >= 1, f"{label}: attempted"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    metrics = result["metrics"]
    assert set(metrics) == set(units), \
        f"{label}: metrics differ: {set(metrics) ^ set(units)}"
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}, f"{label}: {name}"
        assert metric["unit"] == units[name], f"{label}: {name} unit"
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == [name for name, _ in SMOKE], workloads
    layers = json.loads((HERE / "layers.json").read_text())
    assert sorted(layers["workloads"]) == sorted(workloads)
    for name, entry in layers["workloads"].items():
        assert set(entry["end_to_end"]) == set(END_TO_END), name
    assert set(layers["per_layer"]) == set(PER_LAYER)
    for name, entry in layers["per_layer"].items():
        for target in entry["moves"]:
            workload, metric = target.split("/")
            assert workload in workloads and metric in END_TO_END, name


def check_design(traced: dict[str, dict]) -> None:
    """The layer split the benchmark was built around."""
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    seconds = {name for name, unit in PER_LAYER.items() if unit == "s"
               and not name.startswith("trace.")}
    paper_largest = max(seconds, key=lambda name: value("paper", name))
    assert paper_largest == "core.sim_opt_s", paper_largest
    assert value("serve", "core.sim_opt_s") == 0

    def emulate_share(workload):
        total = sum(value(workload, name) for name in seconds
                    if name not in ("uarch.sim_base_s", "core.sim_opt_s"))
        return value(workload, "functional.emulate_s") / total
    assert emulate_share("serve") > emulate_share("paper")
    assert value("serve", "engine.store.loads") > 0
    assert value("fuzz", "engine.store.loads") == 0
    for name in PER_LAYER:
        if name.startswith("engine.service."):
            assert value("serve", name) > 0 or name.endswith("rejected"), \
                name
            assert value("paper", name) == value("fuzz", name) == 0, name


def check_coverage(lines: list[str], label: str) -> None:
    cover = [line for line in lines if line.startswith("trace: layers cover")]
    assert cover, f"{label}: no coverage line"
    percent = float(cover[0].split("cover ")[1].split("%")[0])
    assert percent >= 90.0, f"{label}: layers cover {percent}%"


def check_bare_directory() -> None:
    """Without the package the command must fail and print no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "bare directory run succeeded"
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    traced = {}
    for workload, seconds in SMOKE:
        result, _ = run(workload, seconds, 0)
        check_result(result, END_TO_END, f"{workload} trace=0")
        result, lines = run(workload, seconds, 1)
        check_result(result, PER_LAYER, f"{workload} trace=1")
        check_coverage(lines, f"{workload} trace=1")
        traced[workload] = result
        print(f"selftest: {workload} ok", flush=True)
    check_design(traced)
    check_bare_directory()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

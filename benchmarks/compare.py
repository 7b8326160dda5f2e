"""Compare fresh benchmark results with the committed ones.

    python benchmarks/compare.py [--base REF] [RESULT.json ...]

Each named file (by default every ``benchmarks/results/BENCH_*.json``)
is compared with its copy at the commit *REF* (default ``HEAD``), read
with ``git show REF:<path>``; a file *REF* does not hold is skipped.
To gate a change, name the commit it is measured against: CI passes
the target branch (a pull request's merge commit's first parent), so
a change that commits new results cannot move its own baseline.

* **Work rows gate.**  A ``work_per_insn`` row (bytecodes and Python
  calls per instruction, keyed by CPython ``major.minor``) fails when
  its ``bytecodes_per_insn`` exceeds the committed row's by more than
  ``MAX_RISE``.  The counts repeat exactly run to run on one CPython
  minor version, so a rise is a change in the code, not in the host.
  A version the committed file holds no counts for is skipped.
* **Timings are printed, never gated.**  Every other number whose key
  ends in ``_seconds`` or ``_per_s`` is shown as committed -> fresh:
  on a shared host they move by more than a gate could tolerate.

Exits 1 when a work row rose past the limit, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

#: A work row may count at most this much more than the committed row.
MAX_RISE = 0.01

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
TIMING_SUFFIXES = ("_seconds", "_per_s")


def committed(path: pathlib.Path, ref: str) -> dict | None:
    """*path*'s content at commit *ref*, or None if *ref* has no such
    file."""
    relative = path.resolve().relative_to(ROOT).as_posix()
    shown = subprocess.run(["git", "show", f"{ref}:{relative}"], cwd=ROOT,
                           capture_output=True, text=True)
    if shown.returncode != 0:
        return None
    return json.loads(shown.stdout)


def work_regressions(fresh: dict, base: dict) -> tuple[list[str],
                                                         list[str]]:
    """Work rows of *fresh* that count more bytecodes than *base*'s.

    Returns ``(regressions, notes)``: one line per row past
    :data:`MAX_RISE`, and one per row compared or version skipped.
    """
    regressions: list[str] = []
    notes: list[str] = []
    base_work = base.get("work_per_insn", {})
    for version, workloads in sorted(fresh.get("work_per_insn", {}).items()):
        if version not in base_work:
            notes.append(f"CPython {version}: no committed counts, skipped")
            continue
        for workload, rows in sorted(workloads.items()):
            for label, row in sorted(rows.items()):
                old = base_work[version].get(workload, {}).get(label)
                if old is None:
                    notes.append(f"CPython {version} {workload} {label}: "
                                 f"new row, nothing to compare")
                    continue
                new_count = row["bytecodes_per_insn"]
                old_count = old["bytecodes_per_insn"]
                line = (f"CPython {version} {workload} {label}: "
                        f"{old_count:,.1f} -> {new_count:,.1f} bytecodes "
                        f"per instruction ({new_count / old_count - 1:+.1%})")
                if new_count > old_count * (1 + MAX_RISE):
                    regressions.append(line)
                else:
                    notes.append(line)
    return regressions, notes


def timing_deltas(fresh, base, prefix: str = "") -> list[str]:
    """``key: committed -> fresh`` for every timing both results hold
    that changed."""
    if isinstance(fresh, dict) and isinstance(base, dict):
        lines = []
        for key in sorted(fresh):
            if key in base and key != "work_per_insn":
                lines += timing_deltas(fresh[key], base[key],
                                       f"{prefix}{key}.")
        return lines
    key = prefix.rstrip(".")
    if (isinstance(fresh, (int, float)) and isinstance(base, (int, float))
            and not isinstance(fresh, bool) and base and fresh != base
            and key.endswith(TIMING_SUFFIXES)):
        return [f"{key}: {base:,.4g} -> {fresh:,.4g} "
                f"({fresh / base:.2f}x)"]
    return []


def main(argv: list[str], load_committed=committed) -> int:
    parser = argparse.ArgumentParser(
        description="Gate work counts against committed results.")
    parser.add_argument("--base", default="HEAD",
                        help="commit holding the baseline results")
    parser.add_argument("paths", nargs="*", type=pathlib.Path)
    args = parser.parse_args(argv)
    paths = args.paths or sorted(RESULTS.glob("BENCH_*.json"))
    failed = False
    for path in paths:
        base = load_committed(path, args.base)
        if base is None:
            print(f"{path}: not committed at {args.base}, skipped")
            continue
        fresh = json.loads(path.read_text())
        regressions, notes = work_regressions(fresh, base)
        print(f"{path}:")
        for line in notes:
            print(f"  ok    {line}")
        for line in regressions:
            print(f"  FAIL  {line} (limit +{MAX_RISE:.0%})")
        for line in timing_deltas(fresh, base):
            print(f"  time  {line}")
        failed = failed or bool(regressions)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The experimental workload: 22 benchmark kernels (paper Table 1).

SPEC2000 and mediabench binaries are not redistributable, so each
benchmark is represented by a hand-written assembly kernel reproducing
its dominant loop structure (see DESIGN.md Section 2 for the
substitution rationale and ``common.py`` for shared helpers).
"""

from . import synth
from .common import Workload, lcg_python, lcg_step
from .suites import (ALL_SUITES, ALL_WORKLOADS, SUITES, build_program,
                     build_trace, get_workload, suite_workloads)

__all__ = [
    "Workload", "lcg_python", "lcg_step", "synth",
    "ALL_SUITES", "ALL_WORKLOADS", "SUITES", "build_program",
    "build_trace", "get_workload", "suite_workloads",
]

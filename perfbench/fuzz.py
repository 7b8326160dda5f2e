"""``fuzz``: differential checking of all five synthetic families.

The seed picks a disjoint block of synth seeds; every (family, seed)
program goes through :func:`repro.engine.differential.run_fuzz` on the
inline backend: one emulation, optimizer-on and -off pipelines with
``ArchState`` replay at retire, and the same two machines again over
cold-start 2000-instruction segments.
"""

from __future__ import annotations

import time

from metrics import percentile
from repro.engine.differential import run_fuzz
from repro.workloads.synth import FAMILIES, fuzz_specs

#: Seconds one synth seed (five programs) takes on a 2-CPU container.
SEED_SECONDS = 7.5

#: Synth seeds reserved per benchmark seed, so seeds never overlap.
SEED_STRIDE = 1000

#: Pipeline passes per program: optimizer on and off, each once over
#: the whole trace and once over its segments.
PIPELINE_PASSES = 4


class Fuzz:
    name = "fuzz"

    def __init__(self, seed: int, seconds: int, smoke: bool, scratch):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def setup(self) -> None:
        first = self.seed * SEED_STRIDE
        count = 1 if self.smoke else max(1, round(self.seconds
                                                  / SEED_SECONDS))
        self.seeds = range(first, first + count)
        self.programs = [spec.name for spec in
                         fuzz_specs(self.seeds, small=self.smoke)]

    def teardown(self) -> None:
        pass

    def run(self, tracer=None) -> dict:
        finished: list[float] = []
        started = time.perf_counter()
        report = run_fuzz(self.seeds, families=FAMILIES, small=self.smoke,
                          jobs=1, progress=lambda event:
                          finished.append(time.perf_counter()))
        wall = time.perf_counter() - started
        checked = sum(program.instructions for program in report.programs)
        per_kinsn_ms = []
        previous = started
        for program, done in zip(report.programs, finished):
            per_kinsn_ms.append(1e6 * (done - previous)
                                / max(1, program.instructions))
            previous = done
        failed = len(report.failed)
        complete = ([p.workload for p in report.programs]
                    == self.programs)
        return {
            "wall_s": wall,
            "trace_base_s": wall,
            "attempted": len(self.programs),
            "failed": failed + len(self.programs) - len(report.programs),
            "correct": report.ok and complete,
            "metrics": {
                "sim_insns_per_s": PIPELINE_PASSES * checked / wall,
                "checked_insns_per_s": checked / wall,
                "job_p50_ms": percentile(per_kinsn_ms, 0.5),
                "job_p90_ms": percentile(per_kinsn_ms, 0.9),
            },
            "info": [f"fuzz: synth seeds {self.seeds.start}:"
                     f"{self.seeds.stop}, {len(report.programs)} "
                     f"programs, {checked} checked insns in "
                     f"{wall:.3f} s"]
                    + [f"fuzz: FAIL {p.workload}: "
                       f"{'; '.join(c.detail for c in p.failures)}"
                       for p in report.failed],
        }

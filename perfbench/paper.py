"""``paper``: the Table 3 / Figure 6 / Figure 10 grid through the runner.

The seed picks a subset of each suite's kernels, one from each speed
stratum, redrawn until the subset's instruction count is within
``BALANCE`` of the average subset's: every subset mixes fast and slow
kernels alike and holds about as many instructions, which keeps
throughput, memory and run time steady across seeds.  Every
kernel runs on the figures' five configurations (baseline, the default
optimizer, and Figure 10's add-depth/mem-depth variants), requested in
the order the experiment modules request them, through
:func:`repro.experiments.runner.run_workload` against a fresh store.
The optimizing renamer dominates this workload.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import time

from metrics import percentile
from repro.experiments import runner
from repro.experiments.depth import SCENARIOS
from repro.uarch.config import default_config
from repro.workloads import SUITES

#: Seconds of timed work one kernel's five-point grid takes on a
#: 2-CPU container; sizes the subset from ``--seconds``.
KERNEL_GRID_SECONDS = 5.0

#: Each suite's kernels from fastest to slowest five-point grid
#: (instructions per second on a 2-CPU container).  The seed draws one
#: kernel from each of ``per_suite`` consecutive strata of this order,
#: which keeps the subsets' speed mix, and so the run-to-run spread
#: across seeds, small.
SPEED_ORDER = {
    "SPECint": ("twolf", "eon", "mcf", "perlbmk", "crafty", "gap", "gcc",
                "vortex", "vpr", "bzip2"),
    "SPECfp": ("art", "mgrid", "mesa", "applu", "ammp", "equake"),
    "mediabench": ("g721_encode", "mpeg2_decode", "mpeg2_encode", "toast",
                   "g721_decode", "untoast"),
}

#: Dynamic instructions of each kernel at scale 1; steers the draw.
TRACE_INSNS = {
    "bzip2": 44106, "crafty": 69712, "eon": 23369, "gap": 31833,
    "gcc": 24462, "mcf": 24215, "perlbmk": 64740, "twolf": 22446,
    "vortex": 26474, "vpr": 44609, "ammp": 15287, "applu": 18222,
    "art": 10634, "equake": 40615, "mesa": 14747, "mgrid": 29493,
    "g721_decode": 13807, "g721_encode": 27738, "mpeg2_decode": 22377,
    "mpeg2_encode": 26752, "untoast": 29648, "toast": 54245,
}

#: How far a subset's instruction count may stray from the average.
BALANCE = 0.03

#: The smoke subset: the cheapest kernel alone.
SMOKE_KERNELS = {"SPECfp": ["art"]}


def _strata(ordered: tuple[str, ...], count: int) -> list[tuple[str, ...]]:
    """*ordered* cut into *count* consecutive strata."""
    count = min(count, len(ordered))
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def choose_kernels(seed: int, per_suite: int) -> dict[str, list[str]]:
    """One kernel per speed stratum and suite, with a balanced size."""
    strata = [stratum for suite in SUITES
              for stratum in _strata(SPEED_ORDER[suite], per_suite)]
    target = sum(statistics.mean(TRACE_INSNS[name] for name in stratum)
                 for stratum in strata)
    rng = random.Random(seed)
    while True:
        picks = [rng.choice(stratum) for stratum in strata]
        size = sum(TRACE_INSNS[name] for name in picks)
        if abs(size - target) <= BALANCE * target:
            break
    return {suite: sorted(name for name in picks
                          if name in SPEED_ORDER[suite])
            for suite in SUITES}


class Paper:
    name = "paper"

    def __init__(self, seed: int, seconds: int, smoke: bool, scratch):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.scratch = scratch
        self.store_dir = None
        self._setups = 0

    def setup(self) -> None:
        per_suite = max(1, round(self.seconds / KERNEL_GRID_SECONDS
                                 / len(SUITES)))
        self.kernels = (dict(SMOKE_KERNELS) if self.smoke
                        else choose_kernels(self.seed, per_suite))
        base = default_config()
        self.base = base
        self.optimized = base.with_optimizer()
        self.depths = [base.with_optimizer(add_depth=add, mem_depth=mem)
                       for _, add, mem in SCENARIOS]
        self._setups += 1
        self.store_dir = self.scratch / f"paper-store-{self._setups}"
        self.store_dir.mkdir(parents=True)
        runner.clear_caches(detach_store=True)
        runner.configure(store_dir=str(self.store_dir), jobs=1)

    def teardown(self) -> None:
        runner.clear_caches(detach_store=True)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def _requests(self):
        """(kernel, config) in the experiment modules' request order."""
        suites = [suite for suite in SUITES if suite in self.kernels]
        for suite in suites:  # Table 3: optimized runs
            for name in self.kernels[suite]:
                yield name, self.optimized
        for suite in suites:  # Figure 6: baseline vs optimized
            for name in self.kernels[suite]:
                yield name, self.base
                yield name, self.optimized
        for suite in suites:  # Figure 10: per scenario, vs baseline
            for config in self.depths:
                for name in self.kernels[suite]:
                    yield name, self.base
                    yield name, config

    def run(self, tracer=None) -> dict:
        points: dict[tuple[str, str], tuple] = {}
        started = time.perf_counter()
        for name, config in self._requests():
            before = time.perf_counter()
            stats = runner.run_workload(name, config)
            key = (name, config.cache_key())
            if key not in points:
                points[key] = (stats, time.perf_counter() - before)
        wall = time.perf_counter() - started

        lengths = {name: len(runner.get_trace(name))
                   for names in self.kernels.values() for name in names}
        failed = 0
        digest = hashlib.sha256()
        per_kinsn_ms = []
        for (name, config_key), (stats, seconds) in sorted(points.items()):
            if (stats.retired != lengths[name]
                    or stats.optimizer_verify_failures):
                failed += 1
            digest.update(f"{name}|{config_key}|".encode())
            digest.update(stats.to_json().encode())
            per_kinsn_ms.append(1e6 * seconds / lengths[name])
        required = sum(lengths[name] for name, _ in points)
        return {
            "wall_s": wall,
            "trace_base_s": wall,
            "attempted": len(points),
            "failed": failed,
            "correct": failed == 0,
            "metrics": {
                "sim_insns_per_s": required / wall,
                "checked_insns_per_s": sum(lengths.values()) / wall,
                "job_p50_ms": percentile(per_kinsn_ms, 0.5),
                "job_p90_ms": percentile(per_kinsn_ms, 0.9),
            },
            "info": [f"paper: kernels {self.kernels}",
                     f"paper: {len(points)} points, required "
                     f"{required} simulated insns in {wall:.3f} s",
                     f"paper: PipelineStats digest "
                     f"{digest.hexdigest()}"],
        }

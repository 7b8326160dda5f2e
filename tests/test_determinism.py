"""Determinism: jobs=1 vs jobs=N must produce byte-identical ledgers.

The engine's contract is that parallelism is *only* a scheduling
concern: a sweep or search fanned across worker processes must emit
exactly the results of the serial run.  These tests pin that at the
strictest level available — the canonical ``ledger_json()`` forms are
compared as byte strings — for flat sweeps, segmented sweeps, and
design-space searches, over synthetic workloads (whose generation is
itself seeded and process-independent).
"""

import pytest

from repro.engine.campaign import Campaign
from repro.engine.pool import run_sweep
from repro.engine.search import SearchSpace, run_search
from repro.engine.segments import SegmentPolicy
from repro.experiments import runner

WORKLOADS = ["synth:ilp@seed=0", "synth:mixed@seed=1"]
AXES = [("optimizer.enabled", [False, True])]
FIXED_2000 = SegmentPolicy(segment_insns=2000)


@pytest.fixture(autouse=True)
def _clean_runner_state():
    runner.clear_caches(detach_store=True)
    yield
    runner.clear_caches(detach_store=True)


def _campaign() -> Campaign:
    return Campaign.from_axes(workloads=WORKLOADS, axes=AXES)


class TestSweepDeterminism:
    def test_serial_and_parallel_ledgers_are_byte_identical(self):
        points = _campaign().points()
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=4)
        assert serial.ledger_json() == parallel.ledger_json()

    def test_rerun_is_byte_identical(self):
        points = _campaign().points()
        assert run_sweep(points, jobs=1).ledger_json() \
            == run_sweep(points, jobs=1).ledger_json()

    def test_store_warmth_does_not_change_the_ledger(self, tmp_path):
        points = _campaign().points()
        cold = run_sweep(points, jobs=1, store_dir=tmp_path)
        warm = run_sweep(points, jobs=4, store_dir=tmp_path)
        assert warm.counters["simulations"] == 0
        assert cold.ledger_json() == warm.ledger_json()

    def test_ledger_strips_volatile_fields(self):
        points = _campaign().points()
        result = run_sweep(points, jobs=1)
        ledger = result.ledger_json()
        assert "elapsed" not in ledger
        assert "from_cache" not in ledger
        assert "counters" not in ledger


class TestSegmentedDeterminism:
    def test_serial_and_parallel_segmented_ledgers_match(self, tmp_path):
        points = _campaign().points()
        serial = run_sweep(points, jobs=1,
                           store_dir=tmp_path / "serial",
                           segment_policy=FIXED_2000)
        parallel = run_sweep(points, jobs=4,
                             store_dir=tmp_path / "parallel",
                             segment_policy=FIXED_2000)
        assert serial.ledger_json() == parallel.ledger_json()

    def test_segmented_merge_counters_match_flat_run(self, tmp_path):
        from repro.uarch.stats import EXACT_MERGE_FIELDS
        points = _campaign().points()
        flat = run_sweep(points, jobs=1)
        segmented = run_sweep(points, jobs=1, store_dir=tmp_path,
                              segment_policy=FIXED_2000)
        for flat_result, seg_result in zip(flat.results,
                                           segmented.results):
            for name in EXACT_MERGE_FIELDS:
                assert getattr(flat_result.stats, name) \
                    == getattr(seg_result.stats, name), \
                    (flat_result.point.label, name)


class TestSegmentPolicyDeterminism:
    def test_manifest_spelling_matches_policy_object(self, tmp_path):
        from repro.engine.segments import SegmentPolicy
        points = _campaign().points()
        manifest = run_sweep(points, jobs=1, store_dir=tmp_path / "a",
                             segment_policy=SegmentPolicy.from_manifest(
                                 {"segment_insns": 2000}))
        policy = run_sweep(points, jobs=1, store_dir=tmp_path / "b",
                           segment_policy=SegmentPolicy(
                               segment_insns=2000))
        assert manifest.ledger_json() == policy.ledger_json()

    def test_sampled_ledgers_match_across_jobs(self, tmp_path):
        from repro.engine.segments import SegmentPolicy
        policy = SegmentPolicy(mode="sampled", segment_insns=2000,
                               sample_period=3)
        points = _campaign().points()
        serial = run_sweep(points, jobs=1,
                           store_dir=tmp_path / "serial",
                           segment_policy=policy)
        parallel = run_sweep(points, jobs=4,
                             store_dir=tmp_path / "parallel",
                             segment_policy=policy)
        assert serial.results[0].estimated
        assert serial.ledger_json() == parallel.ledger_json()

    def test_adaptive_serial_matches_flat_ledger(self, tmp_path):
        from repro.engine.segments import SegmentPolicy
        points = _campaign().points()
        flat = run_sweep(points, jobs=1)
        adaptive = run_sweep(points, jobs=1, store_dir=tmp_path,
                             segment_policy=SegmentPolicy(
                                 mode="adaptive"))
        # jobs=1 adaptive collapses to one whole-trace segment: not
        # merely deterministic, but byte-identical to the flat run
        assert flat.ledger_json() == adaptive.ledger_json()

    def test_adaptive_rerun_is_byte_identical(self, tmp_path):
        from repro.engine.segments import SegmentPolicy
        points = _campaign().points()
        policy = SegmentPolicy(mode="adaptive")
        first = run_sweep(points, jobs=4, store_dir=tmp_path,
                          segment_policy=policy)
        second = run_sweep(points, jobs=4, store_dir=tmp_path,
                           segment_policy=policy)
        assert first.ledger_json() == second.ledger_json()


class TestSearchDeterminism:
    SPACE = ["optimizer.enabled=false,true", "sched_entries=8,16"]

    def _search(self, jobs: int, strategy: str = "random"):
        return run_search(SearchSpace.from_specs(self.SPACE),
                          workloads=tuple(WORKLOADS),
                          strategy=strategy, budget=3, seed=11,
                          jobs=jobs)

    def test_serial_and_parallel_search_ledgers_match(self):
        assert self._search(jobs=1).ledger_json() \
            == self._search(jobs=4).ledger_json()

    def test_halving_search_is_deterministic_across_jobs(self):
        serial = self._search(jobs=1, strategy="halving")
        parallel = self._search(jobs=4, strategy="halving")
        assert serial.ledger_json() == parallel.ledger_json()
        assert serial.best.candidate == parallel.best.candidate

    def test_scores_are_bitwise_equal_not_just_close(self):
        serial = self._search(jobs=1)
        parallel = self._search(jobs=4)
        for a, b in zip(serial.evaluations, parallel.evaluations):
            assert a.candidate == b.candidate
            assert a.score == b.score  # exact float equality

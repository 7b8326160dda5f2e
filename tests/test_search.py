"""Tests for design-space search: space, strategies, resume, CLI.

The acceptance bar: ``repro search --strategy random --budget N`` and
``--strategy halving`` both find the known-best variant of a seeded
toy space, stream per-evaluation progress, and resume from a partial
store without re-running completed evaluations.

The toy space used throughout is
``optimizer.enabled x optimizer.vf_delay`` on mcf: enabling the
continuous optimizer is the paper's headline speedup, so
``optimizer.enabled=True`` is the known-best coordinate any working
strategy must land on.
"""

import json
import random

import pytest

from repro.engine.campaign import SweepPoint
from repro.engine.pool import PointResult, run_sweep, run_sweep_iter
from repro.engine.search import (Candidate, Categorical, GeomeanIPC,
                                 IntRange, SearchSpace,
                                 WeightedIPC, format_result,
                                 make_objective, parse_dim,
                                 resolve_search_workloads, run_search)
from repro.engine.store import ArtifactStore, stats_key
from repro.experiments import autotune
from repro.uarch.config import default_config
from repro.uarch.stats import PipelineStats

SPECS = ["optimizer.enabled=false,true", "optimizer.vf_delay=0,10"]
BEST_COORD = ("optimizer.enabled", True)
WORKLOADS = ("mcf",)


def toy_space() -> SearchSpace:
    return SearchSpace.from_specs(SPECS)


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    """One store for every strategy test: simulations amortize."""
    return str(tmp_path_factory.mktemp("search-store"))


def best_assignment(result) -> dict:
    return dict(result.best.candidate.assignment)


# ----------------------------------------------------------------------
# space construction
# ----------------------------------------------------------------------


class TestDimensions:
    def test_parse_int_range(self):
        dim = parse_dim("sched_entries=8..32:8")
        assert isinstance(dim, IntRange)
        assert dim.values() == [8, 16, 24, 32]
        assert parse_dim("optimizer.vf_delay=0..3").values() == [0, 1, 2, 3]

    def test_parse_categorical(self):
        dim = parse_dim("optimizer.enabled=false,true")
        assert isinstance(dim, Categorical)
        assert dim.values() == [False, True]
        assert parse_dim("optimizer.vf_delay=0,5,10").values() == [0, 5, 10]

    def test_spec_round_trips(self):
        for spec in ("sched_entries=8..32:8", "optimizer.vf_delay=0..3",
                     "optimizer.enabled=false,true"):
            assert parse_dim(spec).spec() == spec

    def test_parse_errors_are_readable(self):
        for bad in ("no-equals", "x=", "=1,2", "sched_entries=8..x",
                    "sched_entries=8..1", "sched_entries=1..8:0"):
            with pytest.raises(ValueError):
                parse_dim(bad)

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            parse_dim("optimizer.vf_delay=1,1")

    def test_space_rejects_duplicate_paths(self):
        with pytest.raises(ValueError):
            SearchSpace.from_specs(["sched_entries=8..16:8",
                                    "sched_entries=8,32"])

    def test_space_rejects_unknown_path_at_build_time(self):
        with pytest.raises(AttributeError):
            SearchSpace.from_specs(["optimizer.warp_factor=1..3"])

    def test_space_rejects_mistyped_domain_at_build_time(self):
        # bool field swept with ints: the apply_override guard fires
        # when the space is built, not mid-search
        with pytest.raises(TypeError):
            SearchSpace.from_specs(["optimizer.enabled=0,1"])

    def test_space_probes_every_value_not_just_the_first(self):
        # a mixed-type categorical whose first value is fine must
        # still fail at build time, not after simulations were spent
        with pytest.raises(TypeError):
            SearchSpace.from_specs(["optimizer.enabled=true,2"])


class TestSearchSpace:
    def test_size_and_grid_order(self):
        space = toy_space()
        assert space.size == 4
        labels = [c.label for c in space.candidates()]
        assert labels == [
            "optimizer.enabled=False,optimizer.vf_delay=0",
            "optimizer.enabled=False,optimizer.vf_delay=10",
            "optimizer.enabled=True,optimizer.vf_delay=0",
            "optimizer.enabled=True,optimizer.vf_delay=10",
        ]

    def test_candidate_decode_bounds(self):
        space = toy_space()
        with pytest.raises(IndexError):
            space.candidate(space.size)

    def test_sample_is_seeded_and_distinct(self):
        space = toy_space()
        first = [c.label for c in space.sample(random.Random(7), 3)]
        again = [c.label for c in space.sample(random.Random(7), 3)]
        assert first == again
        assert len(set(first)) == 3
        # oversampling caps at the space size
        assert len(space.sample(random.Random(7), 99)) == space.size

    def test_candidate_config_applies_assignment(self):
        candidate = Candidate(assignment=(("optimizer.enabled", True),
                                          ("optimizer.vf_delay", 10)))
        config = candidate.config(default_config())
        assert config.optimizer.enabled is True
        assert config.optimizer.vf_delay == 10


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------


def _fake_result(workload: str, retired: int, cycles: int) -> PointResult:
    point = SweepPoint(workload=workload, scale=1, variant="v",
                       config=default_config())
    return PointResult(point=point,
                       stats=PipelineStats(cycles=cycles, retired=retired),
                       emulated=False, simulated=True)


class TestObjectives:
    def test_geomean_ipc(self):
        results = [_fake_result("a", 100, 100),   # ipc 1.0
                   _fake_result("b", 400, 100)]   # ipc 4.0
        assert GeomeanIPC().score(results) == pytest.approx(2.0)

    def test_geomean_degenerate_clamps_to_floor(self):
        # A zero-IPC point (adversarial synth program that retires
        # nothing) clamps to the floor instead of zeroing the score:
        # candidates must stay rankable on their healthy workloads.
        assert GeomeanIPC().score([]) == 0.0
        floor = GeomeanIPC().floor
        assert GeomeanIPC().score(
            [_fake_result("a", 0, 100)]) == pytest.approx(floor)
        mixed = GeomeanIPC().score([_fake_result("a", 0, 100),
                                    _fake_result("b", 400, 100)])
        assert mixed == pytest.approx((floor * 4.0) ** 0.5)
        assert mixed > 0.0

    def test_weighted_ipc_defaults_to_uniform(self):
        results = [_fake_result("a", 100, 100),
                   _fake_result("b", 300, 100)]
        assert WeightedIPC().score(results) == pytest.approx(2.0)

    def test_weighted_ipc_skews(self):
        results = [_fake_result("a", 100, 100),
                   _fake_result("b", 300, 100)]
        objective = make_objective("weighted-ipc", {"b": 3.0})
        assert objective.score(results) == pytest.approx(2.5)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            make_objective("latency")

    def test_resolve_workloads(self):
        assert resolve_search_workloads(["mcf", "untst"]) == \
            ("mcf", "untoast")
        assert "untoast" in resolve_search_workloads(None, "mediabench")
        with pytest.raises(ValueError):
            resolve_search_workloads(None, None)


# ----------------------------------------------------------------------
# incremental sweep execution (run_sweep_iter)
# ----------------------------------------------------------------------


class TestRunSweepIter:
    def test_streams_every_point_with_counters(self):
        config = default_config()
        points = [SweepPoint("mcf", 1, "base", config),
                  SweepPoint("mcf", 1, "opt", config.with_optimizer())]
        counters = {}
        seen = dict(run_sweep_iter(points, jobs=1, counters=counters))
        assert sorted(seen) == [0, 1]
        assert counters["simulations"] == 2
        assert counters["emulations"] == 1  # one workload, one trace

    def test_matches_run_sweep(self):
        config = default_config()
        points = [SweepPoint("mcf", 1, "base", config),
                  SweepPoint("mcf", 1, "opt", config.with_optimizer())]
        collected = dict(run_sweep_iter(points, jobs=1))
        swept = run_sweep(points, jobs=1)
        assert [collected[i].stats.to_json()
                for i in range(len(points))] == \
            [r.stats.to_json() for r in swept.results]

    def test_limit_insns_truncates_and_keys_separately(self, tmp_path):
        config = default_config()
        points = [SweepPoint("mcf", 1, "base", config)]
        full = dict(run_sweep_iter(points, jobs=1,
                                   store_dir=tmp_path))[0]
        short = dict(run_sweep_iter(points, jobs=1, store_dir=tmp_path,
                                    limit_insns=500))[0]
        assert short.stats.retired <= 500 < full.stats.retired
        # distinct store keys: the truncated artifact never shadows
        # the full one
        assert stats_key("mcf", 1, config) != \
            stats_key("mcf", 1, config, limit_insns=500)
        store = ArtifactStore(tmp_path)
        assert store.load_stats("mcf", 1, config).retired == \
            full.stats.retired
        assert store.load_stats("mcf", 1, config,
                                limit_insns=500).retired == \
            short.stats.retired

    def test_early_break_keeps_store_artifacts(self, tmp_path):
        config = default_config()
        points = [SweepPoint("mcf", 1, "base", config),
                  SweepPoint("gcc", 1, "base", config)]
        iterator = run_sweep_iter(points, jobs=1, store_dir=tmp_path)
        index, first = next(iterator)
        iterator.close()
        store = ArtifactStore(tmp_path)
        # the consumed point's artifacts survived the early stop
        assert store.load_stats(first.point.workload, 1, config) \
            is not None
        # and the inline backend runs a shard only when the planner
        # drains it, so the second shard was never simulated
        assert first.point.workload == "mcf"
        assert not store.has_trace("gcc", 1)
        assert store.load_stats("gcc", 1, config) is None


# ----------------------------------------------------------------------
# strategies find the known best (the acceptance bar)
# ----------------------------------------------------------------------


class TestStrategies:
    def test_grid_finds_known_best(self, shared_store):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", store_dir=shared_store)
        assert best_assignment(result)[BEST_COORD[0]] == BEST_COORD[1]
        assert result.counters["evaluations"] + \
            result.counters["evaluations_reused"] == 4

    def test_random_finds_known_best(self, shared_store):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="random", budget=4, seed=0,
                            store_dir=shared_store)
        assert best_assignment(result)[BEST_COORD[0]] == BEST_COORD[1]

    def test_halving_finds_known_best(self, shared_store):
        events = []
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="halving", budget=4, seed=0,
                            rung_insns=2000, store_dir=shared_store,
                            progress=events.append)
        assert best_assignment(result)[BEST_COORD[0]] == BEST_COORD[1]
        # rung evaluations are truncated, finals are full runs, and
        # the winner comes only from the full runs
        rung = [e for e in result.evaluations if not e.full]
        finals = [e for e in result.evaluations if e.full]
        assert rung and len(finals) == 2
        assert result.best in finals

    def test_halving_short_trace_rungs_promote_for_free(self, tmp_path):
        # rung budgets beyond the trace length alias to the full-run
        # stats key, so the finals re-simulate nothing: 4 candidates
        # on 1 workload = exactly 4 simulations for the whole search
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="halving", budget=4, seed=0,
                            rung_insns=10 ** 9, store_dir=tmp_path)
        assert result.counters["simulations"] == 4 * len(WORKLOADS)
        finals = [e for e in result.evaluations if e.full]
        rungs = [e for e in result.evaluations if not e.full]
        assert rungs and finals
        # a final's score equals its rung score: same full trace
        rung_scores = {e.candidate.label: e.score for e in rungs}
        for final in finals:
            assert final.score == rung_scores[final.candidate.label]

    def test_progress_streams_typed_events(self, tmp_path):
        events = []
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", store_dir=tmp_path,
                            progress=events.append)
        evaluations = [e for e in events if e.kind == "evaluation"]
        points = [e for e in events if e.kind == "point"]
        assert len(evaluations) == len(result.evaluations) == 4
        # per-point streaming arrives before each evaluation completes
        assert points and points[0].total == len(WORKLOADS)
        # every point event is tagged with its owning candidate
        assert all(p.candidate for p in points)
        labels = [e.candidate for e in evaluations]
        assert labels == [e.candidate.label for e in result.evaluations]

    def test_parallel_evaluation_matches_serial(self, tmp_path):
        space = SearchSpace.from_specs(["optimizer.enabled=false,true"])
        serial = run_search(space, workloads=("mcf", "gcc"), jobs=1,
                            strategy="grid",
                            store_dir=tmp_path / "serial")
        parallel = run_search(space, workloads=("mcf", "gcc"), jobs=2,
                              strategy="grid",
                              store_dir=tmp_path / "parallel")
        assert [e.score for e in serial.evaluations] == \
            [e.score for e in parallel.evaluations]
        assert parallel.best.candidate.label == \
            serial.best.candidate.label

    def test_degenerate_workload_keeps_search_rankable(self, tmp_path):
        # Regression: a zero-IPC workload (the empty adversarial synth
        # program) used to zero every candidate's geomean score, so
        # the search picked arbitrarily.  With the objective floor the
        # healthy workload still differentiates the candidates.
        space = SearchSpace.from_specs(["sched_entries=2,8"])
        result = run_search(
            space,
            workloads=("synth:ilp@seed=0",
                       "synth:branchy@seed=0,iters=0"),
            strategy="grid", store_dir=tmp_path)
        scores = {e.candidate.label: e.score
                  for e in result.evaluations}
        assert all(score > 0 for score in scores.values())
        assert scores["sched_entries=8"] != scores["sched_entries=2"]
        assert result.best.score == max(scores.values())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_search(toy_space(), workloads=WORKLOADS,
                       strategy="annealing")

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            run_search(toy_space(), workloads=WORKLOADS, budget=0)


class TestOptionRejections:
    """A bad strategy option gets the same message from the library,
    the CLI (exit 2) and the service (400): all three call
    ``check_search_options``."""

    #: run_search keyword -> (bad value, CLI flag, expected message)
    CASES = {
        "budget": (0, "--budget", "budget must be > 0, got 0"),
        "rung_insns": (0, "--rung-insns",
                       "rung_insns must be > 0, got 0"),
        "strategy": ("annealing", "--strategy",
                     "unknown strategy 'annealing'; expected one of "
                     "grid, random, halving"),
    }

    @pytest.mark.parametrize("option", sorted(CASES))
    def test_run_search_raises(self, option):
        value, _, message = self.CASES[option]
        with pytest.raises(ValueError) as err:
            run_search(toy_space(), workloads=WORKLOADS, **{option: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("option", sorted(CASES))
    def test_cli_exits_2(self, option, capsys):
        from repro.cli import main
        value, flag, message = self.CASES[option]
        assert main(["search", "--dim", SPECS[0], "--workloads", "mcf",
                     flag, str(value)]) == 2
        assert capsys.readouterr().err == \
            f"repro search: error: {message}\n"

    def test_autotune_cli_exits_2_on_unknown_strategy(self, capsys):
        from repro.cli import main
        _, _, message = self.CASES["strategy"]
        assert main(["autotune", "--strategy", "annealing"]) == 2
        assert capsys.readouterr().err == \
            f"repro autotune: error: {message}\n"

    @pytest.mark.parametrize("option", sorted(CASES))
    def test_service_returns_400(self, option, tmp_path):
        import asyncio

        from repro.engine.service import JobManager, ServiceError
        value, _, message = self.CASES[option]
        spec = {"kind": "search", "workloads": ["mcf"],
                "dims": [SPECS[0]], option: value}

        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                with pytest.raises(ServiceError) as err:
                    await manager.submit(spec)
                assert manager.list_jobs() == []
            finally:
                await manager.close()
            return err.value

        error = asyncio.run(scenario())
        assert error.status == 400
        assert str(error) == message


# ----------------------------------------------------------------------
# resume semantics
# ----------------------------------------------------------------------


class TestResume:
    def test_partial_search_resumes_without_rerunning(self, tmp_path):
        # a "killed" search: only 2 of 4 grid candidates completed
        partial = run_search(toy_space(), workloads=WORKLOADS,
                             strategy="grid", budget=2,
                             store_dir=tmp_path)
        assert partial.counters["evaluations"] == 2
        # the restarted full search reuses both ledgered evaluations
        # and simulates only the 2 new candidates
        resumed = run_search(toy_space(), workloads=WORKLOADS,
                             strategy="grid", store_dir=tmp_path)
        assert resumed.counters["evaluations_reused"] == 2
        assert resumed.counters["evaluations"] == 2
        assert resumed.counters["simulations"] == 2
        assert best_assignment(resumed)[BEST_COORD[0]] == BEST_COORD[1]

    def test_identical_rerun_is_pure_ledger_replay(self, tmp_path):
        run_search(toy_space(), workloads=WORKLOADS, strategy="random",
                   budget=4, seed=3, store_dir=tmp_path)
        again = run_search(toy_space(), workloads=WORKLOADS,
                           strategy="random", budget=4, seed=3,
                           store_dir=tmp_path)
        assert again.counters["evaluations"] == 0
        assert again.counters["evaluations_reused"] == 4
        assert again.counters["simulations"] == 0
        assert again.counters["emulations"] == 0

    def test_strategies_share_one_ledger(self, tmp_path):
        # grid fills the ledger; halving's full-run finals replay it
        run_search(toy_space(), workloads=WORKLOADS, strategy="grid",
                   store_dir=tmp_path)
        halved = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="halving", budget=4, seed=0,
                            store_dir=tmp_path)
        finals = [e for e in halved.evaluations if e.full]
        assert finals and all(e.from_ledger for e in finals)

    def test_objective_change_invalidates_ledger(self, tmp_path):
        run_search(toy_space(), workloads=WORKLOADS, strategy="grid",
                   store_dir=tmp_path)
        other = run_search(toy_space(), workloads=WORKLOADS,
                           strategy="grid", objective="weighted-ipc",
                           store_dir=tmp_path)
        # different objective -> different manifest; but the per-point
        # stats artifacts still satisfy every simulation
        assert other.counters["evaluations_reused"] == 0
        assert other.counters["simulations"] == 0
        assert other.counters["stats_cache_hits"] == 4

    def test_search_without_store_still_works(self):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", budget=1)
        assert result.counters["evaluations"] == 1

    def test_storeless_search_shares_traces_across_candidates(self):
        # the run-scoped scratch store carries each workload's trace
        # across evaluations: one emulation for the whole search, not
        # one per candidate
        space = SearchSpace.from_specs(["optimizer.enabled=false,true"])
        result = run_search(space, workloads=WORKLOADS, strategy="grid")
        assert result.counters["evaluations"] == 2
        assert result.counters["emulations"] == len(WORKLOADS)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


class TestReports:
    def test_to_dict_is_json_ready(self, shared_store):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", store_dir=shared_store)
        report = json.loads(json.dumps(result.to_dict()))
        assert report["space_size"] == 4
        assert report["best"]["candidate"] == \
            result.best.candidate.label
        assert len(report["evaluations"]) == 4
        assert report["counters"]["evaluations"] + \
            report["counters"]["evaluations_reused"] == 4
        assert "mcf@1" in report["best"]["points"]

    def test_format_result_names_the_best(self, shared_store):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", store_dir=shared_store)
        text = format_result(result)
        assert result.best.candidate.label in text
        assert "<- best" in text
        assert "geomean-ipc" in text

    def test_format_result_survives_empty_ranking(self, shared_store):
        result = run_search(toy_space(), workloads=WORKLOADS,
                            strategy="grid", store_dir=shared_store)
        text = format_result(result, top=0)
        assert result.best.candidate.label in text


# ----------------------------------------------------------------------
# CLI + autotune
# ----------------------------------------------------------------------


class TestSearchCli:
    def teardown_method(self):
        from repro.experiments import runner
        runner.clear_caches(detach_store=True)

    def test_search_command_json_and_resume(self, tmp_path, capsys):
        from repro.cli import main
        argv = ["--store", str(tmp_path / "store"), "search",
                "--dim", "optimizer.enabled=false,true",
                "--workloads", "mcf", "--strategy", "random",
                "--budget", "2", "--seed", "0", "--json", "--quiet"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["evaluations"] == 2
        best = dict(
            pair.split("=") for pair in
            report["best"]["candidate"].split(","))
        assert best["optimizer.enabled"] == "True"
        # resumed run replays the ledger
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["evaluations"] == 0
        assert report["counters"]["evaluations_reused"] == 2
        assert report["counters"]["simulations"] == 0

    def test_search_streams_progress_on_stderr(self, capsys):
        from repro.cli import main
        assert main(["search", "--dim", "optimizer.enabled=false,true",
                     "--workloads", "mcf", "--strategy", "grid"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[search]") == 2
        assert "<- best" in captured.out

    def test_bad_dim_exits_nonzero_with_message(self, capsys):
        from repro.cli import main
        assert main(["search", "--dim", "sched_entries=8..x",
                     "--workloads", "mcf"]) == 2
        err = capsys.readouterr().err
        assert "repro search: error:" in err
        assert "8..x" in err

    def test_missing_workloads_exits_nonzero(self, capsys):
        from repro.cli import main
        assert main(["search", "--dim",
                     "optimizer.enabled=false,true"]) == 2
        assert "--workloads or --suite" in capsys.readouterr().err

    def test_weight_keys_canonicalized_and_validated(self):
        from repro.cli import _parse_weights
        # abbreviations resolve to the canonical name the scorer uses
        assert _parse_weights(["untst=4"]) == {"untoast": 4.0}
        assert _parse_weights(None) == {}
        with pytest.raises(KeyError):
            _parse_weights(["doom3=2"])
        with pytest.raises(ValueError):
            _parse_weights(["no-equals"])

    def test_json_with_out_keeps_json_on_stdout(self, tmp_path, capsys):
        from repro.cli import main
        out_file = tmp_path / "search.json"
        assert main(["search", "--dim", "optimizer.enabled=false,true",
                     "--workloads", "mcf", "--strategy", "grid",
                     "--json", "--out", str(out_file), "--quiet"]) == 0
        stdout = capsys.readouterr().out
        # stdout and the file carry the same machine-readable report
        assert json.loads(stdout)["space_size"] == 2
        assert json.loads(out_file.read_text()) == json.loads(stdout)

    def test_segment_insns_rejected_not_ignored(self, capsys):
        from repro.cli import main
        assert main(["--segment-insns", "1000", "search",
                     "--dim", "optimizer.enabled=false,true",
                     "--workloads", "mcf"]) == 2
        assert "--segment-insns" in capsys.readouterr().err
        assert main(["--segment-insns", "1000", "autotune"]) == 2
        assert "--segment-insns" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rung-mode", "--rung-period"])
    def test_sampled_rung_flags_are_gone(self, flag, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_:
            main(["search", "--dim", "optimizer.enabled=false,true",
                  "--workloads", "mcf", "--strategy", "halving",
                  flag, "sampled" if flag == "--rung-mode" else "2"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bad_scales_exit_nonzero(self, capsys):
        from repro.cli import main
        assert main(["search", "--dim", "optimizer.enabled=false,true",
                     "--workloads", "mcf", "--scales", "1,x"]) == 2
        assert "bad --scales" in capsys.readouterr().err
        assert main(["sweep", "--workloads", "mcf",
                     "--scales", "2;3", "--quiet"]) == 2
        assert "bad --scales" in capsys.readouterr().err

    def test_autotune_rejects_nonpositive_per_suite(self, capsys):
        from repro.cli import main
        assert main(["--per-suite", "0", "autotune"]) == 2
        assert "--per-suite" in capsys.readouterr().err


class TestAutotune:
    def test_autotune_recovers_figure10_best(self, tmp_path):
        report = autotune.run(workloads_per_suite=2, strategy="halving",
                              store_dir=tmp_path)
        assert report.matches_paper
        assert dict(report.result.best.candidate.assignment)[
            "optimizer.add_depth"] == 3
        text = autotune.format(report)
        assert "agrees with the paper" in text

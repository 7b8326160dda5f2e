"""Tests for the seeded synthetic workload generator (``synth`` suite).

Covers the spec/name round-trip, registry integration (lookup, suite
roster, sweeps), determinism of generation and emulation, per-family
program character, and the stable content key.
"""

import pytest

from repro.engine.campaign import Campaign
from repro.engine.pool import run_sweep
from repro.engine.jobs import normalize
from repro.isa.opcodes import OpClass
from repro.workloads import (ALL_SUITES, ALL_WORKLOADS, SUITES,
                             build_program, build_trace, get_workload,
                             suite_workloads)
from repro.workloads.synth import (DEFAULT_ROSTER, FAMILIES,
                                   SMALL_PARAMS, SynthSpec, fuzz_specs,
                                   parse_name)


class TestSpec:
    def test_roundtrip_canonical_name(self):
        spec = SynthSpec.make("mixed", seed=7,
                              params={"mem": 40, "branch": 20})
        assert spec.name == "synth:mixed@seed=7,branch=20,mem=40"
        assert parse_name(spec.name) == spec

    def test_defaults_collapse_out_of_the_name(self):
        explicit = parse_name("synth:ilp@seed=3,chains=6,iters=300")
        assert explicit.name == "synth:ilp@seed=3"
        assert explicit == SynthSpec.make("ilp", seed=3)

    def test_missing_seed_defaults_to_zero(self):
        assert parse_name("synth:stream").seed == 0
        assert parse_name("synth:stream").name == "synth:stream@seed=0"

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            parse_name("synth:quantum@seed=0")
        with pytest.raises(KeyError):
            SynthSpec.make("quantum")

    def test_unknown_and_malformed_params_rejected(self):
        with pytest.raises(KeyError):
            parse_name("synth:ilp@seed=0,warp=9")
        with pytest.raises(KeyError):
            parse_name("synth:ilp@seed=zz")
        with pytest.raises(ValueError):
            SynthSpec.make("ilp", params={"iters": -1})

    def test_cache_key_stable_per_identity(self):
        a = SynthSpec.make("mixed", seed=1, params={"mem": 40})
        b = parse_name("synth:mixed@seed=1,mem=40")
        c = SynthSpec.make("mixed", seed=2, params={"mem": 40})
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            SynthSpec.make("ilp").source(0)


class TestRegistry:
    def test_paper_registry_unchanged(self):
        assert len(ALL_WORKLOADS) == 22
        assert SUITES == ("SPECint", "SPECfp", "mediabench")
        assert ALL_SUITES == SUITES + ("synth",)

    def test_get_workload_resolves_synth_names(self):
        workload = get_workload("synth:ptrchase@seed=5")
        assert workload.suite == "synth"
        assert workload.name == "synth:ptrchase@seed=5"

    def test_synth_suite_is_the_default_roster(self):
        roster = suite_workloads("synth")
        assert [w.name for w in roster] == list(DEFAULT_ROSTER)
        assert len(roster) == 2 * len(FAMILIES)

    def test_unknown_names_still_rejected(self):
        with pytest.raises(KeyError):
            get_workload("doom3")
        with pytest.raises(KeyError):
            suite_workloads("SPECjbb")

    def test_search_workload_resolution(self):
        def resolve_search_workloads(workloads=None, suite=None):
            # a search spec's workloads, as the job layer resolves them
            return tuple(normalize("search", {
                "workloads": workloads, "suite": suite,
                "dims": ["optimizer.enabled=false,true"]})["workloads"])
        names = resolve_search_workloads(["synth:ilp@seed=0", "mcf"])
        assert names == ("synth:ilp@seed=0", "mcf")
        assert len(resolve_search_workloads(suite="synth")) \
            == len(DEFAULT_ROSTER)


class TestGeneration:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_source_is_deterministic(self, family):
        a = SynthSpec.make(family, seed=9).source()
        b = SynthSpec.make(family, seed=9).source()
        assert a == b

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeds_vary_the_program(self, family):
        a = SynthSpec.make(family, seed=0).source()
        b = SynthSpec.make(family, seed=1).source()
        assert a != b

    @pytest.mark.parametrize("family", FAMILIES)
    def test_assembles_runs_and_checksums(self, family):
        name = f"synth:{family}@seed=0"
        result = build_trace(name)
        assert result.halted
        assert 1_000 < result.instruction_count < 200_000
        addr = build_program(name).labels["result"]
        assert result.memory.load(addr, 8, signed=False) != 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_emulation_is_deterministic(self, family):
        name = f"synth:{family}@seed=4"
        assert build_trace(name).trace == build_trace(name).trace

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scale_grows_instruction_count(self, family):
        name = f"synth:{family}@seed=0"
        assert (build_trace(name, scale=2).instruction_count
                > build_trace(name, scale=1).instruction_count)

    def test_small_params_shrink_every_family(self):
        for family in FAMILIES:
            assert family in SMALL_PARAMS
            full = build_trace(f"synth:{family}@seed=0")
            small_spec = SynthSpec.make(family, seed=0,
                                        params=SMALL_PARAMS[family])
            small = build_trace(small_spec.name)
            assert small.instruction_count < full.instruction_count / 3

    def test_fuzz_specs_grid(self):
        specs = fuzz_specs(range(0, 3), families=("ilp", "mixed"))
        assert len(specs) == 6
        assert {s.family for s in specs} == {"ilp", "mixed"}
        small = fuzz_specs(range(1), families=("ilp",), small=True)
        assert small[0].param_dict["iters"] \
            == SMALL_PARAMS["ilp"]["iters"]


class TestProgramCharacter:
    """Each family must exhibit the behaviour its name promises."""

    def _mix(self, name):
        trace = build_trace(name).trace
        counts = {"mem": 0, "branch": 0, "mul": 0, "total": len(trace)}
        for entry in trace:
            spec = entry.instr.spec
            if spec.is_load or spec.is_store:
                counts["mem"] += 1
            if spec.is_branch or spec.is_jump:
                counts["branch"] += 1
            if spec.op_class is OpClass.INT_COMPLEX:
                counts["mul"] += 1
        return counts

    def test_ptrchase_is_load_dependent(self):
        mix = self._mix("synth:ptrchase@seed=0")
        assert mix["mem"] / mix["total"] > 0.15

    def test_stream_is_memory_heavy(self):
        mix = self._mix("synth:stream@seed=0")
        assert mix["mem"] / mix["total"] > 0.20

    def test_branchy_is_branch_heavy(self):
        mix = self._mix("synth:branchy@seed=0")
        assert mix["branch"] / mix["total"] > 0.15

    def test_ilp_is_alu_dominated(self):
        mix = self._mix("synth:ilp@seed=0")
        assert mix["mem"] / mix["total"] < 0.05
        assert mix["branch"] / mix["total"] < 0.10

    def test_mixed_ratios_steer_the_mix(self):
        memory_heavy = self._mix("synth:mixed@seed=0,mem=50,branch=5")
        branch_heavy = self._mix("synth:mixed@seed=0,mem=5,branch=40")
        assert memory_heavy["mem"] / memory_heavy["total"] \
            > branch_heavy["mem"] / branch_heavy["total"]
        assert branch_heavy["branch"] / branch_heavy["total"] \
            > memory_heavy["branch"] / memory_heavy["total"]

    def test_mixed_ratio_overflow_rejected_at_parse_time(self):
        # The invalid spec must die when the *name* is parsed (so the
        # CLI's usage-error path engages), not deep inside generation
        # or a sweep worker.
        with pytest.raises(ValueError, match="<= 100%"):
            parse_name("synth:mixed@seed=0,mem=60,branch=50")
        with pytest.raises(ValueError, match="<= 100%"):
            get_workload("synth:mixed@seed=1,mem=101")
        # just at the boundary is fine
        assert parse_name("synth:mixed@seed=0,mem=60,branch=30")

    def test_branchy_iters_zero_is_the_empty_program(self):
        result = build_trace("synth:branchy@seed=0,iters=0")
        assert result.halted
        assert result.instruction_count == 0


class TestEngineIntegration:
    def test_sweep_over_synth_suite(self):
        campaign = Campaign.from_axes(
            suite="synth",
            axes=[("optimizer.enabled", [False, True])])
        points = campaign.points()
        assert len(points) == 2 * len(DEFAULT_ROSTER)
        subset = [p for p in points
                  if p.workload == "synth:ilp@seed=0"]
        result = run_sweep(subset, jobs=1)
        assert all(r.stats.retired > 0 for r in result.results)

    def test_sweep_cli_accepts_parameterized_names(self, capsys):
        # names with commas need the ';' list separator
        from repro.cli import main
        assert main(["sweep", "--workloads",
                     "synth:mixed@seed=0,mem=40;synth:ilp@seed=0",
                     "--quiet"]) == 0
        import json
        report = json.loads(capsys.readouterr().out)
        assert {p["workload"] for p in report["points"]} \
            == {"synth:mixed@seed=0,mem=40", "synth:ilp@seed=0"}

    def test_weight_parsing_with_synth_names(self):
        from repro.cli import _parse_weights
        weights = _parse_weights(["synth:ilp@seed=0=2.5", "mcf=4"])
        assert weights == {"synth:ilp@seed=0": 2.5, "mcf": 4.0}

    def test_run_workload_canonicalizes_spellings(self):
        # Default-equivalent spellings (and abbreviations) must share
        # one cache entry / one store artifact, not duplicate work.
        from repro.experiments import runner
        from repro.uarch.config import default_config
        runner.clear_caches()
        config = default_config()
        a = runner.run_workload("synth:ilp@seed=0,chains=6", config)
        b = runner.run_workload("synth:ilp@seed=0", config)
        assert a is b
        assert runner.run_workload("untst", config) \
            is runner.run_workload("untoast", config)

    def test_store_roundtrips_synth_traces(self, tmp_path):
        from repro.engine.store import ArtifactStore
        store = ArtifactStore(tmp_path)
        trace = build_trace("synth:ilp@seed=0").trace
        store.save_trace("synth:ilp@seed=0", 1, trace)
        assert store.load_trace("synth:ilp@seed=0", 1) == trace
        assert store.load_trace("synth:ilp@seed=1", 1) is None

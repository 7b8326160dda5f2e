"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine.store import ArtifactStore
from repro.experiments import runner
from repro.uarch.config import default_config
from repro.uarch.stats import PipelineStats


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "untoast" in out
        assert "synth:mixed@seed=0" in out
        # 22 paper kernels + the default synth roster
        from repro.workloads.synth import DEFAULT_ROSTER
        assert out.count("\n") == 22 + len(DEFAULT_ROSTER)

    def test_run_command(self, capsys):
        assert main(["run", "untoast"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "baseline" in out

    def test_run_by_abbreviation(self, capsys):
        assert main(["run", "untst"]) == 0
        assert "untoast" in capsys.readouterr().out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "doom3"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fig9_with_subset(self, capsys):
        assert main(["--per-suite", "1", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "feedback + opt" in out

    def test_fig11_with_subset(self, capsys):
        assert main(["--per-suite", "1", "fig11"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("list", "run", "table1", "table3", "fig6", "fig8",
                        "fig9", "fig10", "fig11", "fig12", "all", "sweep",
                        "search", "autotune", "store"):
            assert command in text


#: A command that simulates nothing itself -> arguments it parses with.
NO_POLICY_COMMANDS = {
    "serve": ["serve"],
    "list": ["list"],
    "store": ["store", "info"],
    "watch": ["watch", "j1"],
    "worker": ["worker", "--connect", "127.0.0.1:1"],
    "metrics": ["metrics"],
}


@pytest.mark.parametrize("command", sorted(NO_POLICY_COMMANDS))
def test_commands_without_a_policy_refuse_segmentation_flags(command,
                                                             capsys):
    # the flags would be read by nothing: refused before the command
    # runs (no server starts, no store or socket is touched)
    argv = ["--segment-insns", "1000", *NO_POLICY_COMMANDS[command]]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"repro {command}: error: {command} does not take " \
        f"--segment-insns\n"


def _populate_store(root) -> ArtifactStore:
    """A store holding one tiny trace and one stats artifact."""
    store = ArtifactStore(root)
    store.save_trace("mcf", 1, [])
    store.save_stats("mcf", 1, default_config(),
                     PipelineStats(cycles=10, retired=5))
    return store


class TestStoreCommands:
    def teardown_method(self):
        runner.clear_caches(detach_store=True)

    def test_store_info_reports_populated_store(self, tmp_path, capsys):
        _populate_store(tmp_path)
        assert main(["--store", str(tmp_path), "store", "info"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == str(tmp_path)
        assert report["artifacts"]["traces"] == 1
        assert report["artifacts"]["stats"] == 1
        assert report["total_bytes"] > 0

    def test_store_gc_evicts_down_to_cap(self, tmp_path, capsys):
        _populate_store(tmp_path)
        assert main(["--store", str(tmp_path), "store", "gc",
                     "--max-bytes", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 2
        assert report["evicted"] == 2
        assert report["remaining_bytes"] == 0
        assert sum(ArtifactStore(tmp_path).artifact_count().values()) == 0

    def test_store_gc_noop_under_cap(self, tmp_path, capsys):
        _populate_store(tmp_path)
        assert main(["--store", str(tmp_path), "store", "gc",
                     "--max-bytes", str(10 ** 9)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] == 0
        assert sum(ArtifactStore(tmp_path).artifact_count().values()) == 2

    def test_store_commands_require_store_option(self):
        for argv in (["store", "info"],
                     ["store", "gc", "--max-bytes", "1"]):
            with pytest.raises(SystemExit, match="--store"):
                main(argv)


class TestSweepErrors:
    def teardown_method(self):
        runner.clear_caches(detach_store=True)

    def test_bad_axis_syntax_exits_nonzero(self, capsys):
        assert main(["sweep", "--workloads", "mcf",
                     "--axis", "no-equals"]) == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err
        assert "no-equals" in err

    def test_unknown_axis_path_exits_nonzero(self, capsys):
        assert main(["sweep", "--workloads", "mcf",
                     "--axis", "optimizer.warp=1,2"]) == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err
        assert "warp" in err

    def test_mistyped_axis_value_exits_nonzero(self, capsys):
        assert main(["sweep", "--workloads", "mcf",
                     "--axis", "sched_entries=true,false"]) == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err
        assert "expected int, got bool" in err

    def test_unrunnable_machine_exits_nonzero(self, capsys):
        assert main(["sweep", "--workloads", "mcf", "--quiet",
                     "--axis", "rob_size=0,160"]) == 2
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err
        assert "rob_size must be >= 1" in err

    def test_unknown_workload_exits_nonzero(self, capsys):
        assert main(["sweep", "--workloads", "doom3", "--quiet"]) == 2
        assert "repro sweep: error:" in capsys.readouterr().err

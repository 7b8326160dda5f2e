"""Differential correctness harness tests (``repro fuzz`` internals).

Three independent executions of every program must agree: the
functional emulator, optimizer-on/off pipeline retirement, and
segmented simulation.  These tests cover the :class:`ArchState`
retirement replay, each differential check (including seeded fuzzing
over every synthetic family and a couple of paper kernels), the
harness's ability to *detect* disagreement (a harness that can never
fail verifies nothing), and the CLI entry point.
"""

import pytest

from repro.cli import main
from repro.engine.differential import (Check, FuzzReport, ProgramReport,
                                       check_workload, format_report,
                                       run_fuzz)
from repro.functional.emulator import ArchState, run_program
from repro.uarch.config import default_config, optimized_config
from repro.uarch.pipeline import make_pipeline
from repro.workloads import build_program
from repro.workloads.synth import FAMILIES


class TestArchState:
    def test_replaying_full_trace_reaches_emulator_state(self):
        program = build_program("synth:mixed@seed=2")
        result = run_program(program)
        arch = ArchState(program)
        for entry in result.trace:
            arch.apply(entry)
        assert arch.state_dict() == result.state_dict()
        assert arch.applied == len(result.trace)

    def test_partial_replay_diverges(self):
        program = build_program("synth:ilp@seed=0")
        result = run_program(program)
        arch = ArchState(program)
        for entry in result.trace[:-20]:
            arch.apply(entry)
        assert arch.state_dict() != result.state_dict()

    def test_pipeline_feeds_retired_entries(self):
        program = build_program("synth:stream@seed=1")
        result = run_program(program)
        arch = ArchState(program)
        stats = make_pipeline(result.trace, optimized_config(),
                              arch_state=arch).run()
        assert stats.retired == len(result.trace)
        assert arch.applied == len(result.trace)
        assert arch.state_dict() == result.state_dict()

    def test_fp_state_compares_by_bits(self):
        program = build_program("equake")
        result = run_program(program)
        arch = ArchState(program)
        for entry in result.trace:
            arch.apply(entry)
        state = arch.state_dict()
        assert state == result.state_dict()
        assert any(state["fp_bits"])  # equake actually uses FP


class TestCheckWorkload:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_passes_all_checks(self, family):
        report = check_workload(f"synth:{family}@seed=0")
        assert report.ok, [c.detail for c in report.failures]
        assert [c.name for c in report.checks] == [
            "emulator-vs-pipeline", "optimizer-on-vs-off",
            "segmented-vs-monolithic"]

    def test_paper_kernels_pass(self):
        for name in ("mcf", "untoast"):
            report = check_workload(name)
            assert report.ok, (name,
                               [c.detail for c in report.failures])

    def test_degenerate_empty_program_passes(self):
        report = check_workload("synth:branchy@seed=0,iters=0")
        assert report.ok
        assert report.instructions == 0

    def test_abbreviations_canonicalize(self):
        report = check_workload("untst")
        assert report.workload == "untoast"

    def test_report_serializes(self):
        report = check_workload("synth:ilp@seed=1")
        data = report.to_dict()
        assert data["ok"] is True
        assert len(data["checks"]) == 3


class TestHarnessCanFail:
    """A differential harness must be able to detect disagreement."""

    def test_broken_optimizer_is_caught(self, monkeypatch):
        # Corrupt the CP/RA handler's early-executed ADD results by
        # one: the oracle trace stays correct, so the optimizer now
        # fabricates values and the harness must report it (the strict
        # verifier raises, which the harness records as a finding).
        # The renamer dispatches through cpra.HANDLERS, so the fault
        # goes into the table slots ADD (and LDA, which shares its
        # handler) occupy.
        from repro.core import cpra, symbolic
        from repro.isa.opcodes import OPCODE_ID, Opcode

        real = cpra.HANDLERS[OPCODE_ID[Opcode.ADD]]

        def corrupt(a, b):
            kind, value, sym, uses_alu, reduced = real(a, b)
            if kind == cpra.EARLY and value is not None:
                value += 1
                sym = symbolic.const(value)
            return kind, value, sym, uses_alu, reduced

        monkeypatch.setattr(cpra, "HANDLERS", tuple(
            corrupt if handler is real else handler
            for handler in cpra.HANDLERS))
        report = check_workload("synth:ilp@seed=0")
        assert not report.ok
        failed = {c.name for c in report.failures}
        assert "emulator-vs-pipeline" in failed
        detail = next(c.detail for c in report.failures
                      if c.name == "emulator-vs-pipeline")
        assert "VerificationError" in detail

    def test_emulation_crash_is_a_finding_not_an_abort(self):
        # A blown instruction budget (or any emulator-side crash) must
        # land in the report so a fuzz sweep surveys the other seeds.
        report = check_workload("synth:ilp@seed=0", max_instructions=10)
        assert not report.ok
        assert [c.name for c in report.checks] == ["emulation"]
        assert "EmulationLimit" in report.checks[0].detail

    def test_dropped_retirement_is_caught(self):
        # Simulate a pipeline that silently drops the last entries.
        program = build_program("synth:ilp@seed=0")
        result = run_program(program)
        arch = ArchState(program)
        make_pipeline(result.trace[:-50], default_config(),
                      arch_state=arch).run()
        assert arch.state_dict() != result.state_dict()


class TestRunFuzz:
    def test_small_budget_sweep_over_all_families(self):
        events = []
        fuzz = run_fuzz(range(0, 2), small=True, progress=events.append)
        assert fuzz.ok
        assert len(fuzz.programs) == 2 * len(FAMILIES)
        assert all(e.kind == "finding" and e.ok and not e.failures
                   for e in events)
        assert (events[-1].done, events[-1].total) == \
            (len(fuzz.programs), len(fuzz.programs))
        assert "0 failed" in format_report(fuzz)

    def test_family_subset(self):
        fuzz = run_fuzz(range(0, 1), families=("ilp",), small=True)
        assert len(fuzz.programs) == 1
        assert fuzz.programs[0].workload.startswith("synth:ilp@")

    def test_report_aggregates_failures(self):
        fuzz = FuzzReport(programs=[
            ProgramReport(workload="a", scale=1,
                          checks=[Check("x", True)]),
            ProgramReport(workload="b", scale=1,
                          checks=[Check("y", False, "boom")]),
        ])
        assert not fuzz.ok
        assert len(fuzz.failed) == 1
        text = format_report(fuzz)
        assert "FAIL b@1 y: boom" in text
        assert fuzz.to_dict()["failed"] == 1


class TestFuzzCli:
    def test_fuzz_command_passes(self, capsys):
        assert main(["fuzz", "--budget-small", "--seeds", "0:1",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_fuzz_json_report(self, capsys):
        import json
        assert main(["fuzz", "--budget-small", "--seeds", "1",
                     "--families", "ilp", "--quiet", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["programs"] == 1

    def test_fuzz_progress_lines(self, capsys):
        assert main(["fuzz", "--budget-small", "--seeds", "0:1",
                     "--families", "mixed"]) == 0
        err = capsys.readouterr().err
        assert "[1/1]" in err and "ok" in err

    def test_bad_seed_range_is_usage_error(self, capsys):
        assert main(["fuzz", "--seeds", "5:5"]) == 2
        assert main(["fuzz", "--seeds", "abc"]) == 2
        err = capsys.readouterr().err
        assert "repro fuzz: error" in err

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["fuzz", "--families", "quantum"]) == 2
        assert "quantum" in capsys.readouterr().err

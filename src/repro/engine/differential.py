"""Differential correctness harness: emulator vs pipeline vs segments.

Every workload — hand-written or synthesized — is pushed through three
independent executions of the same program, and the harness checks
that they agree wherever the architecture says they must:

``emulator-vs-pipeline``
    The functional emulator's final architectural state (registers +
    memory) must equal the state implied by **optimizer-on** pipeline
    retirement (every retired trace entry replayed through an
    :class:`~repro.functional.emulator.ArchState`), the pipeline must
    retire exactly the trace's instructions, and the optimizer's
    strict value checking must report zero verify failures.

``optimizer-on-vs-off``
    The optimizer must be architecturally invisible: optimizer-on and
    optimizer-off runs retire identical architectural results.

``segmented-vs-monolithic``
    Splitting the trace into fixed-instruction segments and merging
    the per-segment stats must reproduce the monolithic run's exact
    counters (:data:`~repro.uarch.stats.EXACT_MERGE_FIELDS`) — for
    both optimizer settings — and threading one ``ArchState`` through
    the per-segment pipelines must land on the emulator's final state.

``repro fuzz`` drives this over seeded synthetic program families
(:mod:`repro.workloads.synth`), turning every optimizer or pipeline
change into something the test suite can falsify automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..functional.emulator import ArchState, run_program
from ..uarch.config import MachineConfig, default_config
from ..uarch.pipeline import make_pipeline
from ..uarch.stats import EXACT_MERGE_FIELDS, PipelineStats
from ..workloads import build_program, get_workload
from ..workloads.synth import FAMILIES, fuzz_specs
from .backend import WorkUnit, register_executor, resolve_backend
from .events import FindingEvent

#: Default segment length the segmented-vs-monolithic check uses.
DEFAULT_SEGMENT_INSNS = 2000

#: Emulation budget for fuzzed programs (they are small by design).
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


@dataclass(frozen=True)
class Check:
    """One named differential check with its verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ProgramReport:
    """All differential checks for one workload at one scale."""

    workload: str
    scale: int
    instructions: int = 0
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        return {"workload": self.workload, "scale": self.scale,
                "instructions": self.instructions, "ok": self.ok,
                "checks": [{"name": c.name, "ok": c.ok,
                            **({"detail": c.detail} if c.detail else {})}
                           for c in self.checks]}


@dataclass
class FuzzReport:
    """Aggregate result of a fuzzing run over many programs."""

    programs: list[ProgramReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.programs)

    @property
    def failed(self) -> list[ProgramReport]:
        return [p for p in self.programs if not p.ok]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "programs": len(self.programs),
                "failed": len(self.failed),
                "reports": [p.to_dict() for p in self.programs]}


def _diff_states(expected: dict, actual: dict) -> str:
    """A short human description of the first state divergence."""
    for index, (a, b) in enumerate(zip(expected["int_regs"],
                                       actual["int_regs"])):
        if a != b:
            return f"int reg r{index}: expected {a}, got {b}"
    for index, (a, b) in enumerate(zip(expected["fp_bits"],
                                       actual["fp_bits"])):
        if a != b:
            return f"fp reg f{index}: expected bits {a:#x}, got {b:#x}"
    if expected["memory"] != actual["memory"]:
        deltas = sorted(set(expected["memory"].items())
                        ^ set(actual["memory"].items()))
        addr = deltas[0][0]
        return (f"memory diverges at {addr:#x} "
                f"({len(deltas)} byte-level differences)")
    return ""


def _segments(trace: list, segment_insns: int) -> Iterable[list]:
    for start in range(0, len(trace), segment_insns):
        yield trace[start:start + segment_insns]


def _run_pipeline(trace, config, arch: ArchState
                  ) -> tuple[PipelineStats, str]:
    """Run one pipeline, capturing any crash as a finding.

    The optimizer's strict value checking *raises*
    (:class:`~repro.core.optimizer.VerificationError`) the moment it
    would fabricate a wrong value, and a scheduling bug surfaces as a
    :class:`~repro.uarch.pipeline.SimulationDeadlock`.  For a fuzzing
    harness both are findings to report, not reasons to abort the
    whole seed sweep.
    """
    try:
        return make_pipeline(trace, config, arch_state=arch).run(), ""
    except Exception as error:  # any crash is a differential finding
        return PipelineStats(), f"{type(error).__name__}: {error}"


def check_workload(name: str, scale: int = 1,
                   base: MachineConfig | None = None,
                   segment_insns: int = DEFAULT_SEGMENT_INSNS,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   ) -> ProgramReport:
    """Run every differential check for one workload.

    *base* is the optimizer-off machine; the optimizer-on variant is
    derived with :meth:`MachineConfig.with_optimizer`.  Never raises
    for a disagreement — failures land in the report so a fuzzing run
    surveys everything instead of stopping at the first bad seed.
    """
    canonical = get_workload(name).name
    report = ProgramReport(workload=canonical, scale=scale)
    base = (base if base is not None else default_config()) \
        .without_optimizer()
    optimized = base.with_optimizer()
    try:
        program = build_program(canonical, scale)
        result = run_program(program, max_instructions=max_instructions)
    except Exception as error:
        # An assembly or emulation crash (a generator bug, a blown
        # instruction budget) is itself a finding — record it so the
        # sweep surveys every remaining seed instead of aborting.
        report.checks.append(Check(
            "emulation", False, f"{type(error).__name__}: {error}"))
        return report
    trace = result.trace
    report.instructions = len(trace)
    oracle = result.state_dict()

    # ---- (a) emulator vs optimizer-on pipeline retirement ------------
    states: dict[str, dict] = {}
    stats: dict[str, PipelineStats] = {}
    errors: dict[str, str] = {}
    for label, config in (("on", optimized), ("off", base)):
        arch = ArchState(program)
        stats[label], errors[label] = _run_pipeline(trace, config, arch)
        states[label] = arch.state_dict()
    problems = []
    if errors["on"]:
        problems.append(errors["on"])
    elif stats["on"].retired != len(trace):
        problems.append(f"retired {stats['on'].retired} of "
                        f"{len(trace)} trace entries")
    if stats["on"].optimizer_verify_failures:
        problems.append(f"{stats['on'].optimizer_verify_failures} "
                        f"optimizer verify failures")
    divergence = _diff_states(oracle, states["on"])
    if divergence and not errors["on"]:
        problems.append(divergence)
    report.checks.append(Check("emulator-vs-pipeline", not problems,
                               "; ".join(problems)))

    # ---- (b) optimizer on vs off architectural results ---------------
    problems = [e for e in (errors["on"], errors["off"]) if e]
    if not problems:
        if stats["off"].retired != stats["on"].retired:
            problems.append(f"retired on={stats['on'].retired} "
                            f"off={stats['off'].retired}")
        divergence = _diff_states(states["off"], states["on"])
        if divergence:
            problems.append(divergence)
    report.checks.append(Check("optimizer-on-vs-off", not problems,
                               "; ".join(problems)))

    # ---- (c) segmented vs monolithic merge ---------------------------
    problems = []
    for label, config in (("on", optimized), ("off", base)):
        if errors[label]:
            problems.append(f"[opt-{label}] monolithic run failed: "
                            f"{errors[label]}")
            continue
        arch = ArchState(program)
        partials = []
        segment_error = ""
        for segment in _segments(trace, segment_insns):
            partial, segment_error = _run_pipeline(segment, config, arch)
            if segment_error:
                problems.append(f"[opt-{label}] segment failed: "
                                f"{segment_error}")
                break
            partials.append(partial)
        if segment_error:
            continue
        merged = (PipelineStats.merge_all(partials) if partials
                  else PipelineStats())
        for field_name in EXACT_MERGE_FIELDS:
            mono = getattr(stats[label], field_name)
            seg = getattr(merged, field_name)
            if mono != seg:
                problems.append(f"[opt-{label}] {field_name}: "
                                f"monolithic {mono}, segmented {seg}")
        divergence = _diff_states(oracle, arch.state_dict())
        if divergence:
            problems.append(f"[opt-{label}] {divergence}")
    report.checks.append(Check("segmented-vs-monolithic", not problems,
                               "; ".join(problems)))
    return report


@register_executor("fuzz-check")
def _fuzz_check_unit(payload, env) -> ProgramReport:
    """One fuzzed program's full differential check (store-free)."""
    name, scale, segment_insns, max_instructions = payload
    return check_workload(name, scale=scale,
                          segment_insns=segment_insns,
                          max_instructions=max_instructions)


def run_fuzz(seeds: range, families: tuple[str, ...] = FAMILIES,
             scale: int = 1, small: bool = False,
             segment_insns: int = DEFAULT_SEGMENT_INSNS,
             progress: Callable[[FindingEvent], None] | None = None,
             jobs: int | None = 1, backend=None) -> FuzzReport:
    """Differential-check every ``(family, seed)`` synthetic program.

    ``small=True`` shrinks every family's parameters to smoke budgets
    (CI's ``fuzz-smoke`` job).  ``progress``, if given, receives one
    :class:`~repro.engine.events.FindingEvent` per checked program.

    Each program is one ``fuzz-check`` work unit; ``jobs``/``backend``
    fan them out exactly like a sweep.  Reports are absorbed into
    spec-order slots and events emitted for the completed *prefix*, so
    the report list and the event stream are identical on every
    backend.
    """
    specs = fuzz_specs(seeds, families=families, small=small)
    fuzz = FuzzReport()
    slots: list[ProgramReport | None] = [None] * len(specs)
    emitted = 0

    def _emit_ready() -> None:
        nonlocal emitted
        while emitted < len(specs) and slots[emitted] is not None:
            report = slots[emitted]
            fuzz.programs.append(report)
            emitted += 1
            if progress is not None:
                progress(FindingEvent(
                    workload=report.workload, scale=report.scale,
                    instructions=report.instructions, ok=report.ok,
                    done=emitted, total=len(specs),
                    failures=tuple(f"{c.name}: {c.detail}"
                                   for c in report.failures)))

    backend, owned = resolve_backend(backend, jobs=jobs,
                                     units=len(specs))
    try:
        group = backend.group()
        tickets: dict[int, int] = {}
        for index, spec in enumerate(specs):
            ticket = group.submit(WorkUnit(
                "fuzz-check",
                (spec.name, scale, segment_insns,
                 scale * DEFAULT_MAX_INSTRUCTIONS), phase="fuzz"))
            tickets[ticket] = index
        while group.pending:
            ticket, report = group.wait_any()
            slots[tickets.pop(ticket)] = report
            _emit_ready()
    finally:
        if owned:
            backend.close()
    return fuzz


def format_report(fuzz: FuzzReport) -> str:
    """Human-readable fuzz summary (one line per failing program)."""
    lines = [f"fuzz: {len(fuzz.programs)} programs, "
             f"{len(fuzz.failed)} failed"]
    for program in fuzz.failed:
        for check in program.failures:
            lines.append(f"  FAIL {program.workload}@{program.scale} "
                         f"{check.name}: {check.detail}")
    if fuzz.ok and fuzz.programs:
        lines.append("  all differential checks passed "
                     "(emulator vs pipeline, optimizer on/off, "
                     "segmented vs monolithic)")
    return "\n".join(lines)

"""Register-pressure and pressure-relief tests for the optimizer.

The optimizer's extended register lifetimes (symbolic bases, MBC pins)
must never deadlock rename: under pressure it sheds hint state (MBC
entries, then symbolic RAT entries), which is always safe.
"""

from repro.functional import run_program
from repro.isa import assemble
from repro.uarch import PhysRegFile, optimized_config, simulate_trace
from repro.core.optimizer import OptimizingRenamer


def run_small_prf(source: str, num_pregs: int, **overrides):
    """Simulate with an artificially tiny physical register file."""
    from dataclasses import replace
    config = replace(optimized_config(**overrides), num_pregs=num_pregs)
    trace = run_program(assemble(source)).trace
    return simulate_trace(trace, config)


LOOP = """.data
arr:    .space 512
.text
        ldi r1, 60
        ldi r2, arr
loop:   ldq r3, 0(r2)
        add r4, r4, r3
        stq r4, 0(r2)
        lda r2, 8(r2)
        sub r1, r1, 1
        bne r1, loop
        halt
"""


class TestPressureRelief:
    def test_tiny_prf_completes(self):
        # 64 arch mappings + a small margin: the MBC and symbolic
        # pins must be shed rather than deadlock.
        stats = run_small_prf(LOOP, num_pregs=96)
        assert stats.retired == 362

    def test_moderate_prf_completes(self):
        stats = run_small_prf(LOOP, num_pregs=128)
        assert stats.retired == 362

    def test_pressure_recorded(self):
        stats = run_small_prf(LOOP, num_pregs=96)
        ample = run_small_prf(LOOP, num_pregs=512)
        assert stats.preg_high_water <= 96
        assert ample.cycles <= stats.cycles  # pressure can only hurt

    def test_relieve_pressure_frees_mbc_pins(self):
        config = optimized_config()
        prf = PhysRegFile(70)  # 62 initial mappings + 8 spare
        renamer = OptimizingRenamer(prf, config)
        from repro.core import symbolic
        spare = [prf.allocate() for _ in range(prf.num_free)]
        for index, preg in enumerate(spare):
            renamer.mbc.insert(0x1000 + 8 * index, 8,
                               symbolic.plain(preg), 0)
            prf.release_all((preg,))  # only the MBC pin remains
        assert prf.num_free == 0
        assert renamer.relieve_pressure()
        assert prf.num_free > 0

    def test_relieve_pressure_false_when_nothing_to_shed(self):
        config = optimized_config()
        prf = PhysRegFile(70)
        renamer = OptimizingRenamer(prf, config)
        held = [prf.allocate() for _ in range(prf.num_free)]
        assert not renamer.relieve_pressure()
        for preg in held:
            prf.release_all((preg,))


class TestAblationConfig:
    def test_rle_sf_can_be_disabled(self):
        source = """.data
v:      .quad 7
.text
        ldi r1, v
        ldq r2, 0(r1)
        nop
        nop
        nop
        ldq r3, 0(r1)
        halt
"""
        trace = run_program(assemble(source)).trace
        with_mbc = simulate_trace(trace, optimized_config())
        without_mbc = simulate_trace(
            trace, optimized_config(enable_rle_sf=False))
        assert with_mbc.loads_removed == 1
        assert without_mbc.loads_removed == 0
        # Address generation (CP/RA) still works without the MBC.
        assert without_mbc.mem_addr_known == 2

    def test_ablation_experiment_runs(self):
        from repro.experiments import ablation
        rows = ablation.run(workloads_per_suite=1)
        assert len(rows) == 3
        for row in rows:
            assert set(row.bars) == {label for label, _
                                     in ablation.SCENARIOS}
        assert "Ablation" in ablation.format(rows)

"""Integration tests for the continuous optimizer (optimized pipeline).

Each test builds a small program whose optimization behaviour is known
from the paper's description, runs it through the optimized machine,
and asserts the relevant effect counters.  Strict verification is on
throughout: if the optimizer ever produced a wrong value, address, or
branch direction, the run itself would raise ``VerificationError``.
"""

from repro.functional import run_program
from repro.isa import assemble
from repro.uarch import default_config, optimized_config, simulate_trace


def run_opt(source: str, **overrides):
    trace = run_program(assemble(source)).trace
    return simulate_trace(trace, optimized_config(**overrides))


def run_both(source: str, **overrides):
    trace = run_program(assemble(source)).trace
    base = simulate_trace(trace, default_config())
    opt = simulate_trace(trace, optimized_config(**overrides))
    return base, opt


class TestEarlyExecution:
    def test_constant_chain_executes_early(self):
        stats = run_opt(""".text
        ldi r1, 5
        add r2, r1, 3
        add r3, r2, 4
        halt
""")
        # ldi is a constant generator; the adds fold (subject to the
        # bundle-depth limit, at least one of them).
        assert stats.early_executed >= 2

    def test_unknown_values_not_early(self):
        stats = run_opt(""".data
v:      .quad 7
.text
        ldi r1, v
        ldq r2, 0(r1)
        ldq r3, 0(r1)
        mul r4, r2, r3
        halt
""")
        # The multiply of two loaded values cannot execute early on a
        # cold MBC... but the RLE'd second load can; the mul of two
        # symbolic values stays in the core.
        assert stats.retired == 4

    def test_jsr_link_is_early(self):
        stats = run_opt(""".text
        jsr func
        halt
func:   ret
""")
        # jsr link value is a decode-time constant; br/jsr are early.
        assert stats.early_executed >= 1

    def test_early_fraction_in_sane_range(self):
        stats = run_opt(""".text
        ldi r1, 40
loop:   sub r1, r1, 1
        bne r1, loop
        halt
""")
        assert 0.0 < stats.frac_early_executed <= 1.0


class TestEarlyBranchResolution:
    def test_constant_loop_branch_resolves_early(self):
        stats = run_opt(""".text
        ldi r1, 30
loop:   sub r1, r1, 1
        bne r1, loop
        halt
""")
        # The induction variable is a constant chain, so the loop-exit
        # mispredict is recovered at rename.
        assert stats.mispredicts_recovered_early >= 1

    def test_recovery_cheaper_than_full_penalty(self):
        # A loop whose exit branch mispredicts: the optimized machine
        # recovers at rename and must not be slower than baseline
        # despite its two extra pipeline stages.
        source = """.text
        ldi r5, 8
outer:  ldi r1, 6
inner:  sub r1, r1, 1
        bne r1, inner
        sub r5, r5, 1
        bne r5, outer
        halt
"""
        base, opt = run_both(source)
        assert opt.mispredicts_recovered_early >= 1
        assert opt.cycles <= base.cycles * 1.1

    def test_data_dependent_branch_not_recovered(self):
        stats = run_opt(""".data
v:      .quad 1
.text
        ldi r1, v
        ldq r2, 0(r1)
        beq r2, skip
        nop
skip:   halt
""")
        # The branch source comes from a cold load: unknowable at
        # rename on the first (only) encounter.
        assert stats.mispredicts_recovered_early == 0


class TestAddressGeneration:
    def test_constant_base_addresses_known(self):
        stats = run_opt(""".data
arr:    .space 64
.text
        ldi r1, arr
        ldq r2, 0(r1)
        ldq r3, 8(r1)
        stq r2, 16(r1)
        halt
""")
        assert stats.mem_ops == 3
        assert stats.mem_addr_known == 3

    def test_pointer_bump_chain_stays_known(self):
        stats = run_opt(""".data
arr:    .space 80
.text
        ldi r1, arr
        ldi r2, 10
loop:   ldq r3, 0(r1)
        lda r1, 8(r1)
        sub r2, r2, 1
        bne r2, loop
        halt
""")
        # lda keeps the base symbolically known: (arr + 8k).
        assert stats.frac_mem_addr_gen > 0.8

    def test_loaded_base_unknown(self):
        stats = run_opt(""".data
ptr:    .quad 0x200000
.text
        ldi r1, ptr
        ldq r2, 0(r1)
        ldq r3, 0(r2)
        halt
""")
        # First load's address is known; the second depends on loaded
        # data (pointer chase) and is not.
        assert stats.mem_addr_known == 1

    def test_mem_depth_admits_same_bundle_forwarded_base(self):
        # The first ldq of the final bundle is store-forwarded (a
        # constant pointer), so the second ldq's base carries a
        # one-deep MBC chain from the same rename bundle.  Its address
        # is usable at rename only when mem_depth allows that chain.
        source = """.data
ptr:    .space 8
val:    .quad 5
.text
        ldi r1, ptr
        ldi r2, val
        stq r2, 0(r1)
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        ldq r3, 0(r1)
        ldq r4, 0(r3)
        halt
"""
        shallow = run_opt(source, mem_depth=0)
        deep = run_opt(source, mem_depth=1)
        assert shallow.loads_removed == deep.loads_removed == 1
        assert shallow.mem_addr_known == 2
        assert deep.mem_addr_known == 3
        assert (shallow.cycles, deep.cycles) == (137, 136)


class TestRedundantLoadElimination:
    def test_second_load_removed(self):
        stats = run_opt(""".data
v:      .quad 7
pad:    .space 8
.text
        ldi r1, v
        ldq r2, 0(r1)
        nop
        nop
        nop
        nop
        ldq r3, 0(r1)
        halt
""")
        assert stats.loads == 2
        assert stats.loads_removed == 1
        assert stats.mbc_hits == 1

    def test_rle_disabled_without_opt(self):
        stats = run_opt(""".data
v:      .quad 7
.text
        ldi r1, v
        ldq r2, 0(r1)
        nop
        nop
        ldq r3, 0(r1)
        halt
""", enable_opt=False)
        assert stats.loads_removed == 0

    def test_different_sizes_do_not_forward(self):
        stats = run_opt(""".data
v:      .quad 7
.text
        ldi r1, v
        ldq r2, 0(r1)
        nop
        nop
        ldl r3, 0(r1)
        halt
""")
        assert stats.loads_removed == 0


class TestStoreForwarding:
    def test_load_after_store_removed(self):
        stats = run_opt(""".data
buf:    .space 8
.text
        ldi r1, buf
        ldi r2, 99
        stq r2, 0(r1)
        nop
        nop
        nop
        ldq r3, 0(r1)
        halt
""")
        assert stats.loads_removed == 1

    def test_same_bundle_dependence_not_satisfied(self):
        # Section 3.2: no dependences within a rename packet are
        # satisfied by RLE/SF.  Store and load back-to-back (same
        # 4-instruction bundle) must not forward.
        stats = run_opt(""".data
buf:    .space 8
.text
        ldi r1, buf
        ldi r2, 99
        stq r2, 0(r1)
        ldq r3, 0(r1)
        halt
""")
        assert stats.loads_removed == 0

    def test_unknown_address_store_invalidates_at_execute(self):
        # The store's base is loaded (unknown at rename); the paper's
        # speculative mode invalidates matching entries at execution,
        # and any wrongly forwarded load is caught by the value check.
        stats = run_opt(""".data
buf:    .quad 5
bufp:   .quad buf
.text
        ldi r1, buf
        ldq r2, 0(r1)
        ldi r3, bufp
        ldq r4, 0(r3)
        ldi r5, 42
        nop
        nop
        nop
        stq r5, 0(r4)
        nop
        nop
        nop
        ldq r6, 0(r1)
        halt
""")
        # The run completing proves no stale value was architecturally
        # used; the final load may be recovered via misspeculation.
        assert stats.retired == 13


class TestValueFeedback:
    def test_feedback_enables_later_early_execution(self):
        # A loop counter loaded from memory: early iterations rename
        # before the (missing) load completes and fill the window; the
        # fed-back value then turns the remaining iterations into
        # optimizer work.  This is the paper's Section 2.4 narrative.
        # The loop body spans a rename bundle (as the paper's Section
        # 2.4 example does) so the counter's reassociated chain stays
        # rooted at the load's physical register across iterations.
        source = """.data
n:      .quad 400
.text
        ldi r1, n
        ldq r2, 0(r1)
loop:   add r4, r4, 2
        xor r5, r5, r4
        or  r6, r6, r5
        sub r2, r2, 1
        bne r2, loop
        halt
"""
        with_fb = run_opt(source)
        without_fb = run_opt(source, enable_feedback=False)
        assert with_fb.early_executed > without_fb.early_executed

    def test_feedback_off_records_no_known_values(self):
        # With feedback off the renamer probes its own empty table, so
        # an early result written to the channel's would never be read.
        from repro.uarch.pipeline import make_pipeline
        from repro.workloads import build_trace
        pipeline = make_pipeline(build_trace("gcc").trace,
                                 optimized_config(enable_feedback=False))
        stats = pipeline.run()
        assert stats.early_executed > 0
        assert pipeline.renamer.feedback.known == {}

    def test_feedback_only_mode_still_executes_early(self):
        stats = run_opt(""".data
n:      .quad 30
.text
        ldi r1, n
        ldq r2, 0(r1)
loop:   sub r2, r2, 1
        bne r2, loop
        halt
""", enable_opt=False)
        # Known values arrive from the execution units and allow some
        # early execution even with symbolic optimization off.
        assert stats.early_executed > 0


class TestOptimizerCosts:
    def test_two_extra_stages_hurt_unoptimizable_code(self):
        # Pure FP dependence chain: nothing to optimize, so the deeper
        # pipeline can only match or lose to baseline.
        source = """.text
        ldi r1, 9
        itof f1, r1
        ldi r2, 50
loop:   fmul f1, f1, f1
        fadd f1, f1, f1
        sub r2, r2, 1
        bne r2, loop
        halt
"""
        base, opt = run_both(source)
        assert opt.cycles >= base.cycles * 0.95

    def test_zero_extra_stages_closes_gap(self):
        source = """.text
        ldi r2, 50
loop:   fmul f1, f1, f1
        sub r2, r2, 1
        bne r2, loop
        halt
"""
        two_stage = run_opt(source, opt_stages=2)
        zero_stage = run_opt(source, opt_stages=0)
        assert zero_stage.cycles <= two_stage.cycles


class TestStatsPlumbing:
    def test_optimizer_counters_exported(self):
        stats = run_opt(""".text
        ldi r1, 4
        add r2, r1, 1
        halt
""")
        assert "opt_early" in stats.extra
        assert "opt_rewritten" in stats.extra
        assert stats.extra["opt_early"] == stats.early_executed

    def test_strength_reduction_counted(self):
        stats = run_opt(""".data
v:      .quad 3
.text
        ldi r1, v
        ldq r2, 0(r1)
        mul r3, r2, 8
        halt
""")
        assert stats.extra["opt_strength_reductions"] >= 1

    def test_branch_inference_counted(self):
        stats = run_opt(""".data
v:      .quad 0
.text
        ldi r1, v
        ldq r2, 0(r1)
        beq r2, zero
        nop
zero:   add r3, r2, 5
        halt
""")
        # beq taken implies r2 == 0, so the downstream add can fold.
        assert stats.extra["opt_branch_inferences"] >= 1

"""Unit tests for machine/optimizer configuration (paper Table 2)."""

from dataclasses import replace

import pytest

from repro.uarch import (CacheConfig, MachineConfig, default_config,
                         optimized_config)


class TestTable2Defaults:
    def test_widths(self):
        config = default_config()
        assert config.fetch_width == 4
        assert config.rename_width == 4
        assert config.retire_width == 6

    def test_window_and_schedulers(self):
        config = default_config()
        assert config.rob_size == 160
        assert config.sched_entries == 8

    def test_functional_units(self):
        config = default_config()
        assert config.n_simple_ialu == 4
        assert config.n_complex_ialu == 1
        assert config.n_fpalu == 2
        assert config.n_agen == 2

    def test_cache_hierarchy(self):
        config = default_config()
        assert config.il1.size_bytes == 64 * 1024
        assert config.il1.assoc == 4
        assert config.dl1.size_bytes == 32 * 1024
        assert config.dl1.line_bytes == 32
        assert config.l2.size_bytes == 1024 * 1024
        assert config.l2.latency == 10
        assert config.memory_latency == 100

    def test_branch_predictor(self):
        config = default_config()
        assert config.gshare_bits == 18
        assert config.btb_entries == 1024

    def test_min_branch_penalty_is_20(self):
        assert default_config().min_branch_penalty() == 20

    def test_optimizer_adds_two_stages(self):
        config = optimized_config()
        assert config.min_branch_penalty() == 22
        assert config.effective_rename_stages == 4

    def test_optimizer_defaults(self):
        opt = optimized_config().optimizer
        assert opt.enabled
        assert opt.mbc_entries == 128
        assert opt.vf_delay == 1
        assert opt.opt_stages == 2
        assert opt.add_depth == 0
        assert opt.mem_depth == 0
        assert opt.verify

    def test_baseline_optimizer_disabled(self):
        assert not default_config().optimizer.enabled


class TestVariants:
    def test_with_optimizer_overrides(self):
        config = default_config().with_optimizer(vf_delay=5, add_depth=3)
        assert config.optimizer.enabled
        assert config.optimizer.vf_delay == 5
        assert config.optimizer.add_depth == 3

    def test_without_optimizer_roundtrip(self):
        config = optimized_config().without_optimizer()
        assert not config.optimizer.enabled
        assert config.effective_rename_stages == config.rename_stages

    def test_fetch_bound_doubles_schedulers(self):
        config = default_config().fetch_bound()
        assert config.sched_entries == 16
        assert config.fetch_width == 4  # unchanged

    def test_execution_bound_widens_frontend(self):
        config = default_config().execution_bound()
        assert config.fetch_width == 8
        assert config.rename_width == 8
        assert config.sched_entries == 8  # unchanged

    def test_configs_hashable_for_caching(self):
        configs = {default_config(), optimized_config(),
                   default_config().fetch_bound()}
        assert len(configs) == 3
        assert default_config() == MachineConfig()

    def test_cache_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=3, line_bytes=32, latency=1)


class TestRanges:
    """A machine the pipeline cannot run is rejected when it is built."""

    @pytest.mark.parametrize("field, value", [
        ("rob_size", 0), ("sched_entries", 0), ("fetch_width", 0),
        ("rename_width", 0), ("retire_width", 0), ("n_agen", 0),
        ("frontend_depth", 0), ("rename_stages", -1),
        ("regread_stages", -1), ("num_pregs", 62), ("num_pregs", 40),
    ])
    def test_machine_field_below_minimum(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(default_config(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mbc_entries", 0), ("vf_delay", -1), ("add_depth", -1),
        ("mem_depth", -1), ("opt_stages", -1),
    ])
    def test_optimizer_field_below_minimum(self, field, value):
        with pytest.raises(ValueError, match=field):
            default_config().with_optimizer(**{field: value})

    def test_cache_latency_below_minimum(self):
        with pytest.raises(ValueError, match="latency"):
            CacheConfig(size_bytes=1024, assoc=2, line_bytes=32,
                        latency=-1)

    def test_smallest_machine_is_accepted(self):
        config = replace(default_config(), rob_size=1, sched_entries=1,
                         fetch_width=1, frontend_depth=1, rename_stages=0,
                         dispatch_stages=0, regread_stages=0, num_pregs=63)
        assert config.with_optimizer(opt_stages=0, vf_delay=0,
                                     mbc_entries=1).num_pregs == 63

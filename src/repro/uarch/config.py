"""Machine and optimizer configuration (Table 2 of the paper).

:class:`MachineConfig` defaults reproduce the paper's simulated machine:
4-wide fetch/decode/rename, 6-wide retire, an 18-bit gshare predictor
with a 1K-entry BTB, a 20-cycle minimum branch-resolution loop, four
8-entry schedulers, a 160-entry instruction window, 4 simple integer
ALUs + 1 complex + 2 FP + 2 agen, and a 64KB/32KB/1MB cache hierarchy
with 100-cycle memory.

:class:`OptimizerConfig` holds the continuous-optimization knobs that
the paper's sensitivity studies sweep: the number of extra rename
stages (Figure 11), the value-feedback transmission delay (Figure 12),
the intra-bundle dependence depths (Figure 10), and the MBC size.

The baseline machine (optimizer disabled) has two fewer rename stages,
exactly as in Section 4.2: enabling the optimizer adds
``optimizer.opt_stages`` cycles to the front end.

Every configuration checks its ranges when it is built (including by
``dataclasses.replace``) and raises a :class:`ValueError` naming the
field, so a machine the pipeline cannot run never reaches it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from ..isa.registers import NUM_ARCH_REGS, is_zero_reg

#: Architectural registers the RAT maps to a physical register at reset
#: (all but the two zero registers).
RAT_MAPPED_REGS = sum(not is_zero_reg(arch) for arch in range(NUM_ARCH_REGS))


def canonical_json(data: dict) -> str:
    """The repo-wide canonical JSON form: sorted keys, no whitespace.

    Every content-addressed key and persisted artifact must go through
    this one function so serialized identities can never drift apart.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _check_minimums(config, minimums: dict[str, int]) -> None:
    """Raise a ValueError naming the first field below its minimum."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


class _StableKeyMixin:
    """Explicit cross-process identity for frozen config dataclasses.

    ``dataclass`` ``__hash__`` is only stable within one interpreter;
    anything persisted to disk or shipped to a worker process must key
    on an explicit canonical serialization instead.
    """

    def config_dict(self) -> dict:
        """A plain nested dict of every field (JSON-serializable)."""
        return asdict(self)

    def canonical_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace."""
        return canonical_json(self.config_dict())

    def cache_key(self) -> str:
        """A stable content hash of this configuration."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class CacheConfig(_StableKeyMixin):
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    def __post_init__(self) -> None:
        _check_minimums(self, {"size_bytes": 1, "assoc": 1,
                               "line_bytes": 1, "latency": 0})
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("cache size must be a multiple of "
                             "assoc * line size")
        num_sets = self.size_bytes // (self.assoc * self.line_bytes)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, "
                             f"got {num_sets}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class OptimizerConfig(_StableKeyMixin):
    """Continuous-optimizer parameters (Sections 3 and 6)."""

    #: Master switch: False gives the paper's baseline machine.
    enabled: bool = False
    #: Symbolic CP/RA and RLE/SF transformations (Figure 9 disables
    #: this while keeping value feedback).
    enable_opt: bool = True
    #: RLE/SF via the Memory Bypass Cache; disable to ablate the memory
    #: optimizations while keeping CP/RA (used by the ablation bench).
    enable_rle_sf: bool = True
    #: Value feedback from the execution units (Section 2.2).
    enable_feedback: bool = True
    #: Extra rename pipeline stages the optimizer adds (Figure 11).
    opt_stages: int = 2
    #: Value-feedback transmission delay in cycles (Figure 12).
    vf_delay: int = 1
    #: Memory Bypass Cache capacity in entries (Section 3.2).
    mbc_entries: int = 128
    #: Chained intra-bundle additions allowed (Figure 10: 0 default).
    add_depth: int = 0
    #: Chained intra-bundle MBC queries allowed (Figure 10: 0 default).
    mem_depth: int = 0
    #: Strict expression/value checking against the oracle trace
    #: (Section 4.2).  Leave on; it is how the reproduction proves the
    #: optimizer never fabricates values.
    verify: bool = True

    def __post_init__(self) -> None:
        _check_minimums(self, {"opt_stages": 0, "vf_delay": 0,
                               "mbc_entries": 1, "add_depth": 0,
                               "mem_depth": 0})


@dataclass(frozen=True)
class MachineConfig(_StableKeyMixin):
    """Full simulated machine configuration (paper Table 2)."""

    # widths
    fetch_width: int = 4
    rename_width: int = 4
    retire_width: int = 6
    # pipeline depths (cycles); chosen so that the minimum branch
    # misprediction resolution loop of the *baseline* machine is 20
    # cycles, per Table 2
    frontend_depth: int = 11  # fetch -> rename-entry
    rename_stages: int = 2
    dispatch_stages: int = 2  # rename-exit -> scheduler entry
    regread_stages: int = 2  # issue -> execute
    redirect_penalty: int = 1  # resolve -> first refetch
    # window
    sched_entries: int = 8  # per scheduler; four schedulers
    rob_size: int = 160
    num_pregs: int = 512  # unified physical register pool
    # functional units
    n_simple_ialu: int = 4
    n_complex_ialu: int = 1
    n_fpalu: int = 2
    n_agen: int = 2
    dcache_ports: int = 2
    # branch prediction
    gshare_bits: int = 18
    btb_entries: int = 1024
    ras_entries: int = 16
    btb_miss_penalty: int = 2
    # memory hierarchy
    il1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, assoc=4, line_bytes=64, latency=1))
    dl1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, assoc=2, line_bytes=32, latency=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=1024 * 1024, assoc=2, line_bytes=128, latency=10))
    memory_latency: int = 100
    # the paper's contribution
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        _check_minimums(self, _MACHINE_MINIMUMS)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def effective_rename_stages(self) -> int:
        """Rename depth including the optimizer's extra stages."""
        extra = self.optimizer.opt_stages if self.optimizer.enabled else 0
        return self.rename_stages + extra

    def min_branch_penalty(self) -> int:
        """Minimum cycles from fetch of a mispredicted branch to refetch.

        This is the paper's "20 cycles (min) for BR res" figure for the
        baseline machine; the optimizer adds its extra rename stages.
        """
        return (self.frontend_depth + self.effective_rename_stages
                + self.dispatch_stages + 1  # one cycle in the scheduler
                + self.regread_stages + 1  # branch executes in 1 cycle
                + self.redirect_penalty)

    # ------------------------------------------------------------------
    # named variants used throughout the evaluation
    # ------------------------------------------------------------------

    def with_optimizer(self, **overrides) -> "MachineConfig":
        """This machine with continuous optimization enabled."""
        opt = replace(self.optimizer, enabled=True, **overrides)
        return replace(self, optimizer=opt)

    def without_optimizer(self) -> "MachineConfig":
        """This machine with the optimizer disabled (the baseline)."""
        return replace(self, optimizer=replace(self.optimizer,
                                               enabled=False))

    def fetch_bound(self) -> "MachineConfig":
        """Figure 8's fetch-bound variant: double the scheduler entries."""
        return replace(self, sched_entries=self.sched_entries * 2)

    def execution_bound(self) -> "MachineConfig":
        """Figure 8's execution-bound variant: 8-wide front end."""
        return replace(self, fetch_width=8, rename_width=8)


#: The smallest value of each integer :class:`MachineConfig` field that
#: the pipeline can run.
_MACHINE_MINIMUMS = {
    # widths, capacities and unit counts
    "fetch_width": 1, "rename_width": 1, "retire_width": 1,
    "sched_entries": 1, "rob_size": 1, "btb_entries": 1, "ras_entries": 1,
    "n_simple_ialu": 1, "n_complex_ialu": 1, "n_fpalu": 1, "n_agen": 1,
    "dcache_ports": 1,
    # fetch must reach rename through at least one front-end cycle
    "frontend_depth": 1,
    # stage counts, delays and depths
    "rename_stages": 0, "dispatch_stages": 0, "regread_stages": 0,
    "redirect_penalty": 0, "btb_miss_penalty": 0, "memory_latency": 0,
    "gshare_bits": 0,
    # one physical register beyond the reset mappings, or no rename
    # can ever allocate
    "num_pregs": RAT_MAPPED_REGS + 1,
}


def default_config() -> MachineConfig:
    """The paper's baseline machine (Table 2), optimizer disabled."""
    return MachineConfig()


def optimized_config(**overrides) -> MachineConfig:
    """The paper's machine with continuous optimization enabled."""
    return MachineConfig().with_optimizer(**overrides)

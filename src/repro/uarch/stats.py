"""Statistics collected by one timing-simulation run.

Covers everything the paper's evaluation reports:

* cycles and IPC (speedup figures 6, 8-12),
* the Table 3 optimizer-effect counters (early execution, early branch
  recovery, rename-time address generation, load removal),
* supporting counters (cache hits/misses, predictor accuracy, stall
  breakdowns) that the benchmarks under ``benchmarks/`` report; the
  committed results are in ``benchmarks/results/`` and the README's
  "Performance" section.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable

from .config import canonical_json

#: Counters combined with ``max`` (not ``+``) by :meth:`PipelineStats.merge`:
#: peak values, not event counts.
_MERGE_MAX_FIELDS = frozenset({"preg_high_water"})

#: Counters that merge **exactly** across trace segments for any
#: machine configuration: each trace entry is fetched/retired exactly
#: once no matter how the trace is split, so these are invariant under
#: segmentation.  (Cycle counts, cache/predictor/optimizer counters
#: are not: every segment restarts a cold microarchitecture.)  The
#: differential harness and the segmentation tests both check against
#: this list.
EXACT_MERGE_FIELDS = ("retired", "fetched", "loads", "mem_ops",
                      "cond_branches", "indirect_jumps")


@dataclass
class PipelineStats:
    """Mutable counter block filled in by the pipeline."""

    # progress
    cycles: int = 0
    retired: int = 0
    # front end
    fetched: int = 0
    fetch_icache_stall_cycles: int = 0
    fetch_blocked_cycles: int = 0
    btb_bubbles: int = 0
    # branches
    cond_branches: int = 0
    cond_mispredicts: int = 0
    indirect_jumps: int = 0
    indirect_mispredicts: int = 0
    mispredicts_recovered_early: int = 0
    # rename
    rename_stall_rob: int = 0
    rename_stall_pregs: int = 0
    rename_stall_dispatch: int = 0
    # optimizer effects (Table 3)
    early_executed: int = 0
    early_branches: int = 0
    mem_ops: int = 0
    mem_addr_known: int = 0
    loads: int = 0
    loads_removed: int = 0
    stores_forwardable: int = 0
    mbc_hits: int = 0
    mbc_misses: int = 0
    mbc_invalidations: int = 0
    optimizer_verify_failures: int = 0
    # execution
    issued: int = 0
    dcache_accesses: int = 0
    store_forwards_lsq: int = 0
    # memory hierarchy (filled from the cache objects at the end)
    il1_hits: int = 0
    il1_misses: int = 0
    dl1_hits: int = 0
    dl1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    # register file
    preg_high_water: int = 0
    preg_alloc_stalls: int = 0
    # derived inputs
    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.retired / self.cycles

    @property
    def total_mispredicts(self) -> int:
        return self.cond_mispredicts + self.indirect_mispredicts

    @property
    def frac_early_executed(self) -> float:
        """Fraction of the instruction stream executed in the optimizer."""
        if self.retired == 0:
            return 0.0
        return self.early_executed / self.retired

    @property
    def frac_mispredicts_recovered(self) -> float:
        """Fraction of mispredicted branches resolved at rename."""
        if self.total_mispredicts == 0:
            return 0.0
        return self.mispredicts_recovered_early / self.total_mispredicts

    @property
    def frac_mem_addr_gen(self) -> float:
        """Fraction of loads/stores with rename-time addresses."""
        if self.mem_ops == 0:
            return 0.0
        return self.mem_addr_known / self.mem_ops

    @property
    def frac_loads_removed(self) -> float:
        """Fraction of loads converted to moves by RLE/SF."""
        if self.loads == 0:
            return 0.0
        return self.loads_removed / self.loads

    # ------------------------------------------------------------------
    # merging (segmented simulation combines per-segment partials)
    # ------------------------------------------------------------------

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        """Combine two partial stats blocks into one (associative).

        Event counters add; peak counters (``preg_high_water``) take
        the max; ``extra`` entries add per key.  Merging the stats of
        consecutive trace segments yields the whole run's instruction
        and event counters exactly; the summed ``cycles`` includes one
        pipeline fill + drain per segment, so derived rates (IPC,
        miss rates) are approximations of the monolithic run.
        """
        merged = PipelineStats()
        for spec in fields(self):
            if spec.name == "extra":
                continue
            a = getattr(self, spec.name)
            b = getattr(other, spec.name)
            setattr(merged, spec.name,
                    max(a, b) if spec.name in _MERGE_MAX_FIELDS else a + b)
        extra = dict(self.extra)
        for key, value in other.extra.items():
            extra[key] = extra.get(key, 0) + value
        merged.extra = extra
        return merged

    @classmethod
    def merge_all(cls, parts: Iterable["PipelineStats"]) -> "PipelineStats":
        """Fold any number of partial stats blocks into one."""
        merged: PipelineStats | None = None
        for part in parts:
            merged = part if merged is None else merged.merge(part)
        if merged is None:
            raise ValueError("merge_all of no stats")
        return merged

    # ------------------------------------------------------------------
    # serialization (the engine's artifact store persists stats as JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Every counter as a plain dict (JSON-serializable)."""
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineStats":
        """Rebuild a stats block from :meth:`to_dict` output.

        Forward/backward compatible: unknown keys are ignored and
        missing ones take their defaults, so artifacts written by an
        older or newer stats schema still load (the store's
        ``FORMAT_VERSION`` guards genuinely incompatible changes).
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "PipelineStats":
        """Rebuild a stats block from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> dict[str, float]:
        """A flat dict of headline metrics for reports."""
        return {
            "cycles": self.cycles,
            "retired": self.retired,
            "ipc": round(self.ipc, 4),
            "early_executed_pct": round(100 * self.frac_early_executed, 2),
            "mispred_recovered_pct": round(
                100 * self.frac_mispredicts_recovered, 2),
            "mem_addr_gen_pct": round(100 * self.frac_mem_addr_gen, 2),
            "loads_removed_pct": round(100 * self.frac_loads_removed, 2),
            "cond_mispredict_rate": round(
                self.cond_mispredicts / self.cond_branches, 4)
            if self.cond_branches else 0.0,
        }

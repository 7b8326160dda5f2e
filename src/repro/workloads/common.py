"""Shared helpers for the workload kernels.

The paper evaluates SPEC2000 and mediabench Alpha binaries.  Those
binaries and inputs are not redistributable, so each benchmark is
represented here by a hand-written assembly kernel that reproduces the
benchmark's *dominant loop structure* — the code the paper's analysis
itself points at (e.g. mcf's ``sort_basket`` quicksort, untoast's
``Short_term_synthesis_filtering``).  DESIGN.md Section 2 records
this substitution.

This module holds the common assembly idioms: a linear congruential
generator for reproducible pseudo-random data, and fragments for
filling arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: LCG parameters (glibc-style); all kernels derive their data from it
#: so runs are deterministic.
LCG_MUL = 1103515245
LCG_ADD = 12345
LCG_MASK = 0x7FFFFFFF


def lcg_step(state_reg: str, tmp_reg: str) -> str:
    """Assembly for one LCG step: ``state = (state*MUL+ADD) & MASK``.

    The multiply is intentionally *not* a power of two: the paper's
    optimizer cannot strength-reduce it, so pseudo-random data is
    opaque to constant propagation exactly like real input data.
    """
    return (f"        mul   {tmp_reg}, {state_reg}, {LCG_MUL}\n"
            f"        add   {tmp_reg}, {tmp_reg}, {LCG_ADD}\n"
            f"        and   {state_reg}, {tmp_reg}, {LCG_MASK}\n")


def lcg_python(state: int) -> int:
    """The same LCG step in Python, for computing expected checksums."""
    return (state * LCG_MUL + LCG_ADD) & LCG_MASK


def fill_random_quads(label: str, count_reg: str, count: int,
                      ptr_reg: str, state_reg: str, tmp_reg: str,
                      value_mask: int) -> str:
    """Assembly fragment filling *count* quads at *label* with LCG data."""
    body = (f"        ldi   {count_reg}, {count}\n"
            f"        ldi   {ptr_reg}, {label}\n"
            f"fill_{label}:\n")
    body += lcg_step(state_reg, tmp_reg)
    body += (f"        and   {tmp_reg}, {state_reg}, {value_mask}\n"
             f"        stq   {tmp_reg}, 0({ptr_reg})\n"
             f"        lda   {ptr_reg}, 8({ptr_reg})\n"
             f"        sub   {count_reg}, {count_reg}, 1\n"
             f"        bne   {count_reg}, fill_{label}\n")
    return body


@dataclass(frozen=True)
class Workload:
    """One benchmark kernel of the experimental workload (Table 1)."""

    name: str  # full benchmark name, e.g. "mcf"
    abbrev: str  # the paper's abbreviation, e.g. "mcf"
    suite: str  # "SPECint" | "SPECfp" | "mediabench"
    description: str
    source_fn: Callable[[int], str]  # scale -> assembly text

    def source(self, scale: int = 1) -> str:
        """Assembly text of this kernel at the given *scale*."""
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        return self.source_fn(scale)

"""Seeded synthetic workload generator (the ``synth`` suite).

The paper's 22 hand-written kernels pin the reproduction to a fixed
set of program behaviours.  This module manufactures an **unbounded,
deterministic** family of programs on top of the same assembly dialect
and :mod:`repro.isa.assembler` path, giving the sweep/search engine
and the differential-correctness harness
(:mod:`repro.engine.differential`) an endless supply of inputs.

A synthetic workload is named by a canonical string::

    synth:<family>@seed=<int>[,<param>=<int>,...]

e.g. ``synth:mixed@seed=7,branch=20,mem=40``.  The name round-trips
through :func:`parse_name` / :attr:`SynthSpec.name`, and the whole
registry (:func:`repro.workloads.get_workload`) resolves any such name
on the fly — so ``run_workload``, ``repro sweep --workloads
synth:...``, ``repro search``, segmented simulation, and the artifact
store (which keys traces by workload name) all work unchanged.
:meth:`SynthSpec.cache_key` gives a stable content hash of
``(family, seed, params)`` for anything that wants an explicit key.

Families
--------
``ptrchase``   serial pointer chasing over a seeded permutation cycle
``stream``     streaming array passes (``c[i] = a[i] + k*b[i]``)
``branchy``    LCG-data-dependent branch chains (``iters=0`` is the
               adversarial degenerate: an empty program that retires
               zero instructions and therefore has zero IPC)
``ilp``        wide independent arithmetic chains (high ILP)
``mixed``      tunable op-class mix: ``mem``/``branch``/``mul``
               percentages over a seeded random loop body

Generation is pure: the same ``(family, seed, params, scale)`` always
produces the same assembly text (the RNG is seeded from a string, which
Python hashes with SHA-512 — stable across interpreter versions).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..uarch.config import canonical_json
from .common import Workload, check_scale, fill_random_quads, lcg_step

#: Canonical-name prefix of every synthetic workload.
PREFIX = "synth:"

#: The synthetic program families, in roster order.
FAMILIES = ("ptrchase", "stream", "branchy", "ilp", "mixed")

#: Per-family tunable parameters and their defaults.  Every parameter
#: is an integer; unlisted keys are rejected at parse time.
FAMILY_DEFAULTS: dict[str, dict[str, int]] = {
    "ptrchase": {"nodes": 128, "steps": 1500},
    "stream": {"elems": 256, "passes": 4},
    "branchy": {"iters": 1200, "taken": 50},
    "ilp": {"chains": 6, "iters": 300},
    "mixed": {"iters": 300, "ops": 24, "mem": 30, "branch": 15, "mul": 10},
}

#: Tiny parameter overrides for smoke-budget fuzzing (CI's fuzz-smoke
#: job): every family's dynamic instruction count drops by ~10x.
SMALL_PARAMS: dict[str, dict[str, int]] = {
    "ptrchase": {"nodes": 32, "steps": 150},
    "stream": {"elems": 48, "passes": 1},
    "branchy": {"iters": 120},
    "ilp": {"chains": 4, "iters": 40},
    "mixed": {"iters": 40, "ops": 16},
}


@dataclass(frozen=True)
class SynthSpec:
    """One synthetic program: a family, a seed, and its parameters.

    ``params`` holds the **full** parameter assignment (defaults
    merged), sorted by key, so two specs naming the same program
    compare and hash equal.
    """

    family: str
    seed: int
    params: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILY_DEFAULTS:
            raise KeyError(f"unknown synth family {self.family!r}; "
                           f"known: {FAMILIES}")
        known = FAMILY_DEFAULTS[self.family]
        for key, value in self.params:
            if key not in known:
                raise KeyError(
                    f"unknown parameter {key!r} for family "
                    f"{self.family!r}; known: {sorted(known)}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"parameter {key}={value!r} must be an "
                                 f"int")
            if value < 0:
                raise ValueError(f"parameter {key}={value} must be >= 0")
        if self.family == "mixed":
            merged = dict(known)
            merged.update(self.params)
            total = merged["mem"] + merged["branch"] + merged["mul"]
            if total > 100:
                raise ValueError(
                    f"mixed ratios mem+branch+mul must be <= 100%, got "
                    f"mem={merged['mem']} branch={merged['branch']} "
                    f"mul={merged['mul']} ({total}%)")

    @classmethod
    def make(cls, family: str, seed: int = 0,
             params: dict[str, int] | None = None) -> "SynthSpec":
        """Build a spec with defaults merged and keys canonicalized."""
        defaults = FAMILY_DEFAULTS.get(family)
        if defaults is None:
            raise KeyError(f"unknown synth family {family!r}; "
                           f"known: {FAMILIES}")
        merged = dict(defaults)
        merged.update(params or {})
        return cls(family=family, seed=seed,
                   params=tuple(sorted(merged.items())))

    @property
    def param_dict(self) -> dict[str, int]:
        return dict(self.params)

    @property
    def name(self) -> str:
        """The canonical registry name of this program.

        Only parameters that differ from the family defaults appear,
        so ``synth:ilp@seed=3`` stays short and default-equivalent
        spellings collapse to one name (one store entry).
        """
        defaults = FAMILY_DEFAULTS[self.family]
        extras = [f"{k}={v}" for k, v in self.params if defaults[k] != v]
        return (f"{PREFIX}{self.family}@seed={self.seed}"
                + "".join("," + e for e in extras))

    def cache_key(self) -> str:
        """Stable content hash of ``(family, seed, params)``."""
        identity = {"family": self.family, "seed": self.seed,
                    "params": self.param_dict}
        return hashlib.sha256(canonical_json(identity).encode()).hexdigest()

    def source(self, scale: int = 1) -> str:
        """Generate this program's assembly text at *scale*."""
        check_scale(scale)
        return _GENERATORS[self.family](self, scale)

    def rng(self) -> random.Random:
        """The seeded generation RNG (string-seeded: version-stable)."""
        return random.Random(f"{self.family}:{self.seed}")


def parse_name(name: str) -> SynthSpec:
    """Parse a ``synth:family@seed=N[,k=v,...]`` name into a spec."""
    if not name.startswith(PREFIX):
        raise KeyError(f"not a synth workload name: {name!r}")
    body = name[len(PREFIX):]
    family, sep, rest = body.partition("@")
    if not family:
        raise KeyError(f"bad synth name {name!r}: missing family")
    seed = 0
    params: dict[str, int] = {}
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key or not value.strip():
                raise KeyError(f"bad synth name {name!r}: expected "
                               f"'key=int' items, got {item!r}")
            try:
                number = int(value.strip(), 0)
            except ValueError:
                raise KeyError(f"bad synth name {name!r}: parameter "
                               f"{key}={value.strip()!r} is not an "
                               f"int") from None
            if key == "seed":
                seed = number
            else:
                params[key] = number
    return SynthSpec.make(family, seed=seed, params=params)


def workload_for(name: str) -> Workload:
    """A :class:`Workload` for any canonical (or spellable) synth name."""
    spec = parse_name(name)
    return Workload(
        name=spec.name, abbrev=spec.name, suite=SUITE,
        description=(f"synthetic {spec.family} (seed {spec.seed})"),
        source_fn=spec.source)


#: The suite name synthetic workloads register under.
SUITE = "synth"

#: Default roster behind ``suite_workloads("synth")`` / ``--suite
#: synth``: every family at two seeds, default parameters.
DEFAULT_ROSTER = tuple(f"{PREFIX}{family}@seed={seed}"
                       for family in FAMILIES for seed in (0, 1))


def roster_workloads() -> list[Workload]:
    """The default ``synth`` suite as workload objects."""
    return [workload_for(name) for name in DEFAULT_ROSTER]


def fuzz_specs(seeds: range, families: tuple[str, ...] = FAMILIES,
               small: bool = False) -> list[SynthSpec]:
    """The (family x seed) spec grid a fuzzing run walks.

    ``small=True`` applies :data:`SMALL_PARAMS` so smoke runs finish
    in CI time; the resulting names still canonicalize and cache like
    any other synth program.
    """
    specs = []
    for family in families:
        params = SMALL_PARAMS.get(family, {}) if small else {}
        for seed in seeds:
            specs.append(SynthSpec.make(family, seed=seed, params=params))
    return specs


# ----------------------------------------------------------------------
# family generators (pure functions of (spec, scale))
# ----------------------------------------------------------------------


def _epilogue(checksum_reg: str, tmp_reg: str) -> str:
    """Store a guaranteed-nonzero checksum and halt."""
    return (f"        or    {checksum_reg}, {checksum_reg}, 1\n"
            f"        ldi   {tmp_reg}, result\n"
            f"        stq   {checksum_reg}, 0({tmp_reg})\n"
            f"        halt\n")


def _gen_ptrchase(spec: SynthSpec, scale: int) -> str:
    """Serial pointer chasing over a seeded single-cycle permutation.

    The next-index table is built in Python from the RNG and emitted
    as ``.quad`` data; the chase loop is a classic load-to-load
    dependence chain (``s8add`` + ``ldq``), the paper's worst case for
    ILP and best case for rename-time address generation.
    """
    p = spec.param_dict
    nodes = max(2, p["nodes"])
    steps = p["steps"] * scale
    rng = spec.rng()
    order = list(range(1, nodes))
    rng.shuffle(order)
    cycle = [0] + order
    succ = [0] * nodes
    for position, node in enumerate(cycle):
        succ[node] = cycle[(position + 1) % nodes]
    quads = ",".join(str(v) for v in succ)
    return f"""
.data
table:  .quad {quads}
result: .quad 0
.text
        ldi   r1, {steps}
        ldi   r2, table
        clr   r3
        clr   r4
chase:  s8add r5, r3, r2
        ldq   r3, 0(r5)
        add   r4, r4, r3
        sub   r1, r1, 1
        bne   r1, chase
{_epilogue('r4', 'r6')}"""


def _gen_stream(spec: SynthSpec, scale: int) -> str:
    """Streaming passes: ``c[i] = a[i] + k*b[i]`` then a reduction."""
    p = spec.param_dict
    elems = max(1, p["elems"])
    passes = max(1, p["passes"] * scale)
    rng = spec.rng()
    state = rng.randrange(1, 1 << 30) | 1
    k = rng.choice((3, 5, 7, 9))
    body = f"""
.data
a:      .space {elems * 8}
b:      .space {elems * 8}
c:      .space {elems * 8}
result: .quad 0
.text
        ldi   r3, {state}
"""
    body += fill_random_quads("a", "r1", elems, "r4", "r3", "r5", 0xFFFF)
    body += fill_random_quads("b", "r1", elems, "r4", "r3", "r5", 0xFFFF)
    body += f"""        ldi   r9, {passes}
outer:  ldi   r1, {elems}
        ldi   r4, a
        ldi   r5, b
        ldi   r6, c
inner:  ldq   r7, 0(r4)
        ldq   r8, 0(r5)
        mul   r8, r8, {k}
        add   r7, r7, r8
        stq   r7, 0(r6)
        lda   r4, 8(r4)
        lda   r5, 8(r5)
        lda   r6, 8(r6)
        sub   r1, r1, 1
        bne   r1, inner
        sub   r9, r9, 1
        bne   r9, outer
        ldi   r1, {elems}
        ldi   r4, c
        clr   r2
reduce: ldq   r7, 0(r4)
        add   r2, r2, r7
        lda   r4, 8(r4)
        sub   r1, r1, 1
        bne   r1, reduce
{_epilogue('r2', 'r6')}"""
    return body


def _gen_branchy(spec: SynthSpec, scale: int) -> str:
    """LCG-data-dependent branch chains.

    ``taken`` sets the bias of the primary branch (percent, 0-100);
    the RNG adds two to four extra data-dependent branch blocks so
    different seeds exercise different control shapes.  ``iters=0``
    degenerates to an **empty program** — the adversarial zero-IPC
    point the objective/geomean hardening is tested against.
    """
    p = spec.param_dict
    iters = p["iters"] * scale
    if p["iters"] == 0:
        return "\n.text\n        halt\n"
    rng = spec.rng()
    state = rng.randrange(1, 1 << 30) | 1
    thresh = max(1, min(63, (p["taken"] * 64) // 100))
    body = f"""
.data
result: .quad 0
.text
        ldi   r3, {state}
        ldi   r1, {iters}
        clr   r12
loop:
{lcg_step('r3', 'r5')}        and   r6, r3, 63
        cmplt r7, r6, {thresh}
        beq   r7, alt
        add   r12, r12, r6
        br    join
alt:    xor   r12, r12, r3
join:
"""
    for index in range(rng.randint(2, 4)):
        mask = (1 << rng.randint(1, 3)) - 1
        opcode = rng.choice(("beq", "bne"))
        op = rng.choice(("add", "xor", "sub"))
        const = rng.randrange(1, 1 << 12)
        body += (f"        and   r8, r3, {mask}\n"
                 f"        {opcode}   r8, sk{index}\n"
                 f"        {op}   r12, r12, {const}\n"
                 f"        srl   r9, r3, {rng.randint(1, 8)}\n"
                 f"        add   r12, r12, r9\n"
                 f"sk{index}:\n")
    body += f"""        sub   r1, r1, 1
        bne   r1, loop
{_epilogue('r12', 'r13')}"""
    return body


def _gen_ilp(spec: SynthSpec, scale: int) -> str:
    """Wide independent arithmetic chains (high-ILP loop body).

    Each chain owns one accumulator register and applies a seeded
    sequence of single-cycle ops per iteration; chains never read each
    other, so issue width and scheduler capacity are the limit.
    """
    p = spec.param_dict
    chains = max(1, min(12, p["chains"]))
    iters = max(1, p["iters"] * scale)
    rng = spec.rng()
    regs = [f"r{8 + i}" for i in range(chains)]
    body = "\n.data\nresult: .quad 0\n.text\n"
    for reg in regs:
        body += f"        ldi   {reg}, {rng.randrange(1, 1 << 16)}\n"
    body += f"        ldi   r1, {iters}\nloop:\n"
    for reg in regs:
        for _ in range(3):
            op = rng.choice(("add", "xor", "sub", "s4add"))
            const = rng.randrange(1, 1 << 12)
            body += f"        {op}   {reg}, {reg}, {const}\n"
        body += (f"        and   {reg}, {reg}, "
                 f"{(1 << rng.randint(24, 40)) - 1}\n")
    body += "        sub   r1, r1, 1\n        bne   r1, loop\n"
    body += "        clr   r2\n"
    for reg in regs:
        body += f"        add   r2, r2, {reg}\n"
    body += _epilogue("r2", "r3")
    return body


#: Simple two-source ALU opcodes the ``mixed`` generator draws from.
_MIXED_ALU_OPS = ("add", "sub", "and", "or", "xor", "s4add", "s8add",
                  "cmplt", "cmpeq")


def _gen_mixed(spec: SynthSpec, scale: int) -> str:
    """Tunable op-class mix over a seeded random loop body.

    ``mem``/``branch``/``mul`` are percentages of the ``ops`` slots in
    each iteration (the rest are simple ALU ops); the RNG decides the
    concrete instruction sequence, the registers, the scratch-array
    offsets, and the forward-branch shapes.
    """
    p = spec.param_dict
    iters = max(1, p["iters"] * scale)
    ops = max(4, p["ops"])
    # Ratios were validated to sum <= 100% at spec construction, so
    # the floor-divided slot counts can never exceed ``ops``.
    counts = {
        "mem": (ops * p["mem"]) // 100,
        "branch": (ops * p["branch"]) // 100,
        "mul": (ops * p["mul"]) // 100,
    }
    counts["alu"] = ops - sum(counts.values())
    rng = spec.rng()
    pool = [f"r{8 + i}" for i in range(12)]
    slots = [kind for kind, count in counts.items()
             for _ in range(count)]
    rng.shuffle(slots)
    body = ("\n.data\nscratch: .space 512\nresult:  .quad 0\n.text\n"
            f"        ldi   r3, {rng.randrange(1, 1 << 30) | 1}\n"
            "        ldi   r2, scratch\n")
    for reg in pool:
        body += f"        ldi   {reg}, {rng.randrange(1, 1 << 16)}\n"
    body += f"        ldi   r1, {iters}\nloop:\n{lcg_step('r3', 'r5')}"
    skip = 0
    for kind in slots:
        if kind == "mem":
            reg = rng.choice(pool)
            offset = 8 * rng.randrange(0, 64)
            if rng.random() < 0.5:
                body += f"        ldq   {reg}, {offset}(r2)\n"
            else:
                body += f"        stq   {reg}, {offset}(r2)\n"
        elif kind == "branch":
            mask = (1 << rng.randint(1, 3)) - 1
            opcode = rng.choice(("beq", "bne"))
            body += (f"        and   r6, r3, {mask}\n"
                     f"        {opcode}   r6, mix{skip}\n")
            for _ in range(rng.randint(1, 2)):
                reg = rng.choice(pool)
                op = rng.choice(_MIXED_ALU_OPS)
                body += (f"        {op}   {reg}, {reg}, "
                         f"{rng.randrange(1, 1 << 10)}\n")
            body += f"mix{skip}:\n"
            skip += 1
        elif kind == "mul":
            dst, src = rng.choice(pool), rng.choice(pool)
            body += (f"        mul   {dst}, {src}, "
                     f"{rng.randrange(3, 1 << 8)}\n")
        else:
            dst = rng.choice(pool)
            op = rng.choice(_MIXED_ALU_OPS)
            if rng.random() < 0.5:
                body += (f"        {op}   {dst}, {dst}, "
                         f"{rng.randrange(1, 1 << 12)}\n")
            else:
                body += (f"        {op}   {dst}, {dst}, "
                         f"{rng.choice(pool)}\n")
    body += "        sub   r1, r1, 1\n        bne   r1, loop\n"
    body += "        clr   r4\n"
    for reg in pool:
        body += f"        add   r4, r4, {reg}\n"
    body += _epilogue("r4", "r5")
    return body


_GENERATORS = {
    "ptrchase": _gen_ptrchase,
    "stream": _gen_stream,
    "branchy": _gen_branchy,
    "ilp": _gen_ilp,
    "mixed": _gen_mixed,
}

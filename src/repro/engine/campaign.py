"""Campaign specs: declarative design-space sweep grids.

A :class:`Campaign` names a grid of sweep points::

    (workload  x  scale  x  named MachineConfig variant)

Machine variants come from **parameter axes**: dotted config paths
(``optimizer.vf_delay``, ``sched_entries``, ``l2.latency``) paired
with value lists.  :func:`expand_axes` takes the cartesian product and
labels each variant ``"a=1,b=2"``; :func:`parse_axis` parses the CLI's
``--axis path=v1,v2,...`` syntax.

The grid order is deterministic (workload-major, then scale, then
variant) so serial and parallel executions enumerate — and report —
identical point lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from ..uarch.config import MachineConfig, default_config
from ..workloads import ALL_WORKLOADS, get_workload, suite_workloads


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a workload at a scale on a machine variant."""

    workload: str
    scale: int
    variant: str
    config: MachineConfig

    @property
    def label(self) -> str:
        return f"{self.workload}@{self.scale}/{self.variant}"


def apply_override(config, path: str, value):
    """Replace one field addressed by a dotted path on a frozen config.

    ``apply_override(cfg, "optimizer.vf_delay", 5)`` returns a new
    :class:`MachineConfig` with only that leaf changed.
    """
    head, _, rest = path.partition(".")
    if not hasattr(config, head):
        raise AttributeError(
            f"{type(config).__name__} has no field {head!r}")
    if rest:
        child = apply_override(getattr(config, head), rest, value)
        return replace(config, **{head: child})
    current = getattr(config, head)
    if current is not None and not _value_compatible(current, value):
        raise TypeError(f"{path}: expected {type(current).__name__}, "
                        f"got {type(value).__name__} ({value!r})")
    return replace(config, **{head: value})


def _value_compatible(current, value) -> bool:
    """Whether *value* may replace *current* on a config field.

    ``bool`` is checked before ``int``: ``isinstance(True, int)`` holds
    in Python, so a plain isinstance test would silently accept
    ``True`` for an int field (and ``1`` for a bool field) — both are
    almost certainly typos in an axis spec, and both would change the
    config's canonical JSON identity.
    """
    if isinstance(current, bool) or isinstance(value, bool):
        return isinstance(current, bool) and isinstance(value, bool)
    if isinstance(current, int) and isinstance(value, int):
        return True
    return isinstance(value, type(current))


def _parse_value(text: str):
    """Parse one axis value: bool, int, or float (in that order)."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse axis value {text!r} "
                         f"(expected bool/int/float)") from None


def parse_axis(spec: str) -> tuple[str, list]:
    """Parse the CLI's ``path=v1,v2,...`` axis syntax."""
    path, sep, values = spec.partition("=")
    if not sep or not path or not values:
        raise ValueError(f"bad axis {spec!r}; expected 'path=v1,v2,...'")
    return path.strip(), [_parse_value(v) for v in values.split(",")]


def expand_axes(base: MachineConfig,
                axes: list[tuple[str, list]]) -> list[tuple[str, MachineConfig]]:
    """Cartesian product of parameter axes applied to a base config.

    Returns ``(label, config)`` pairs; with no axes, the base config
    alone (labelled ``"base"``).
    """
    if not axes:
        return [("base", base)]
    variants = []
    paths = [path for path, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        config = base
        for path, value in zip(paths, combo):
            config = apply_override(config, path, value)
        label = ",".join(f"{p}={v}" for p, v in zip(paths, combo))
        variants.append((label, config))
    return variants


@dataclass(frozen=True)
class Campaign:
    """A named sweep: workloads x scales x machine variants."""

    name: str
    workloads: tuple[str, ...]
    scales: tuple[int, ...]
    variants: tuple[tuple[str, MachineConfig], ...]

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("campaign has no workloads")
        if not self.scales:
            raise ValueError("campaign has no scales")
        if not self.variants:
            raise ValueError("campaign has no machine variants")
        labels = [label for label, _ in self.variants]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate variant labels in {labels}")

    @property
    def size(self) -> int:
        return len(self.workloads) * len(self.scales) * len(self.variants)

    def points(self) -> list[SweepPoint]:
        """The full grid in deterministic workload-major order."""
        return [SweepPoint(workload=w, scale=s, variant=label,
                           config=config)
                for w in self.workloads
                for s in self.scales
                for label, config in self.variants]

    @classmethod
    def from_axes(cls, name: str = "sweep",
                  workloads: list[str] | None = None,
                  suite: str | None = None,
                  scales: list[int] | None = None,
                  base: MachineConfig | None = None,
                  axes: list[tuple[str, list]] | None = None,
                  include_baseline: bool = False) -> "Campaign":
        """Build a campaign from CLI-shaped inputs.

        ``workloads`` accepts full names or paper abbreviations;
        ``suite`` selects a whole suite instead; neither selects all
        22 kernels.  ``include_baseline`` prepends the optimizer-off
        base config as a ``baseline`` variant (for speedup grids).
        """
        if workloads:
            names = tuple(get_workload(n).name for n in workloads)
        elif suite:
            names = tuple(w.name for w in suite_workloads(suite))
        else:
            names = tuple(w.name for w in ALL_WORKLOADS)
        base = base if base is not None else default_config()
        variants = expand_axes(base, axes or [])
        if variants == [("base", base)] and base.optimizer.enabled:
            variants = [("optimized", base)]
        if include_baseline:
            baseline = base.without_optimizer()
            # drop only the *implicit* no-axes variant when it equals
            # the baseline; explicitly requested axis variants are kept
            # even if their config coincides with it
            if not axes and variants[0][1] == baseline:
                variants = []
            variants = [("baseline", baseline)] + variants
        return cls(name=name, workloads=names,
                   scales=tuple(scales or [1]),
                   variants=tuple(variants))

"""Content-addressed on-disk artifact store for traces and stats.

Artifacts are keyed by a stable SHA-256 of their identity:

* **traces** — ``(kind=trace, format, workload, scale)``.  The oracle
  trace of a workload is configuration-independent, so every machine
  variant in a sweep shares one stored emulation.
* **stats** — ``(kind=stats, format, workload, scale, config)`` where
  ``config`` is :meth:`MachineConfig.canonical_json`.  A timing result
  is valid for exactly one machine configuration.
* **segment-level artifacts** — the segmented engine
  (:mod:`repro.engine.segments`) splits a trace into
  fixed-instruction-count segments and stores, per
  ``(workload, scale, segment_insns)``:

  - ``segment trace`` *i* — the :class:`PackedTrace` slice,
  - ``checkpoint`` *i* — the emulator's architectural state at the
    start of segment *i* (so a killed planning run resumes without
    replaying the prefix),
  - ``segment stats`` *i* ``x config`` — one segment's partial
    :class:`PipelineStats`,
  - a ``manifest`` — segment count and lengths, written only when the
    whole trace has been segmented (its presence means planning is
    complete).

* **search manifests** — the design-space search engine
  (:mod:`repro.engine.search`) keeps a per-search evaluation ledger
  keyed by the search's identity (space + workloads + scales + base
  config + objective), rewritten atomically after every completed
  candidate evaluation so a killed ``repro search`` resumes without
  re-scoring anything.

Traces and checkpoints are pickled (they contain
:class:`Instruction` objects / memory images); stats and manifests are
canonical JSON.  All writes are atomic (temp file + ``os.replace``) so
concurrent workers sharing one store can never observe a torn
artifact — at worst two workers race to write the same content to the
same key, which is benign.

Every successful load touches the artifact's mtime, giving the
least-recently-used eviction order that :meth:`ArtifactStore.gc`
uses to enforce a size cap.

``FORMAT_VERSION`` is baked into every key: changing the trace or
stats schema automatically invalidates stale artifacts instead of
deserializing garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from pathlib import Path

from ..functional.emulator import Checkpoint, PackedTrace
from ..uarch.config import MachineConfig, canonical_json
from ..uarch.stats import PipelineStats
from .telemetry import TELEMETRY

#: Bump when the trace / PipelineStats schema changes.
#: v2: traces are pickled :class:`PackedTrace` columns instead of
#: ``list[TraceEntry]``.  v3: a trace keeps five row columns and a
#: ``first_seq``, without the seq, pc, opcode and source-value
#: columns.  Older artifacts simply miss under the new keys and are
#: re-derived (then reclaimed by LRU gc) — no migration step.
FORMAT_VERSION = 3

#: Fixed pickle protocol so identical traces serialize byte-identically
#: regardless of the interpreter's default.
PICKLE_PROTOCOL = 4

#: Writer temp files older than this are presumed orphaned by a killed
#: process and swept during :meth:`ArtifactStore.gc`; younger ones may
#: belong to an in-flight concurrent writer and are left alone.
ORPHAN_AGE_SECONDS = 60.0

#: Subdirectory under a shared store root holding per-tenant
#: namespaces (``<root>/tenants/<tenant>/traces``, ...).  The root
#: store's own artifact directories sit beside it and never mix with
#: tenant artifacts: the root's scans are non-recursive, so a
#: root-level :meth:`ArtifactStore.gc` cannot evict tenant artifacts
#: and a tenant-level one cannot reach outside its namespace.
TENANTS_DIRNAME = "tenants"

#: Tenant names become directory names, so they must be a single safe
#: path component: leading alphanumeric, then alphanumerics, ``_``,
#: ``-``, or ``.`` (``.``/``..``/anything with a separator cannot
#: match).
TENANT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Artifact kinds addressable through the raw-blob replication API
#: (:meth:`ArtifactStore.blob_ids` and friends) — exactly the store's
#: per-kind directories.
BLOB_KINDS = ("traces", "stats", "segments", "checkpoints", "manifests")

#: Every healthy artifact filename is ``<sha256 hex>.pkl|.json``; the
#: blob API rejects anything else, so a remote peer can never write
#: outside the store (path traversal) or plant a non-content-addressed
#: file.
BLOB_NAME_RE = re.compile(r"^[0-9a-f]{64}\.(pkl|json)$")


def validate_tenant_name(tenant: str) -> str:
    """*tenant* if it is a safe store namespace name, else ValueError."""
    if not isinstance(tenant, str) or not TENANT_NAME_RE.match(tenant):
        raise ValueError(
            f"bad tenant name {tenant!r}: expected 1-64 characters "
            f"matching [A-Za-z0-9][A-Za-z0-9_.-]*")
    return tenant


def tenant_store_root(root: str | os.PathLike, tenant: str) -> Path:
    """The store root for one tenant's namespace under a shared root."""
    return Path(root) / TENANTS_DIRNAME / validate_tenant_name(tenant)


def list_tenants(root: str | os.PathLike) -> list[str]:
    """Tenant namespaces that exist under *root* (sorted)."""
    base = Path(root) / TENANTS_DIRNAME
    if not base.is_dir():
        return []
    return sorted(path.name for path in base.iterdir()
                  if path.is_dir() and TENANT_NAME_RE.match(path.name))


def tenant_usage(root: str | os.PathLike) -> dict[str, int]:
    """On-disk bytes per tenant namespace under *root*.

    Backs the service's per-tenant store gauges; a tenant whose
    namespace was created but never written reports 0.
    """
    return {tenant: ArtifactStore.for_tenant(root, tenant).total_bytes()
            for tenant in list_tenants(root)}


def _digest(identity: dict) -> str:
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def trace_key(workload: str, scale: int) -> str:
    """Stable content key for a workload's oracle trace."""
    return _digest({"kind": "trace", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale})


def trace_info_key(workload: str, scale: int) -> str:
    """Stable content key for a workload's trace metadata.

    A tiny JSON record (currently ``{"instructions": N}``) that lets
    the segmented engine's adaptive sizing learn a trace's length
    without unpickling — or even storing — the trace itself.
    """
    return _digest({"kind": "trace-info", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale})


def stats_key(workload: str, scale: int, config: MachineConfig,
              limit_insns: int | None = None) -> str:
    """Stable content key for one simulation's stats.

    ``limit_insns`` identifies a truncated-trace simulation (the
    search engine's cheap-evaluation budget); it is folded into the
    key only when set, so full-run keys are unchanged.
    """
    identity = {"kind": "stats", "format": FORMAT_VERSION,
                "workload": workload, "scale": scale,
                "config": config.config_dict()}
    if limit_insns is not None:
        identity["limit_insns"] = limit_insns
    return _digest(identity)


def search_manifest_key(identity: dict) -> str:
    """Stable content key for a design-space search's manifest.

    *identity* pins everything that makes two searches share
    evaluations: the space, workloads, scales, base config, and
    objective (see :meth:`repro.engine.search.SearchSpace.identity`).
    The strategy is deliberately absent — a random search and a
    halving search over the same space reuse each other's completed
    evaluations.
    """
    return _digest({"kind": "search-manifest", "format": FORMAT_VERSION,
                    "identity": identity})


def segment_trace_key(workload: str, scale: int, segment_insns: int,
                      index: int) -> str:
    """Stable content key for one trace segment."""
    return _digest({"kind": "segment-trace", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale,
                    "segment_insns": segment_insns, "index": index})


def checkpoint_key(workload: str, scale: int, segment_insns: int,
                   index: int) -> str:
    """Stable content key for the checkpoint starting segment *index*."""
    return _digest({"kind": "checkpoint", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale,
                    "segment_insns": segment_insns, "index": index})


def segment_stats_key(workload: str, scale: int, segment_insns: int,
                      index: int, config: MachineConfig) -> str:
    """Stable content key for one segment's partial stats."""
    return _digest({"kind": "segment-stats", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale,
                    "segment_insns": segment_insns, "index": index,
                    "config": config.config_dict()})


def manifest_key(workload: str, scale: int, segment_insns: int) -> str:
    """Stable content key for a completed segmentation's manifest."""
    return _digest({"kind": "segment-manifest", "format": FORMAT_VERSION,
                    "workload": workload, "scale": scale,
                    "segment_insns": segment_insns})


class ArtifactStore:
    """Persists oracle traces and pipeline stats across runs.

    Layout::

        <root>/traces/<sha256>.pkl       pickled PackedTrace columns
        <root>/stats/<sha256>.json       canonical PipelineStats JSON
        <root>/segments/<sha256>.pkl     pickled segment PackedTrace
        <root>/checkpoints/<sha256>.pkl  pickled emulator Checkpoint
        <root>/manifests/<sha256>.json   segmentation manifest JSON

    The store keeps hit/miss counters so callers (the sweep engine,
    the CLI) can report how much work persistence saved.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._traces = self.root / "traces"
        self._stats = self.root / "stats"
        self._segments = self.root / "segments"
        self._checkpoints = self.root / "checkpoints"
        self._manifests = self.root / "manifests"
        for directory in self._directories():
            directory.mkdir(parents=True, exist_ok=True)
        self.trace_hits = 0
        self.trace_misses = 0
        self.stats_hits = 0
        self.stats_misses = 0
        self.segment_trace_hits = 0
        self.segment_trace_misses = 0
        self.segment_stats_hits = 0
        self.segment_stats_misses = 0

    @classmethod
    def for_tenant(cls, root: str | os.PathLike,
                   tenant: str) -> "ArtifactStore":
        """A store scoped to one tenant's namespace under *root*.

        Each tenant gets a fully independent store rooted at
        ``<root>/tenants/<tenant>``: its LRU :meth:`gc` walks only its
        own directories, so one tenant exhausting its byte budget can
        never evict another tenant's artifacts.
        """
        return cls(tenant_store_root(root, tenant))

    def _directories(self) -> tuple[Path, ...]:
        return (self._traces, self._stats, self._segments,
                self._checkpoints, self._manifests)

    @staticmethod
    def _record(kind: str, hit: bool) -> None:
        """Mirror one hit/miss into the process-wide telemetry."""
        TELEMETRY.counter("repro_store_hits_total" if hit
                          else "repro_store_misses_total",
                          kind=kind).inc()

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------

    def load_trace(self, workload: str,
                   scale: int) -> PackedTrace | None:
        """The stored oracle trace, or ``None`` on a miss."""
        path = self._traces / f"{trace_key(workload, scale)}.pkl"
        trace = self._load_pickle(path)
        self._record("trace", trace is not None)
        if trace is None:
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return trace

    def save_trace(self, workload: str, scale: int,
                   trace: PackedTrace) -> Path:
        """Persist an oracle trace; returns the artifact path."""
        path = self._traces / f"{trace_key(workload, scale)}.pkl"
        payload = pickle.dumps(trace, protocol=PICKLE_PROTOCOL)
        self._atomic_write(path, payload)
        return path

    def has_trace(self, workload: str, scale: int) -> bool:
        """Whether the oracle trace is on disk (no unpickle, no counters)."""
        return (self._traces / f"{trace_key(workload, scale)}.pkl").exists()

    # ------------------------------------------------------------------
    # trace metadata
    # ------------------------------------------------------------------

    def load_trace_info(self, workload: str, scale: int) -> dict | None:
        """Stored trace metadata (``{"instructions": N}``), or ``None``.

        Lives beside the manifests: it is planning metadata, a few
        bytes, and — like a manifest — only ever written after the
        emulation that measured it completed.
        """
        key = trace_info_key(workload, scale)
        text = self._load_text(self._manifests / f"{key}.json")
        return None if text is None else json.loads(text)

    def save_trace_info(self, workload: str, scale: int,
                        info: dict) -> Path:
        """Persist trace metadata; returns the artifact path."""
        key = trace_info_key(workload, scale)
        path = self._manifests / f"{key}.json"
        self._atomic_write(path, canonical_json(info).encode())
        return path

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def load_stats(self, workload: str, scale: int,
                   config: MachineConfig,
                   limit_insns: int | None = None) -> PipelineStats | None:
        """The stored simulation stats, or ``None`` on a miss."""
        key = stats_key(workload, scale, config, limit_insns)
        text = self._load_text(self._stats / f"{key}.json")
        self._record("stats", text is not None)
        if text is None:
            self.stats_misses += 1
            return None
        self.stats_hits += 1
        return PipelineStats.from_json(text)

    def save_stats(self, workload: str, scale: int, config: MachineConfig,
                   stats: PipelineStats,
                   limit_insns: int | None = None) -> Path:
        """Persist simulation stats; returns the artifact path."""
        key = stats_key(workload, scale, config, limit_insns)
        path = self._stats / f"{key}.json"
        self._atomic_write(path, stats.to_json().encode())
        return path

    # ------------------------------------------------------------------
    # segment traces
    # ------------------------------------------------------------------

    def _segment_trace_path(self, workload: str, scale: int,
                            segment_insns: int, index: int) -> Path:
        key = segment_trace_key(workload, scale, segment_insns, index)
        return self._segments / f"{key}.pkl"

    def has_segment_trace(self, workload: str, scale: int,
                          segment_insns: int, index: int) -> bool:
        """Whether segment *index*'s trace is on disk (no counters)."""
        return self._segment_trace_path(workload, scale, segment_insns,
                                        index).exists()

    def load_segment_trace(self, workload: str, scale: int,
                           segment_insns: int,
                           index: int) -> PackedTrace | None:
        """One stored trace segment, or ``None`` on a miss."""
        path = self._segment_trace_path(workload, scale, segment_insns,
                                        index)
        trace = self._load_pickle(path)
        self._record("segment-trace", trace is not None)
        if trace is None:
            self.segment_trace_misses += 1
            return None
        self.segment_trace_hits += 1
        return trace

    def save_segment_trace(self, workload: str, scale: int,
                           segment_insns: int, index: int,
                           trace: PackedTrace) -> Path:
        """Persist one trace segment; returns the artifact path."""
        path = self._segment_trace_path(workload, scale, segment_insns,
                                        index)
        payload = pickle.dumps(trace, protocol=PICKLE_PROTOCOL)
        self._atomic_write(path, payload)
        return path

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def load_checkpoint(self, workload: str, scale: int, segment_insns: int,
                        index: int) -> Checkpoint | None:
        """The emulator state at the start of segment *index*, if stored."""
        key = checkpoint_key(workload, scale, segment_insns, index)
        return self._load_pickle(self._checkpoints / f"{key}.pkl")

    def save_checkpoint(self, workload: str, scale: int, segment_insns: int,
                        index: int, state: Checkpoint) -> Path:
        """Persist an emulator checkpoint; returns the artifact path."""
        key = checkpoint_key(workload, scale, segment_insns, index)
        path = self._checkpoints / f"{key}.pkl"
        self._atomic_write(path, pickle.dumps(state,
                                              protocol=PICKLE_PROTOCOL))
        return path

    # ------------------------------------------------------------------
    # segment stats
    # ------------------------------------------------------------------

    def load_segment_stats(self, workload: str, scale: int,
                           segment_insns: int, index: int,
                           config: MachineConfig) -> PipelineStats | None:
        """One segment's stored partial stats, or ``None`` on a miss."""
        key = segment_stats_key(workload, scale, segment_insns, index,
                                config)
        text = self._load_text(self._stats / f"{key}.json")
        self._record("segment-stats", text is not None)
        if text is None:
            self.segment_stats_misses += 1
            return None
        self.segment_stats_hits += 1
        return PipelineStats.from_json(text)

    def save_segment_stats(self, workload: str, scale: int,
                           segment_insns: int, index: int,
                           config: MachineConfig,
                           stats: PipelineStats) -> Path:
        """Persist one segment's partial stats; returns the path."""
        key = segment_stats_key(workload, scale, segment_insns, index,
                                config)
        path = self._stats / f"{key}.json"
        self._atomic_write(path, stats.to_json().encode())
        return path

    # ------------------------------------------------------------------
    # segmentation manifests
    # ------------------------------------------------------------------

    def load_manifest(self, workload: str, scale: int,
                      segment_insns: int) -> dict | None:
        """A completed segmentation's manifest, or ``None``."""
        key = manifest_key(workload, scale, segment_insns)
        text = self._load_text(self._manifests / f"{key}.json")
        return None if text is None else json.loads(text)

    def save_manifest(self, workload: str, scale: int, segment_insns: int,
                      manifest: dict) -> Path:
        """Persist a segmentation manifest; returns the artifact path."""
        key = manifest_key(workload, scale, segment_insns)
        path = self._manifests / f"{key}.json"
        self._atomic_write(path, canonical_json(manifest).encode())
        return path

    # ------------------------------------------------------------------
    # search manifests
    # ------------------------------------------------------------------

    def load_search_manifest(self, identity: dict) -> dict | None:
        """A design-space search's evaluation ledger, or ``None``.

        The manifest maps evaluation keys (candidate label + budget)
        to recorded scores; the search engine consults it first so a
        killed search resumes where it left off (see
        :mod:`repro.engine.search`).
        """
        key = search_manifest_key(identity)
        text = self._load_text(self._manifests / f"{key}.json")
        return None if text is None else json.loads(text)

    def save_search_manifest(self, identity: dict,
                             manifest: dict) -> Path:
        """Persist a search's evaluation ledger; returns the path.

        Written atomically after **every** completed evaluation, so
        the on-disk manifest always reflects a consistent prefix of
        the search.
        """
        key = search_manifest_key(identity)
        path = self._manifests / f"{key}.json"
        self._atomic_write(path, canonical_json(manifest).encode())
        return path

    # ------------------------------------------------------------------
    # raw blobs: content-hash replication (remote worker sync)
    # ------------------------------------------------------------------

    def _blob_dir(self, kind: str) -> Path:
        if kind not in BLOB_KINDS:
            raise ValueError(f"unknown blob kind {kind!r}; "
                             f"expected one of {list(BLOB_KINDS)}")
        return {"traces": self._traces, "stats": self._stats,
                "segments": self._segments,
                "checkpoints": self._checkpoints,
                "manifests": self._manifests}[kind]

    @staticmethod
    def _blob_name(name: str) -> str:
        if not isinstance(name, str) or not BLOB_NAME_RE.match(name):
            raise ValueError(f"bad blob name {name!r}: expected "
                             f"<sha256 hex>.pkl or .json")
        return name

    def blob_ids(self) -> list[tuple[str, str]]:
        """Every artifact on disk as sorted ``(kind, filename)`` pairs.

        The filename stem *is* the artifact's content hash, so two
        stores replicate by exchanging exactly the ids one has and the
        other lacks — the socket worker backend's push/pull protocol.
        Writer temp files (dot-prefixed) never match and are excluded.
        """
        return sorted(
            (kind, path.name)
            for kind in BLOB_KINDS
            for pattern in ("*.pkl", "*.json")
            for path in self._blob_dir(kind).glob(pattern)
            if BLOB_NAME_RE.match(path.name))

    def has_blob(self, kind: str, name: str) -> bool:
        """Whether one artifact is on disk (no counters, no touch)."""
        return (self._blob_dir(kind) / self._blob_name(name)).exists()

    def read_blob(self, kind: str, name: str) -> bytes | None:
        """One artifact's raw bytes, or ``None`` if absent.

        No deserialization: the bytes travel opaque and land verbatim
        in the peer store, so replication cannot corrupt an artifact
        it does not understand.
        """
        path = self._blob_dir(kind) / self._blob_name(name)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        TELEMETRY.counter("repro_store_get_bytes_total").inc(len(payload))
        self._touch(path)
        return payload

    def write_blob(self, kind: str, name: str, payload: bytes) -> bool:
        """Write one raw artifact; returns whether it was new.

        An already-present blob is skipped (content-addressed names
        make the write idempotent).  Atomic like every other store
        write, so a concurrent reader never sees a torn artifact.
        """
        path = self._blob_dir(kind) / self._blob_name(name)
        if path.exists():
            return False
        self._atomic_write(path, bytes(payload))
        return True

    # ------------------------------------------------------------------
    # maintenance / reporting
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Hit/miss counters accumulated by this store instance."""
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "stats_hits": self.stats_hits,
            "stats_misses": self.stats_misses,
            "segment_trace_hits": self.segment_trace_hits,
            "segment_trace_misses": self.segment_trace_misses,
            "segment_stats_hits": self.segment_stats_hits,
            "segment_stats_misses": self.segment_stats_misses,
        }

    def artifact_count(self) -> dict[str, int]:
        """How many artifacts of each kind are on disk."""
        return {
            "traces": sum(1 for _ in self._traces.glob("*.pkl")),
            "stats": sum(1 for _ in self._stats.glob("*.json")),
            "segments": sum(1 for _ in self._segments.glob("*.pkl")),
            "checkpoints": sum(1 for _ in self._checkpoints.glob("*.pkl")),
            "manifests": sum(1 for _ in self._manifests.glob("*.json")),
        }

    def _artifact_paths(self) -> list[Path]:
        return [path
                for directory in self._directories()
                for pattern in ("*.pkl", "*.json")
                for path in directory.glob(pattern)]

    def _orphan_paths(self) -> list[Path]:
        """Writer temp files (``.<name>.<rand>``) left on disk.

        :meth:`_atomic_write` names its temp files with a leading dot,
        so a killed writer leaves exactly one dotfile behind; healthy
        artifacts never start with a dot.
        """
        return [path
                for directory in self._directories()
                for path in directory.glob(".*")
                if path.is_file()]

    def orphan_info(self, orphan_age_seconds: float = ORPHAN_AGE_SECONDS
                    ) -> dict[str, int]:
        """Count and total size of writer temp files on disk.

        ``sweepable_files``/``sweepable_bytes`` cover only the orphans
        old enough (``orphan_age_seconds``) that the next :meth:`gc`
        would actually reclaim them — younger temp files may belong to
        an in-flight concurrent writer and are reported but not
        sweepable yet.
        """
        now = time.time()
        files = byte_count = sweepable = sweepable_bytes = 0
        for path in self._orphan_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            files += 1
            byte_count += stat.st_size
            if now - stat.st_mtime >= orphan_age_seconds:
                sweepable += 1
                sweepable_bytes += stat.st_size
        return {"files": files, "bytes": byte_count,
                "sweepable_files": sweepable,
                "sweepable_bytes": sweepable_bytes}

    def total_bytes(self) -> int:
        """Total on-disk size of every file under the store.

        Includes orphaned writer temp files — they consume real disk,
        so a size report that skipped them would under-count exactly
        when a killed run left the most garbage behind.
        """
        total = 0
        for path in self._artifact_paths() + self._orphan_paths():
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                continue  # concurrently evicted
        return total

    def gc(self, max_bytes: int,
           orphan_age_seconds: float = ORPHAN_AGE_SECONDS
           ) -> dict[str, int]:
        """Evict least-recently-used artifacts until <= *max_bytes*.

        "Use" is the artifact's mtime: loads touch it, so recently
        read artifacts survive.  Orphaned writer temp files older than
        *orphan_age_seconds* are swept first (a concurrent in-flight
        writer's temp file is younger than that and survives, but its
        bytes count toward ``remaining_bytes`` so the cap holds for
        actual disk use).  Returns eviction counters::

            {"scanned": ..., "evicted": ..., "freed_bytes": ...,
             "remaining_bytes": ..., "orphans_swept": ...,
             "orphan_bytes_swept": ...}

        ``freed_bytes`` covers both evictions and the orphan sweep;
        ``orphan_bytes_swept`` breaks out the orphan share so
        ``repro store info/gc --json`` consumers can tell reclaimed
        garbage from evicted artifacts.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        report = {"scanned": 0, "evicted": 0, "freed_bytes": 0,
                  "remaining_bytes": 0, "orphans_swept": 0,
                  "orphan_bytes_swept": 0}
        now = time.time()
        kept_orphan_bytes = 0
        for path in self._orphan_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            if now - stat.st_mtime < orphan_age_seconds:
                # possibly an in-flight writer; keep — but its bytes
                # still occupy disk, so they count against the budget
                kept_orphan_bytes += stat.st_size
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            report["orphans_swept"] += 1
            report["orphan_bytes_swept"] += stat.st_size
            report["freed_bytes"] += stat.st_size
        entries = []
        total = kept_orphan_bytes
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda item: item[0])
        report["scanned"] = len(entries)
        report["remaining_bytes"] = total
        for _, size, path in entries:
            if report["remaining_bytes"] <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            report["evicted"] += 1
            report["freed_bytes"] += size
            report["remaining_bytes"] -= size
        TELEMETRY.counter("repro_store_gc_runs_total").inc()
        TELEMETRY.counter("repro_store_gc_evicted_total").inc(
            report["evicted"])
        TELEMETRY.counter("repro_store_gc_orphans_swept_total").inc(
            report["orphans_swept"])
        TELEMETRY.counter("repro_store_gc_freed_bytes_total").inc(
            report["freed_bytes"])
        return report

    def clear(self) -> None:
        """Delete every stored artifact (keeps the directories).

        Orphaned writer temp files go too — a caller emptying the
        store is not racing its own in-flight writer, and "clear"
        leaving bytes behind would contradict ``total_bytes()``.
        ``missing_ok``: a concurrent GC (another process sharing the
        store) may evict a file between our directory scan and the
        unlink — that is a success, not an error.
        """
        for path in self._artifact_paths() + self._orphan_paths():
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # I/O helpers
    # ------------------------------------------------------------------

    def _load_pickle(self, path: Path):
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
                TELEMETRY.counter("repro_store_get_bytes_total").inc(
                    fh.tell())
        except FileNotFoundError:
            return None
        self._touch(path)
        return payload

    def _load_text(self, path: Path) -> str | None:
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        # stats/manifest JSON is ASCII, so len(text) == byte size
        TELEMETRY.counter("repro_store_get_bytes_total").inc(len(text))
        self._touch(path)
        return text

    @staticmethod
    def _touch(path: Path) -> None:
        """Record a use for LRU eviction; losing the race is harmless."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
            TELEMETRY.counter("repro_store_put_bytes_total").inc(
                len(payload))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

"""Pluggable execution backends: one dispatch layer for every planner.

Before this module each engine carried its own hand-rolled dispatch
loop over a local ``ProcessPoolExecutor`` — flat sweeps in ``pool.py``,
the segmented pipeline in ``segments.py``, candidate batches in
``search.py``, and a serial-only loop in ``differential.py``.  Four
divergent paths, and no seam where anything but a local process pool
could plug in.

Now every planner emits :class:`WorkUnit`\\ s — self-describing shards
(an executor *kind* plus a picklable payload: workload specs, configs,
segment indices, simulation limits) — into a :class:`UnitGroup`
obtained from an :class:`ExecutionBackend`, and merges results by
ticket.  Three backends implement the protocol:

``InlineBackend``
    Queues units at submit time and executes each one in the calling
    process when ``wait_any`` pops it — zero processes, completion
    order equals submission order, and a planner that stops draining
    runs nothing more.  This is the old scattered ``jobs == 1`` special
    case, once.
``PoolBackend``
    Wraps today's ``ProcessPoolExecutor`` plus the ``workers.py``
    start-method/queue-wait scaffolding.  Worker processes drain their
    telemetry into each result; the driver merges it on receipt.
``SocketWorkerBackend``
    A lease server: ``repro worker --connect host:port`` processes
    register, lease units, execute them against a **local store
    replica**, and sync artifacts by content hash through the
    content-addressed store (replication is just "fetch missing
    hashes").  A worker that drops mid-unit has its lease requeued for
    the next worker.

Backends only choose the execution *mechanism*; ``jobs`` remains the
planning knob (pool sizing, adaptive segment sizing).  The determinism
contract therefore extends across backends: the same grid at the same
``jobs`` produces byte-identical exact-mode ledgers on any backend
with any worker count, because planners absorb results by index and
plans never depend on who executed a unit.

The socket protocol is length-prefixed pickle frames between trusted
processes.  **Pickle is code execution**: bind the lease server to
loopback (the default) or an interface only your own workers reach.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import socket
import struct
import sys
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                wait)
from typing import Callable

from dataclasses import dataclass

from .store import ArtifactStore, PICKLE_PROTOCOL
from .telemetry import TELEMETRY
from .workers import observe_wait, pool_kwargs

#: Valid ``--backend`` spellings (``resolve_backend`` specs).
BACKEND_NAMES = ("inline", "pool", "workers")

#: Bumped when the worker lease protocol changes shape; a worker and
#: server disagreeing on it refuse each other instead of mis-parsing.
PROTOCOL_VERSION = 1

#: 8-byte big-endian frame length prefix.
_HEADER = struct.Struct(">Q")

#: Refuse absurd frames before allocating for them (a stray client
#: speaking HTTP to the lease port reads as a huge bogus length).
MAX_FRAME_BYTES = 1 << 31

#: How long a waiting ``wait_any`` goes between no-worker warnings.
_IDLE_WARN_SECONDS = 10.0


# ----------------------------------------------------------------------
# work units and their executors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkUnit:
    """One self-describing shard of engine work.

    ``kind`` names a registered executor (``sweep-shard``,
    ``seg-window``, ``fuzz-check``, ...); ``payload`` is that
    executor's picklable argument tuple — workload spec, config(s),
    segment index / policy token, simulation limit, whatever the kind
    needs.  Store artifacts are addressed *inside* executors through
    the execution environment's store binding, so the same unit runs
    unchanged inline, on a pool worker, or on a remote socket worker
    holding a store replica.

    ``phase`` labels the queue-wait histogram
    (``repro_pool_shard_wait_seconds{phase=}``) the way the segmented
    engine's plan/simulate stages always did.
    """

    kind: str
    payload: tuple
    phase: str | None = None


#: kind -> executor ``fn(payload, env) -> result``.
_EXECUTORS: dict[str, Callable] = {}
_EXECUTOR_MODULES_LOADED = False


def register_executor(kind: str):
    """Class-of-work registration decorator for unit executors."""
    def decorate(fn):
        _EXECUTORS[kind] = fn
        return fn
    return decorate


def _load_executor_modules() -> None:
    """Import every module that registers executors.

    Worker processes (pool initializers, ``repro worker``) execute
    units without having imported the planners first; the registry
    self-populates on first dispatch.
    """
    global _EXECUTOR_MODULES_LOADED
    if _EXECUTOR_MODULES_LOADED:
        return
    from . import differential, pool, segments  # noqa: F401
    _EXECUTOR_MODULES_LOADED = True


def execute_unit(unit: WorkUnit, env: "ExecutionEnv"):
    """Run one unit against an execution environment."""
    fn = _EXECUTORS.get(unit.kind)
    if fn is None:
        _load_executor_modules()
        fn = _EXECUTORS.get(unit.kind)
    if fn is None:
        raise ValueError(f"unknown work unit kind {unit.kind!r}; "
                         f"registered: {sorted(_EXECUTORS)}")
    return fn(unit.payload, env)


class ExecutionEnv:
    """What a unit executor runs against: a store binding + scratch.

    ``scratch`` is a dict whose lifetime is the executing worker's —
    executors cache expensive per-worker state there (the sweep
    executor keeps its bounded-LRU ``ExecutionContext``), so repeated
    units on one worker reuse traces exactly like the old per-process
    globals did.
    """

    def __init__(self, store_dir: str | os.PathLike | None = None):
        self.store_dir = (os.fspath(store_dir)
                          if store_dir is not None else None)
        self.scratch: dict = {}
        self._store: ArtifactStore | None = None

    @property
    def store(self) -> ArtifactStore | None:
        if self._store is None and self.store_dir is not None:
            self._store = ArtifactStore(self.store_dir)
        return self._store


class _UnitFailure:
    """A remote unit's exception, shipped home as data."""

    def __init__(self, error: str):
        self.error = error


def _count_lease(backend_name: str) -> None:
    TELEMETRY.counter("repro_units_leased_total",
                      backend=backend_name).inc()


# ----------------------------------------------------------------------
# the protocol every planner codes against
# ----------------------------------------------------------------------

class UnitGroup:
    """One planner run's private submit/await window onto a backend.

    Planners never share tickets: a group only ever returns results
    for units it submitted, so several planner runs (the service's
    concurrent jobs) can safely share one live backend.

    * ``submit(unit) -> ticket``
    * ``wait_any() -> (ticket, result)`` — any completed unit of this
      group; raises the unit's exception if it failed
    * ``pending`` — units submitted but not yet returned
    """

    def submit(self, unit: WorkUnit) -> int:
        raise NotImplementedError

    def wait_any(self) -> tuple[int, object]:
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError


class ExecutionBackend:
    """The backend protocol: named, sized, group-scoped execution."""

    #: ``inline`` / ``pool`` / ``workers`` — telemetry label + CLI name.
    name = "backend"

    #: How many units can run at once.  Planners submit the same
    #: units on every backend, except that at 1 the segmented planner
    #: streams a cold trace in one unit (nothing would run beside a
    #: chain of them) and the runner skips its parallel prewarm.
    parallelism = 1

    def group(self) -> UnitGroup:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes/sockets.  Owned backends are closed by
        the planner that resolved them; shared instances by whoever
        constructed them."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# inline: serial, zero-process
# ----------------------------------------------------------------------

class _InlineGroup(UnitGroup):
    def __init__(self, env: ExecutionEnv):
        self.env = env
        self._queue: deque[tuple[int, WorkUnit]] = deque()
        self._next_ticket = 0

    def submit(self, unit: WorkUnit) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        _count_lease("inline")
        self._queue.append((ticket, unit))
        return ticket

    def wait_any(self) -> tuple[int, object]:
        # lazy FIFO execution: completion order IS submission order
        # (trivially deterministic), and an abandoned or cancelled
        # planner run stops at its next unit because nothing executes
        # until it is drained
        if not self._queue:
            raise RuntimeError("wait_any() with no pending units")
        ticket, unit = self._queue.popleft()
        return ticket, execute_unit(unit, self.env)

    @property
    def pending(self) -> int:
        return len(self._queue)


class InlineBackend(ExecutionBackend):
    """Serial in-process execution — the unified ``jobs=1`` path.

    Each group gets a private :class:`ExecutionEnv`, so two
    interleaved serial sweeps (the streaming service's normal mode)
    keep their stores, trace caches, and counters disjoint — exactly
    the guarantee the old per-generator ``ExecutionContext`` gave.
    """

    name = "inline"
    parallelism = 1

    def __init__(self, store_dir: str | os.PathLike | None = None):
        self.store_dir = (os.fspath(store_dir)
                          if store_dir is not None else None)

    def group(self) -> UnitGroup:
        return _InlineGroup(ExecutionEnv(self.store_dir))


# ----------------------------------------------------------------------
# pool: local process workers
# ----------------------------------------------------------------------

#: One environment per pool worker *process* (set by the initializer).
_WORKER_ENV: ExecutionEnv | None = None


def _init_unit_worker(store_dir: str | None) -> None:
    """Pool initializer: bind this worker process to one environment.

    A forked worker starts with a copy of the driver's telemetry; it
    is dropped, so the worker ships home only what it records itself.
    """
    global _WORKER_ENV
    TELEMETRY.reset()
    _WORKER_ENV = ExecutionEnv(store_dir)


def _execute_unit_pooled(unit: WorkUnit, submitted_ns: int | None
                         ) -> tuple[object, dict | None]:
    """One unit on a pool worker; ships the telemetry snapshot home."""
    observe_wait(submitted_ns, unit.phase)
    result = execute_unit(unit, _WORKER_ENV)
    return result, TELEMETRY.drain()


class _PoolGroup(UnitGroup):
    def __init__(self, backend: "PoolBackend"):
        self._backend = backend
        self._futures: dict = {}  # future -> ticket

    def submit(self, unit: WorkUnit) -> int:
        ticket = self._backend._next_ticket()
        _count_lease("pool")
        self._futures[self._backend._submit(unit)] = ticket
        return ticket

    def wait_any(self) -> tuple[int, object]:
        if not self._futures:
            raise RuntimeError("wait_any() with no pending units")
        done, _ = wait(list(self._futures),
                       return_when=FIRST_COMPLETED)
        future = done.pop()
        ticket = self._futures.pop(future)
        result, snapshot = future.result()
        TELEMETRY.merge(snapshot)
        return ticket, result

    @property
    def pending(self) -> int:
        return len(self._futures)


class PoolBackend(ExecutionBackend):
    """Local ``ProcessPoolExecutor`` workers behind the unit protocol.

    The pool is created lazily on first submit (a resolved-but-unused
    backend costs nothing) and shared by every group, so one long
    planner run (a search's many candidate batches) reuses warm worker
    processes instead of re-forking per batch.
    """

    name = "pool"

    def __init__(self, jobs: int, store_dir: str | os.PathLike | None
                 = None, max_workers: int | None = None):
        jobs = max(1, jobs if jobs and jobs > 0 else (os.cpu_count() or 1))
        self.jobs = jobs
        self.store_dir = (os.fspath(store_dir)
                          if store_dir is not None else None)
        self._max_workers = max(1, min(jobs, max_workers or jobs))
        self._pool: ProcessPoolExecutor | None = None
        self._tickets = itertools.count()
        self._lock = threading.Lock()

    @property
    def parallelism(self) -> int:
        return self._max_workers

    def _next_ticket(self) -> int:
        return next(self._tickets)

    def _submit(self, unit: WorkUnit):
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_unit_worker,
                    initargs=(self.store_dir,),
                    **pool_kwargs())
            return self._pool.submit(_execute_unit_pooled, unit,
                                     time.monotonic_ns())

    def group(self) -> UnitGroup:
        return _PoolGroup(self)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # abandoned planner runs (an early break, a cancelled
            # service job) must not execute the rest of the queue:
            # running units finish, queued units are cancelled
            pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# socket workers: a lease server + remote store replication
# ----------------------------------------------------------------------

def parse_host_port(spec: str, default_host: str = "127.0.0.1"
                    ) -> tuple[str, int]:
    """``host:port`` / ``:port`` / bare ``port`` -> ``(host, port)``."""
    text = str(spec).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad worker address {spec!r}: expected "
                         f"host:port") from None
    if not 0 < port < 65536:
        raise ValueError(f"bad worker port {port} in {spec!r}")
    return host, port


def _send_frame(conn: socket.socket, message: dict) -> None:
    payload = pickle.dumps(message, protocol=PICKLE_PROTOCOL)
    conn.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(conn: socket.socket, count: int) -> bytearray | None:
    """Exactly *count* bytes, ``None`` on clean EOF at a frame edge."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        got = conn.recv_into(view[received:])
        if not got:
            if received:
                raise ConnectionError("connection dropped mid-frame")
            return None
        received += got
    return buffer


def _recv_frame(conn: socket.socket) -> dict | None:
    header = _recv_exact(conn, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"refusing {length}-byte frame "
                              f"(not a repro worker peer?)")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise ConnectionError("connection dropped mid-frame")
    return pickle.loads(payload)


class _SocketGroup(UnitGroup):
    def __init__(self, backend: "SocketWorkerBackend"):
        self._backend = backend
        self._results: queue.Queue = queue.Queue()
        self._pending = 0
        self._warned = False

    def submit(self, unit: WorkUnit) -> int:
        ticket = self._backend._enqueue(unit, self)
        self._pending += 1
        return ticket

    def wait_any(self) -> tuple[int, object]:
        if self._pending <= 0:
            raise RuntimeError("wait_any() with no pending units")
        while True:
            try:
                ticket, outcome = self._results.get(
                    timeout=_IDLE_WARN_SECONDS)
                break
            except queue.Empty:
                if not self._backend.worker_count() and not self._warned:
                    self._warned = True
                    print(f"repro: waiting for workers on "
                          f"{self._backend.host}:{self._backend.port} "
                          f"(start one with: repro worker --connect "
                          f"{self._backend.host}:{self._backend.port})",
                          file=sys.stderr, flush=True)
        self._pending -= 1
        if isinstance(outcome, _UnitFailure):
            raise RuntimeError(f"remote work unit failed: "
                               f"{outcome.error}")
        return ticket, outcome

    @property
    def pending(self) -> int:
        return self._pending


class SocketWorkerBackend(ExecutionBackend):
    """A lease server remote ``repro worker`` processes execute for.

    The backend owns a listening TCP socket inside the planner (or
    service) process.  Workers connect, say hello, and loop:

    1. ``lease`` — block until a unit is queued; the reply carries the
       unit plus the server store's current blob ids.
    2. ``pull`` — fetch the blobs the worker's local replica lacks
       (content-hash filenames make "missing" a set difference).
    3. execute the unit against the local replica,
    4. ``push`` — upload blobs the unit created that the server lacks,
    5. ``result`` — ship the result value plus a telemetry snapshot.

    Results travel *by value* (like pool futures); the store sync is a
    cache/artifact layer, so a storeless backend still computes
    correct results — re-runs just can't reuse artifacts.

    Worker registration feeds the ``repro_workers_connected`` gauge
    and ``worker-joined``/``worker-left`` events; every lease counts
    ``repro_units_leased_total{backend="workers"}`` and emits
    ``unit-leased``.  A worker dying mid-unit requeues its lease at
    the front of the queue.
    """

    name = "workers"

    def __init__(self, store_dir: str | os.PathLike | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 parallelism: int | None = None, on_event=None):
        self.store_dir = (os.fspath(store_dir)
                          if store_dir is not None else None)
        self._store = (ArtifactStore(self.store_dir)
                       if self.store_dir is not None else None)
        # plans should fan out even before workers connect; the exact
        # worker count never shapes a plan (determinism contract)
        self.parallelism = max(2, parallelism or 0)
        self.on_event = on_event
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque = deque()       # (ticket, unit, group)
        self._leased: dict = {}            # conn_id -> (ticket, unit, group)
        self._workers: dict = {}           # conn_id -> worker name
        self._tickets = itertools.count()
        self._closing = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-workers-accept")
        self._accept_thread.start()

    # -- planner side ---------------------------------------------------

    def group(self) -> UnitGroup:
        return _SocketGroup(self)

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def _enqueue(self, unit: WorkUnit, group: _SocketGroup) -> int:
        with self._work:
            if self._closing:
                raise RuntimeError("backend is closed")
            ticket = next(self._tickets)
            self._queue.append((ticket, unit, group))
            self._work.notify()
        return ticket

    def close(self) -> None:
        with self._work:
            if self._closing:
                return
            self._closing = True
            self._work.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass

    # -- events + gauges --------------------------------------------------

    def _emit(self, event) -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(event)
        except Exception:
            pass  # an observer must never take the lease server down

    # -- server side ------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve_connection,
                             args=(conn, addr), daemon=True,
                             name="repro-worker-conn").start()

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        from .events import WorkerJoinedEvent, WorkerLeftEvent
        conn_id = object()
        name = None
        try:
            hello = _recv_frame(conn)
            if (not isinstance(hello, dict)
                    or hello.get("op") != "hello"):
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                _send_frame(conn, {
                    "op": "reject",
                    "error": f"protocol {hello.get('protocol')!r} != "
                             f"server {PROTOCOL_VERSION}"})
                return
            name = str(hello.get("name")
                       or f"{addr[0]}:{addr[1]}")
            with self._lock:
                self._workers[conn_id] = name
                count = len(self._workers)
            TELEMETRY.gauge("repro_workers_connected").set(count)
            self._emit(WorkerJoinedEvent(worker=name, workers=count))
            _send_frame(conn, {"op": "welcome",
                               "store": self._store is not None})
            while True:
                message = _recv_frame(conn)
                if message is None:
                    break  # clean EOF
                op = message.get("op") if isinstance(message, dict) \
                    else None
                if op == "lease":
                    self._handle_lease(conn, conn_id, name)
                elif op == "pull":
                    self._handle_pull(conn, message)
                elif op == "push":
                    self._handle_push(conn, message)
                elif op == "result":
                    self._handle_result(conn, conn_id, message)
                elif op == "goodbye":
                    break
                else:
                    _send_frame(conn, {"op": "error",
                                       "error": f"unknown op {op!r}"})
        except (ConnectionError, OSError, EOFError,
                pickle.UnpicklingError):
            pass  # a dropped worker is handled by the requeue below
        finally:
            try:
                conn.close()
            except OSError:
                pass
            requeued = 0
            with self._work:
                was = self._workers.pop(conn_id, None)
                entry = self._leased.pop(conn_id, None)
                if entry is not None:
                    # the next worker should run the orphaned unit
                    # before anything newer (its planner is blocked)
                    self._queue.appendleft(entry)
                    requeued = 1
                    self._work.notify()
                count = len(self._workers)
            if was is not None:
                TELEMETRY.gauge("repro_workers_connected").set(count)
                self._emit(WorkerLeftEvent(worker=was, workers=count,
                                           requeued=requeued))

    def _handle_lease(self, conn: socket.socket, conn_id,
                      name: str) -> None:
        from .events import UnitLeasedEvent
        with self._work:
            while not self._queue and not self._closing:
                self._work.wait()
            if not self._queue:
                _send_frame(conn, {"op": "shutdown"})
                return
            entry = self._queue.popleft()
            self._leased[conn_id] = entry
        ticket, unit, _ = entry
        _count_lease(self.name)
        self._emit(UnitLeasedEvent(worker=name, unit_kind=unit.kind))
        blobs = self._store.blob_ids() if self._store is not None \
            else None
        _send_frame(conn, {"op": "unit", "lease": ticket, "unit": unit,
                           "blobs": blobs})

    def _handle_pull(self, conn: socket.socket, message: dict) -> None:
        blobs = []
        if self._store is not None:
            for kind, blob_name in message.get("want", ()):
                try:
                    payload = self._store.read_blob(kind, blob_name)
                except ValueError:
                    continue  # refuse bogus ids, serve the rest
                if payload is not None:
                    blobs.append((kind, blob_name, payload))
        _send_frame(conn, {"op": "blobs", "blobs": blobs})

    def _handle_push(self, conn: socket.socket, message: dict) -> None:
        written = 0
        if self._store is not None:
            for kind, blob_name, payload in message.get("blobs", ()):
                try:
                    written += self._store.write_blob(kind, blob_name,
                                                      payload)
                except ValueError:
                    continue
        _send_frame(conn, {"op": "ok", "written": written})

    def _handle_result(self, conn: socket.socket, conn_id,
                       message: dict) -> None:
        with self._work:
            entry = self._leased.pop(conn_id, None)
        TELEMETRY.merge(message.get("telemetry"))
        if entry is not None:
            ticket, _, group = entry
            if message.get("ok", False):
                outcome = message.get("result")
            else:
                outcome = _UnitFailure(str(message.get("error")))
            group._results.put((ticket, outcome))
        _send_frame(conn, {"op": "ok"})


# ----------------------------------------------------------------------
# the worker client (`repro worker --connect host:port`)
# ----------------------------------------------------------------------

def _replica_pull(conn: socket.socket, store: ArtifactStore,
                  server_blobs: list) -> None:
    """Fetch whatever the server has that the replica lacks."""
    want = sorted(set(map(tuple, server_blobs))
                  - set(store.blob_ids()))
    if not want:
        return
    _send_frame(conn, {"op": "pull", "want": want})
    reply = _recv_frame(conn)
    if reply is None or reply.get("op") != "blobs":
        raise ConnectionError("pull got no blobs reply")
    for kind, blob_name, payload in reply.get("blobs", ()):
        store.write_blob(kind, blob_name, payload)


def _replica_push(conn: socket.socket, store: ArtifactStore,
                  server_blobs: list) -> None:
    """Upload whatever the unit created that the server lacks."""
    known = set(map(tuple, server_blobs))
    fresh = [(kind, blob_name) for kind, blob_name in store.blob_ids()
             if (kind, blob_name) not in known]
    if not fresh:
        return
    blobs = []
    for kind, blob_name in fresh:
        payload = store.read_blob(kind, blob_name)
        if payload is not None:
            blobs.append((kind, blob_name, payload))
    _send_frame(conn, {"op": "push", "blobs": blobs})
    reply = _recv_frame(conn)
    if reply is None or reply.get("op") != "ok":
        raise ConnectionError("push got no ack")


def run_worker(connect: str, store_dir: str | os.PathLike | None = None,
               name: str | None = None, max_units: int | None = None,
               announce=None) -> int:
    """The ``repro worker`` loop: lease, sync, execute, push, repeat.

    Connects to a :class:`SocketWorkerBackend` at *connect*
    (``host:port``), executes units until the server says ``shutdown``
    (or the link drops, or *max_units* is reached), and returns how
    many units it completed.  ``store_dir`` roots the local store
    replica; omitted, a temporary replica is created and removed on
    exit.  *announce*, if given, receives one human-readable line per
    lifecycle step (the CLI wires it to stderr).
    """
    host, port = parse_host_port(connect)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    scratch = None
    if store_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-worker-")
        store_dir = scratch.name

    def say(line: str) -> None:
        if announce is not None:
            announce(line)

    units = 0
    try:
        with socket.create_connection((host, port)) as conn:
            _send_frame(conn, {"op": "hello",
                               "protocol": PROTOCOL_VERSION,
                               "name": worker_name, "pid": os.getpid()})
            welcome = _recv_frame(conn)
            if welcome is None or welcome.get("op") != "welcome":
                error = (welcome or {}).get("error", "no welcome")
                raise ConnectionError(f"server refused worker: {error}")
            env = ExecutionEnv(store_dir)
            server_has_store = bool(welcome.get("store"))
            say(f"worker {worker_name} connected to {host}:{port} "
                f"(replica: {store_dir})")
            while max_units is None or units < max_units:
                _send_frame(conn, {"op": "lease"})
                message = _recv_frame(conn)
                if message is None or message.get("op") == "shutdown":
                    say(f"worker {worker_name} released "
                        f"({units} units)")
                    break
                if message.get("op") != "unit":
                    raise ConnectionError(
                        f"unexpected lease reply "
                        f"{message.get('op')!r}")
                unit: WorkUnit = message["unit"]
                server_blobs = message.get("blobs") or []
                if server_has_store and env.store is not None:
                    _replica_pull(conn, env.store, server_blobs)
                try:
                    with TELEMETRY.timer("repro_worker_unit_seconds"):
                        result = execute_unit(unit, env)
                    ok, error = True, None
                except Exception as exc:  # ship the failure home
                    result, ok = None, False
                    error = f"{type(exc).__name__}: {exc}"
                if server_has_store and env.store is not None:
                    _replica_push(conn, env.store, server_blobs)
                _send_frame(conn, {"op": "result",
                                   "lease": message["lease"],
                                   "ok": ok, "result": result,
                                   "error": error,
                                   "telemetry": TELEMETRY.drain()})
                ack = _recv_frame(conn)
                if ack is None:
                    break
                units += 1
                say(f"worker {worker_name} completed {unit.kind} "
                    f"({units} total)")
            try:
                _send_frame(conn, {"op": "goodbye"})
            except OSError:
                pass
    finally:
        if scratch is not None:
            scratch.cleanup()
    return units


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------

def resolve_backend(spec, jobs: int | None = 1,
                    store_dir: str | os.PathLike | None = None,
                    units: int | None = None
                    ) -> tuple[ExecutionBackend, bool]:
    """A backend for one planner run: ``(backend, planner_owns_it)``.

    *spec* is ``None`` (auto: inline for serial shapes, pool
    otherwise), a backend name, or a live :class:`ExecutionBackend`
    instance.  Auto and named specs build a fresh per-run backend the
    planner must close (``owned=True``); a live instance is shared
    infrastructure (the service's socket backend) and is returned
    unowned.  *units*, when the planner already knows how many units
    it will submit, caps the pool size the way the old per-module
    dispatch loops did (``min(jobs, len(shards))``).
    """
    if isinstance(spec, ExecutionBackend):
        return spec, False
    if spec is not None and spec not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {spec!r}; expected one of "
                         f"{list(BACKEND_NAMES)} or a backend instance")
    jobs = max(1, jobs if jobs and jobs > 0 else (os.cpu_count() or 1))
    name = spec
    if name is None:
        serial = jobs <= 1 or (units is not None and units <= 1)
        name = "inline" if serial else "pool"
    if name == "inline":
        return InlineBackend(store_dir), True
    if name == "pool":
        return PoolBackend(jobs, store_dir=store_dir,
                           max_workers=units), True
    raise ValueError(
        "the workers backend needs a live lease server; pass a "
        "SocketWorkerBackend instance (the CLI's --backend workers and "
        "serve --workers-port construct one)")

"""Tests for the unified execution-backend layer (ISSUE 10).

The acceptance bar: inline, pool, and socket-worker backends produce
byte-identical exact-mode ledgers for flat sweeps, segmented sweeps
(fixed and adaptive), searches, and fuzz campaigns — with any worker
count — because backends only choose the execution *mechanism* while
``jobs`` stays the planning knob.  Plus the distribution plumbing:
host:port parsing, backend resolution, store blob replication by
content hash, lease requeue when a worker drops, and the
worker-lifecycle event vocabulary.
"""

import json
import pickle
import socket
import struct
import threading

import pytest

from repro.engine.backend import (BACKEND_NAMES, PROTOCOL_VERSION,
                                  ExecutionEnv, InlineBackend,
                                  PoolBackend, SocketWorkerBackend,
                                  WorkUnit, _recv_frame, _send_frame,
                                  execute_unit, parse_host_port,
                                  register_executor, resolve_backend,
                                  run_worker)
from repro.engine.campaign import Campaign
from repro.engine.differential import run_fuzz
from repro.engine.events import (UnitLeasedEvent, WorkerJoinedEvent,
                                 WorkerLeftEvent, event_from_json_line)
from repro.engine.pool import run_sweep
from repro.engine.search import SearchSpace, run_search
from repro.engine.segments import SegmentPolicy
from repro.engine.store import ArtifactStore
from repro.experiments import runner

WORKLOADS = ["synth:ilp@seed=0", "synth:mixed@seed=1"]
AXES = [("optimizer.enabled", [False, True])]
FIXED_2000 = SegmentPolicy(segment_insns=2000)


@pytest.fixture(autouse=True)
def _clean_runner_state():
    runner.clear_caches(detach_store=True)
    yield
    runner.clear_caches(detach_store=True)


def _campaign() -> Campaign:
    return Campaign.from_axes(workloads=WORKLOADS, axes=AXES)


@register_executor("test-echo")
def _echo_executor(payload, env):
    return ("echo",) + tuple(payload)


class _WorkerFleet:
    """In-process ``run_worker`` threads against one lease server."""

    def __init__(self, backend: SocketWorkerBackend, tmp_path,
                 workers: int):
        self.backend = backend
        self.threads = [
            threading.Thread(
                target=run_worker,
                args=(f"127.0.0.1:{backend.port}",),
                kwargs={"store_dir": tmp_path / f"replica-{index}",
                        "name": f"w{index}"},
                daemon=True)
            for index in range(workers)]
        for thread in self.threads:
            thread.start()

    def close(self) -> None:
        self.backend.close()
        for thread in self.threads:
            thread.join(timeout=60)


@pytest.fixture
def fleet_factory(tmp_path):
    fleets = []

    def make(workers: int = 1, store: bool = True,
             on_event=None) -> SocketWorkerBackend:
        backend = SocketWorkerBackend(
            store_dir=tmp_path / "server-store" if store else None,
            parallelism=4, on_event=on_event)
        fleets.append(_WorkerFleet(backend, tmp_path, workers))
        return backend

    yield make
    for fleet in fleets:
        fleet.close()


# ----------------------------------------------------------------------
# plumbing: addresses, resolution, unit dispatch
# ----------------------------------------------------------------------


class TestParseHostPort:
    def test_forms(self):
        assert parse_host_port("10.0.0.7:9900") == ("10.0.0.7", 9900)
        assert parse_host_port(":9900") == ("127.0.0.1", 9900)
        assert parse_host_port("9900") == ("127.0.0.1", 9900)

    @pytest.mark.parametrize("bad", ["host:", "host:nan", "", "a:b:c",
                                     "host:0", "host:70000"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="bad worker"):
            parse_host_port(bad)


class TestResolveBackend:
    def test_auto_serial_is_inline(self):
        backend, owned = resolve_backend(None, jobs=1)
        assert isinstance(backend, InlineBackend) and owned

    def test_auto_parallel_is_pool(self):
        backend, owned = resolve_backend(None, jobs=4)
        assert isinstance(backend, PoolBackend) and owned
        assert backend.parallelism == 4
        backend.close()

    def test_single_unit_collapses_to_inline(self):
        backend, _ = resolve_backend(None, jobs=4, units=1)
        assert isinstance(backend, InlineBackend)

    def test_units_cap_pool_size(self):
        backend, _ = resolve_backend("pool", jobs=8, units=3)
        assert backend.parallelism == 3
        backend.close()

    def test_instance_passes_through_unowned(self):
        live = InlineBackend()
        backend, owned = resolve_backend(live, jobs=4)
        assert backend is live and not owned

    def test_workers_name_needs_a_live_server(self):
        with pytest.raises(ValueError, match="lease server"):
            resolve_backend("workers", jobs=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads", jobs=4)

    def test_names_are_the_cli_vocabulary(self):
        assert BACKEND_NAMES == ("inline", "pool", "workers")


class TestUnitDispatch:
    def test_registered_kind_executes(self):
        unit = WorkUnit(kind="test-echo", payload=(1, 2))
        assert execute_unit(unit, ExecutionEnv()) == ("echo", 1, 2)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown work unit kind"):
            execute_unit(WorkUnit(kind="no-such", payload=()),
                         ExecutionEnv())

    def test_inline_group_completes_in_submission_order(self):
        group = InlineBackend().group()
        tickets = [group.submit(WorkUnit("test-echo", (n,)))
                   for n in range(3)]
        got = [group.wait_any() for _ in range(3)]
        assert got == [(t, ("echo", n))
                       for t, n in zip(tickets, range(3))]
        assert group.pending == 0

    def test_wait_any_without_pending_raises(self):
        with pytest.raises(RuntimeError, match="no pending"):
            InlineBackend().group().wait_any()

    def test_inline_group_runs_units_only_when_drained(self):
        ran = []

        @register_executor("test-record")
        def _record(payload, env):
            ran.append(payload[0])
            return payload[0]

        group = InlineBackend().group()
        for n in range(3):
            group.submit(WorkUnit("test-record", (n,)))
        # nothing runs at submit: an abandoned group leaves the rest
        # of its queue unexecuted
        assert ran == [] and group.pending == 3
        assert group.wait_any()[1] == 0
        assert ran == [0] and group.pending == 2


class TestFrames:
    """Length-prefixed lease frames over a real socket pair."""

    def test_multi_megabyte_frame_round_trips(self):
        message = {"op": "blobs", "payload": bytes(range(256)) * 32768}
        left, right = socket.socketpair()
        try:
            # the 8 MB frame overflows the socket buffer: send from a
            # thread while this one reads
            sender = threading.Thread(target=_send_frame,
                                      args=(left, message))
            sender.start()
            assert _recv_frame(right) == message
            sender.join(timeout=60)
        finally:
            left.close()
            right.close()

    def test_clean_eof_at_frame_edge_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert _recv_frame(right) is None
        finally:
            right.close()

    @pytest.mark.parametrize("cut", ["header", "payload"])
    def test_close_mid_frame_raises(self, cut):
        payload = pickle.dumps({"op": "ok", "pad": b"x" * 4096})
        frame = struct.pack(">Q", len(payload)) + payload
        left, right = socket.socketpair()
        try:
            left.sendall(frame[:3] if cut == "header"
                         else frame[:len(frame) // 2])
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                _recv_frame(right)
        finally:
            right.close()


# ----------------------------------------------------------------------
# the determinism contract, across backends
# ----------------------------------------------------------------------


class TestBackendParity:
    def test_flat_sweep_ledgers_match(self, tmp_path, fleet_factory):
        points = _campaign().points()
        inline = run_sweep(points, jobs=2, backend="inline")
        pool = run_sweep(points, jobs=2, backend="pool")
        one = run_sweep(points, jobs=2, backend=fleet_factory(1))
        four = run_sweep(points, jobs=2, backend=fleet_factory(4))
        assert inline.ledger_json() == pool.ledger_json()
        assert inline.ledger_json() == one.ledger_json()
        assert inline.ledger_json() == four.ledger_json()

    def test_segmented_fixed_ledgers_match(self, tmp_path,
                                           fleet_factory):
        points = _campaign().points()
        inline = run_sweep(points, jobs=2, segment_policy=FIXED_2000,
                           store_dir=tmp_path / "inline",
                           backend="inline")
        pool = run_sweep(points, jobs=2, segment_policy=FIXED_2000,
                         store_dir=tmp_path / "pool", backend="pool")
        fleet = fleet_factory(2)
        sockets = run_sweep(points, jobs=2, segment_policy=FIXED_2000,
                            store_dir=fleet.store_dir, backend=fleet)
        assert inline.ledger_json() == pool.ledger_json()
        assert inline.ledger_json() == sockets.ledger_json()

    def test_segmented_adaptive_ledgers_match(self, tmp_path,
                                              fleet_factory):
        points = _campaign().points()
        policy = SegmentPolicy(mode="adaptive")
        inline = run_sweep(points, jobs=2, segment_policy=policy,
                           store_dir=tmp_path / "inline",
                           backend="inline")
        fleet = fleet_factory(2)
        sockets = run_sweep(points, jobs=2, segment_policy=policy,
                            store_dir=fleet.store_dir, backend=fleet)
        assert inline.ledger_json() == sockets.ledger_json()

    def test_search_ledgers_match(self, tmp_path, fleet_factory):
        space = SearchSpace.from_specs(
            ["optimizer.enabled=false,true", "sched_entries=8,16"])

        def search(backend):
            return run_search(space, workloads=tuple(WORKLOADS),
                              strategy="random", budget=3, seed=11,
                              jobs=2, backend=backend)

        inline = search("inline")
        pool = search("pool")
        sockets = search(fleet_factory(2))
        assert inline.ledger_json() == pool.ledger_json()
        assert inline.ledger_json() == sockets.ledger_json()

    def test_fuzz_reports_match(self, fleet_factory):
        seeds = range(0, 2)

        def fuzz(backend):
            return json.dumps(run_fuzz(
                seeds, families=("ilp", "mixed"), small=True,
                jobs=2, backend=backend).to_dict(), sort_keys=True)

        inline = fuzz("inline")
        assert inline == fuzz(fleet_factory(2, store=False))

    def test_fuzz_events_match_across_backends(self, fleet_factory):
        def stream(backend):
            events = []
            run_fuzz(range(0, 2), families=("ilp",), small=True,
                     jobs=2, backend=backend,
                     progress=lambda e: events.append(e.to_json_line()))
            return events

        assert stream("inline") == stream(fleet_factory(2, store=False))


# ----------------------------------------------------------------------
# store replication by content hash
# ----------------------------------------------------------------------


class TestBlobReplication:
    def _seeded_store(self, tmp_path) -> ArtifactStore:
        run_sweep(_campaign().points()[:2], jobs=1,
                  store_dir=tmp_path / "seeded")
        return ArtifactStore(tmp_path / "seeded")

    def test_push_pull_round_trip(self, tmp_path):
        source = self._seeded_store(tmp_path)
        ids = source.blob_ids()
        assert ids, "sweep should have persisted artifacts"
        replica = ArtifactStore(tmp_path / "replica")
        assert replica.blob_ids() == []
        # replication is "fetch missing hashes": copy the difference
        for kind, name in ids:
            assert not replica.has_blob(kind, name)
            payload = source.read_blob(kind, name)
            assert replica.write_blob(kind, name, payload)
        assert replica.blob_ids() == ids
        for kind, name in ids:
            assert replica.read_blob(kind, name) \
                == source.read_blob(kind, name)

    def test_rewrite_is_idempotent(self, tmp_path):
        source = self._seeded_store(tmp_path)
        kind, name = source.blob_ids()[0]
        payload = source.read_blob(kind, name)
        assert source.write_blob(kind, name, payload) is False

    @pytest.mark.parametrize("bad", ["../../evil.pkl", "evil.pkl",
                                     "a" * 64 + ".exe", "..", ""])
    def test_traversal_and_non_content_names_rejected(self, tmp_path,
                                                      bad):
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(ValueError, match="bad blob name"):
            store.read_blob("traces", bad)
        with pytest.raises(ValueError, match="bad blob name"):
            store.write_blob("traces", bad, b"x")

    def test_unknown_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(ValueError, match="unknown blob kind"):
            store.read_blob("kernels", "0" * 64 + ".pkl")

    def test_worker_replica_converges_to_server_store(self, tmp_path,
                                                      fleet_factory):
        fleet = fleet_factory(1)
        run_sweep(_campaign().points(), jobs=2,
                  store_dir=fleet.store_dir, backend=fleet)
        server = ArtifactStore(fleet.store_dir)
        replica = ArtifactStore(tmp_path / "replica-0")
        assert set(replica.blob_ids()) >= set(
            (kind, name) for kind, name in server.blob_ids()
            if kind == "traces")


# ----------------------------------------------------------------------
# lease-server behaviour: drops, protocol, events, telemetry
# ----------------------------------------------------------------------

_FRAME = struct.Struct(">Q")


def _client_send(conn, message) -> None:
    payload = pickle.dumps(message)
    conn.sendall(_FRAME.pack(len(payload)) + payload)


def _client_recv(conn):
    header = b""
    while len(header) < _FRAME.size:
        header += conn.recv(_FRAME.size - len(header))
    (length,) = _FRAME.unpack(header)
    payload = b""
    while len(payload) < length:
        payload += conn.recv(length - len(payload))
    return pickle.loads(payload)


class TestLeaseServer:
    def test_dropped_worker_requeues_its_lease(self, tmp_path):
        events = []
        backend = SocketWorkerBackend(on_event=events.append)
        try:
            group = backend.group()
            ticket = group.submit(WorkUnit("test-echo", ("seed",)))
            # a hand-rolled worker leases the unit, then drops dead
            with socket.create_connection(("127.0.0.1",
                                           backend.port)) as conn:
                _client_send(conn, {"op": "hello",
                                    "protocol": PROTOCOL_VERSION,
                                    "name": "flaky", "pid": 1})
                assert _client_recv(conn)["op"] == "welcome"
                _client_send(conn, {"op": "lease"})
                assert _client_recv(conn)["op"] == "unit"
            # the requeued unit lands on the next (healthy) worker
            thread = threading.Thread(
                target=run_worker,
                args=(f"127.0.0.1:{backend.port}",),
                kwargs={"name": "steady", "max_units": 1},
                daemon=True)
            thread.start()
            assert group.wait_any() == (ticket, ("echo", "seed"))
            thread.join(timeout=60)
        finally:
            backend.close()
        left = [e for e in events if e.kind == "worker-left"
                and e.worker == "flaky"]
        assert left and left[0].requeued == 1
        leases = [e for e in events if e.kind == "unit-leased"]
        assert [lease.worker for lease in leases] == ["flaky", "steady"]

    def test_protocol_mismatch_is_refused(self):
        backend = SocketWorkerBackend()
        try:
            with socket.create_connection(("127.0.0.1",
                                           backend.port)) as conn:
                _client_send(conn, {"op": "hello", "protocol": 99,
                                    "name": "old", "pid": 1})
                reply = _client_recv(conn)
            assert reply["op"] == "reject"
            assert "protocol" in reply["error"]
            assert backend.worker_count() == 0
        finally:
            backend.close()

    def test_unit_failure_travels_home_as_an_exception(self, tmp_path):
        backend = SocketWorkerBackend()
        thread = threading.Thread(
            target=run_worker, args=(f"127.0.0.1:{backend.port}",),
            kwargs={"max_units": 1}, daemon=True)
        thread.start()
        try:
            group = backend.group()
            group.submit(WorkUnit("no-such-kind", ()))
            with pytest.raises(RuntimeError,
                               match="remote work unit failed"):
                group.wait_any()
            thread.join(timeout=60)
        finally:
            backend.close()

    def test_lease_telemetry_counts_per_backend(self, fleet_factory):
        from repro.engine.telemetry import TELEMETRY
        TELEMETRY.drain()
        run_sweep(_campaign().points()[:2], jobs=2,
                  backend=fleet_factory(1, store=False))
        counters = TELEMETRY.snapshot().get("counters", {})
        leased = counters.get("repro_units_leased_total", {})
        assert leased.get('backend="workers"', 0) >= 1
        TELEMETRY.drain()


class TestWorkerEvents:
    def test_json_round_trip(self):
        for event in (WorkerJoinedEvent(worker="w0", workers=1),
                      WorkerLeftEvent(worker="w0", workers=0,
                                      requeued=1),
                      UnitLeasedEvent(worker="w0",
                                      unit_kind="sweep-shard")):
            decoded = event_from_json_line(event.to_json_line())
            assert decoded == event
            assert decoded.kind == event.kind

    def test_lifecycle_events_emitted_in_order(self, fleet_factory):
        events = []
        backend = fleet_factory(1, store=False,
                                on_event=events.append)
        run_sweep(_campaign().points()[:2], jobs=2, backend=backend)
        kinds = [event.kind for event in events]
        assert kinds[0] == "worker-joined"
        assert "unit-leased" in kinds

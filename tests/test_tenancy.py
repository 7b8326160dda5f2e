"""Tests for multi-tenant serving: auth, quotas, rates, store isolation.

The acceptance bar (ISSUE 9): with no tokens configured nothing
changes (test_service.py's byte-identical ledgers keep passing
untouched); with tokens, unauthenticated requests get 401 with
``WWW-Authenticate``, cross-tenant access gets 403, quota/rate
exhaustion gets 429 with ``Retry-After``, tenants see only their own
jobs, and one tenant's store budget can never evict another tenant's
artifacts.
"""

import asyncio
import http.client
import threading

import pytest

from repro.engine.service import (JobManager, ServiceError,
                                  ServiceServer, TenantLimits,
                                  TenantState, parse_auth_tokens,
                                  request_json, watch_job)
from repro.engine.store import (ArtifactStore, list_tenants,
                                tenant_store_root, tenant_usage,
                                validate_tenant_name)

FAST_SPEC = {"kind": "sweep", "workloads": ["mcf"]}
#: Long enough that quota tests can observe an *active* job.
LONG_SPEC = {"kind": "fuzz", "seeds": [0, 40], "small": True,
             "families": ["ilp"]}

TOKENS = {"alice-token": "alice", "bob-token": "bob"}


# ----------------------------------------------------------------------
# unit: token parsing, limits, the token bucket, tenant names
# ----------------------------------------------------------------------


class TestParseAuthTokens:
    def test_tenant_token_pairs_and_bare_tokens(self):
        assert parse_auth_tokens(["alice:s3cret", "opaque"]) == \
            {"s3cret": "alice", "opaque": "default"}

    def test_one_tenant_may_rotate_several_tokens(self):
        tokens = parse_auth_tokens(["a:old", "a:new"])
        assert tokens == {"old": "a", "new": "a"}

    def test_duplicate_token_across_tenants_rejected(self):
        with pytest.raises(ValueError, match="already belongs"):
            parse_auth_tokens(["a:shared", "b:shared"])

    def test_blank_specs_are_skipped(self):
        # the env-var path splits on commas; empty fragments are noise
        assert parse_auth_tokens(["", "  ", "a:t"]) == {"t": "a"}

    def test_whitespace_or_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="no whitespace"):
            parse_auth_tokens(["a:"])
        with pytest.raises(ValueError, match="no whitespace"):
            parse_auth_tokens(["a:to ken"])

    def test_bad_tenant_names_rejected(self):
        for name in ("../evil", "a/b", ".hidden", "-dash", "x" * 65):
            with pytest.raises(ValueError, match="bad tenant name"):
                parse_auth_tokens([f"{name}:token"])


class TestTenantLimitsAndState:
    def test_limit_validation(self):
        with pytest.raises(ValueError, match="max_active_jobs"):
            TenantLimits(max_active_jobs=0)
        with pytest.raises(ValueError, match="burst"):
            TenantLimits(burst=0)
        with pytest.raises(ValueError, match="max_store_bytes"):
            TenantLimits(max_store_bytes=-1)

    def test_token_bucket_burst_then_refill(self):
        state = TenantState("t", TenantLimits(rate_per_second=1.0,
                                              burst=2))
        now = state.refilled_at
        assert state.take(now) == 0.0
        assert state.take(now) == 0.0
        wait = state.take(now)  # bucket empty
        assert wait == pytest.approx(1.0)
        # one second later one whole token has refilled
        assert state.take(now + 1.0) == 0.0

    def test_zero_rate_disables_rate_limiting(self):
        state = TenantState("t", TenantLimits(rate_per_second=0.0,
                                              burst=1))
        now = state.refilled_at
        assert all(state.take(now) == 0.0 for _ in range(50))


class TestTenantNames:
    def test_safe_names_pass_through(self):
        for name in ("a", "team-1", "a.b_c", "X" * 64):
            assert validate_tenant_name(name) == name

    def test_traversal_shaped_names_cannot_become_paths(self):
        for name in ("..", "../x", "a/b", "", "\\", ".git"):
            with pytest.raises(ValueError):
                validate_tenant_name(name)


# ----------------------------------------------------------------------
# unit: per-tenant store namespaces and gc isolation
# ----------------------------------------------------------------------


class TestTenantStoreIsolation:
    def _fill(self, store: ArtifactStore, workloads) -> None:
        for workload in workloads:
            store.save_trace_info(workload, 1, {"instructions": 123})

    def test_namespaces_are_disjoint_and_listed(self, tmp_path):
        root = ArtifactStore(tmp_path)
        a = ArtifactStore.for_tenant(tmp_path, "a")
        b = ArtifactStore.for_tenant(tmp_path, "b")
        self._fill(root, ["r1"])
        self._fill(a, ["w1", "w2"])
        self._fill(b, ["w1"])
        assert a.root == tenant_store_root(tmp_path, "a")
        assert list_tenants(tmp_path) == ["a", "b"]
        usage = tenant_usage(tmp_path)
        assert usage["a"] > 0 and usage["b"] > 0
        # the root's own scan never descends into tenants/
        assert root.artifact_count()["manifests"] == 1

    def test_tenant_gc_cannot_touch_other_namespaces(self, tmp_path):
        root = ArtifactStore(tmp_path)
        a = ArtifactStore.for_tenant(tmp_path, "a")
        b = ArtifactStore.for_tenant(tmp_path, "b")
        self._fill(root, ["r1"])
        self._fill(a, ["w1", "w2", "w3"])
        self._fill(b, ["w1", "w2"])
        before_b, before_root = b.total_bytes(), root.total_bytes()
        report = a.gc(0)
        assert report["evicted"] == 3
        assert a.total_bytes() == 0
        assert b.total_bytes() == before_b
        assert root.total_bytes() == before_root

    def test_root_gc_cannot_touch_tenant_namespaces(self, tmp_path):
        root = ArtifactStore(tmp_path)
        a = ArtifactStore.for_tenant(tmp_path, "a")
        self._fill(root, ["r1", "r2"])
        self._fill(a, ["w1"])
        before_a = a.total_bytes()
        report = root.gc(0)
        assert report["evicted"] == 2
        assert root.total_bytes() == 0
        assert a.total_bytes() == before_a


class TestManagerStoreBudget:
    def test_budget_gc_runs_after_each_finished_job(self, tmp_path):
        from repro.engine.telemetry import TELEMETRY
        TELEMETRY.reset()

        async def scenario():
            manager = JobManager(
                store_dir=str(tmp_path), jobs=1,
                tenant_limits=TenantLimits(max_store_bytes=0))
            try:
                job = await manager.submit(dict(FAST_SPEC), tenant="a")
                await manager.wait(job.id)
                return job.status
            finally:
                await manager.close()

        assert asyncio.run(scenario()) == "finished"
        # the sweep stored artifacts, then the 0-byte budget evicted
        # every one of them from the tenant's namespace
        assert ArtifactStore.for_tenant(tmp_path, "a").total_bytes() == 0
        snapshot = TELEMETRY.snapshot()
        evictions = snapshot["counters"][
            "repro_tenant_store_evictions_total"]['tenant="a"']
        assert evictions >= 1

    def test_anonymous_jobs_skip_the_budget(self, tmp_path):
        async def scenario():
            manager = JobManager(
                store_dir=str(tmp_path), jobs=1,
                tenant_limits=TenantLimits(max_store_bytes=0))
            try:
                job = await manager.submit(dict(FAST_SPEC))
                await manager.wait(job.id)
                return job.status
            finally:
                await manager.close()

        assert asyncio.run(scenario()) == "finished"
        # anonymous work lands in the root store, which has no budget
        assert ArtifactStore(tmp_path).total_bytes() > 0


# ----------------------------------------------------------------------
# HTTP: 401 / 403 / 429, invisibility, headers
# ----------------------------------------------------------------------


class AuthServiceThread:
    """A token-protected JobManager + ServiceServer on its own loop."""

    def __init__(self, store_dir, auth_tokens=None, tenant_limits=None):
        self._ready = threading.Event()
        self._args = (str(store_dir),
                      dict(TOKENS if auth_tokens is None
                           else auth_tokens), tenant_limits)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "service did not start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        store_dir, tokens, limits = self._args
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.manager = JobManager(store_dir=store_dir, jobs=1,
                                  tenant_limits=limits)
        server = ServiceServer(self.manager, host="127.0.0.1", port=0,
                               auth_tokens=tokens)
        self.port = await server.start()
        self.url = f"http://127.0.0.1:{self.port}"
        self._ready.set()
        await self._stop.wait()
        await server.stop()
        await self.manager.close()

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def raw(self, method, path, token=None, body=None):
        """One raw request; returns (status, headers, body_text)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            headers = {}
            if token:
                headers["Authorization"] = f"Bearer {token}"
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return (response.status, dict(response.getheaders()),
                    response.read().decode())
        finally:
            conn.close()


@pytest.fixture
def auth_service(tmp_path):
    from repro.engine.telemetry import TELEMETRY
    TELEMETRY.reset()
    thread = AuthServiceThread(tmp_path / "store")
    yield thread
    thread.stop()


class TestAuth:
    def test_missing_token_is_401_with_www_authenticate(
            self, auth_service):
        for method, path in (("GET", "/jobs"), ("POST", "/jobs"),
                             ("DELETE", "/jobs/j1"),
                             ("GET", "/jobs/j1/events")):
            status, headers, body = auth_service.raw(method, path)
            assert status == 401, (method, path, body)
            assert headers["WWW-Authenticate"] == \
                'Bearer realm="repro"'
            assert "bearer token" in body

    def test_wrong_or_malformed_credentials_are_401(self,
                                                    auth_service):
        assert auth_service.raw("GET", "/jobs",
                                token="nope")[0] == 401
        conn = http.client.HTTPConnection("127.0.0.1",
                                          auth_service.port,
                                          timeout=30)
        try:
            # right token, wrong scheme: Basic is not Bearer
            conn.request("GET", "/jobs", headers={
                "Authorization": "Basic alice-token"})
            assert conn.getresponse().status == 401
        finally:
            conn.close()

    def test_metrics_stays_open_and_counts_rejections(self,
                                                      auth_service):
        assert auth_service.raw("GET", "/jobs")[0] == 401
        status, _, text = auth_service.raw("GET", "/metrics")
        assert status == 200
        assert 'repro_requests_rejected_total{reason="auth"} 1' in text

    def test_authenticated_submit_carries_tenant_and_timestamps(
            self, auth_service):
        created = request_json(auth_service.url, "POST", "/jobs",
                               dict(FAST_SPEC), token="alice-token")
        assert created["tenant"] == "alice"
        # the ISO-8601 wall-clock satellite: parseable, UTC-suffixed
        from datetime import datetime
        assert created["submitted"].endswith("Z")
        datetime.fromisoformat(created["submitted"])
        events = []
        last = watch_job(auth_service.url, created["id"],
                         events.append, token="alice-token")
        assert last.kind == "job-finished"
        assert last.result["submitted"] == created["submitted"]
        datetime.fromisoformat(last.result["started"])
        # but the ledger stays volatile-field-free
        assert "submitted" not in last.result["ledger"]

    def test_tenants_see_only_their_own_jobs(self, auth_service):
        mine = request_json(auth_service.url, "POST", "/jobs",
                            dict(FAST_SPEC), token="alice-token")
        theirs = request_json(auth_service.url, "POST", "/jobs",
                              dict(FAST_SPEC), token="bob-token")
        alice = request_json(auth_service.url, "GET", "/jobs",
                             token="alice-token")["jobs"]
        bob = request_json(auth_service.url, "GET", "/jobs",
                           token="bob-token")["jobs"]
        assert [job["id"] for job in alice] == [mine["id"]]
        assert [job["id"] for job in bob] == [theirs["id"]]

    def test_cross_tenant_access_is_403(self, auth_service):
        created = request_json(auth_service.url, "POST", "/jobs",
                               dict(LONG_SPEC), token="alice-token")
        for method, path in (
                ("DELETE", f"/jobs/{created['id']}"),
                ("GET", f"/jobs/{created['id']}/events")):
            status, _, body = auth_service.raw(method, path,
                                               token="bob-token")
            assert status == 403, (method, path, body)
            assert "another tenant" in body
        # the owner can still cancel it
        gone = request_json(auth_service.url, "DELETE",
                            f"/jobs/{created['id']}",
                            token="alice-token")
        assert gone["id"] == created["id"]

    def test_per_tenant_gauges_on_metrics(self, auth_service):
        created = request_json(auth_service.url, "POST", "/jobs",
                               dict(FAST_SPEC), token="alice-token")
        watch_job(auth_service.url, created["id"], lambda e: None,
                  token="alice-token")
        _, _, text = auth_service.raw("GET", "/metrics")
        assert 'repro_tenant_active_jobs{tenant="alice"}' in text
        assert 'repro_tenant_rate_tokens{tenant="alice"}' in text
        assert 'repro_tenant_store_bytes{tenant="alice"}' in text


class TestQuotaAndRate:
    def test_quota_429_with_retry_after_and_isolation(self, tmp_path):
        from repro.engine.telemetry import TELEMETRY
        TELEMETRY.reset()
        service = AuthServiceThread(
            tmp_path / "store",
            tenant_limits=TenantLimits(max_active_jobs=1,
                                       rate_per_second=0.0))
        try:
            running = request_json(service.url, "POST", "/jobs",
                                   dict(LONG_SPEC),
                                   token="alice-token")
            status, headers, body = service.raw(
                "POST", "/jobs", token="alice-token",
                body='{"kind": "fuzz", "seeds": [0, 2], '
                     '"small": true}')
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "quota" in body
            # one tenant at its quota takes nothing from another
            other = request_json(service.url, "POST", "/jobs",
                                 dict(FAST_SPEC), token="bob-token")
            assert other["tenant"] == "bob"
            _, _, text = service.raw("GET", "/metrics")
            assert 'repro_requests_rejected_total' \
                '{reason="quota"} 1' in text
            request_json(service.url, "DELETE",
                         f"/jobs/{running['id']}",
                         token="alice-token")
        finally:
            service.stop()

    def test_rate_429_distinct_from_quota_and_capacity(self, tmp_path):
        service = AuthServiceThread(
            tmp_path / "store",
            tenant_limits=TenantLimits(max_active_jobs=100,
                                       rate_per_second=0.5, burst=1))
        try:
            request_json(service.url, "POST", "/jobs",
                         dict(FAST_SPEC), token="alice-token")
            with pytest.raises(ServiceError) as err:
                request_json(service.url, "POST", "/jobs",
                             dict(FAST_SPEC), token="alice-token")
            assert err.value.status == 429
            assert "rate limit" in str(err.value)
            # the client decoded Retry-After off the response headers
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1.0
        finally:
            service.stop()

    def test_no_tokens_means_no_tenant_limits(self, tmp_path):
        # an open server applies only the global max_active_jobs cap:
        # back-to-back submissions far beyond any tenant burst succeed
        service = AuthServiceThread(
            tmp_path / "store", auth_tokens={},
            tenant_limits=TenantLimits(max_active_jobs=1,
                                       rate_per_second=0.001,
                                       burst=1))
        try:
            for _ in range(3):
                created = request_json(service.url, "POST", "/jobs",
                                       dict(FAST_SPEC))
                assert "tenant" not in created
        finally:
            service.stop()


class TestWatchCliAuth:
    def test_watch_sends_bearer_token(self, tmp_path, capsys):
        from repro.cli import main
        service = AuthServiceThread(tmp_path / "store")
        try:
            created = request_json(service.url, "POST", "/jobs",
                                   dict(FAST_SPEC),
                                   token="alice-token")
            assert main(["watch", created["id"], "--url", service.url,
                         "--token", "alice-token"]) == 0
            assert f"job {created['id']} finished" in \
                capsys.readouterr().err
            # without the token the same watch is a clean exit-2 401
            assert main(["watch", created["id"], "--url",
                         service.url]) == 2
            assert "bearer token" in capsys.readouterr().err
        finally:
            service.stop()

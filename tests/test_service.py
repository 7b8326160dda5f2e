"""Tests for the async streaming results service and its HTTP front end.

The acceptance bar (ISSUE 5): two concurrent jobs — one sweep, one
search — run to completion over one shared store via the service, and
their canonical ledgers are byte-identical to the same work run
serially through the engine (what the CLI does).  That only holds
because sweep state lives in per-sweep ``ExecutionContext`` objects,
so these tests double as the end-to-end regression for the
shared-state clobbering fix.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.cli import main
from repro.engine.campaign import Campaign, parse_axis
from repro.engine.events import (EVENT_TYPES, EvaluationEvent,
                                 FindingEvent, MetricEvent, PointEvent,
                                 event_from_dict, event_from_json_line,
                                 format_event)
from repro.engine.pool import run_sweep
from repro.engine.search import SearchSpace, run_search
from repro.engine.service import (JobManager, ServiceError,
                                  ServiceServer, request_json,
                                  run_service, watch_job)
from repro.uarch.config import default_config

SWEEP_SPEC = {"kind": "sweep", "workloads": ["mcf"],
              "axes": ["optimizer.vf_delay=0,1"], "optimized": True}
SEARCH_SPEC = {"kind": "search", "workloads": ["gcc"],
               "dims": ["optimizer.enabled=false,true"],
               "strategy": "grid"}
#: Enough programs that cancellation/disconnect can land mid-run.
LONG_FUZZ_SPEC = {"kind": "fuzz", "seeds": [0, 40], "small": True,
                  "families": ["ilp"]}


def serial_sweep_ledger(store_dir) -> str:
    """The same work ``SWEEP_SPEC`` names, run serially (CLI path)."""
    campaign = Campaign.from_axes(
        workloads=SWEEP_SPEC["workloads"],
        base=default_config().with_optimizer(),
        axes=[parse_axis(spec) for spec in SWEEP_SPEC["axes"]])
    return run_sweep(campaign.points(), jobs=1,
                     store_dir=store_dir).ledger_json()


def serial_search_ledger(store_dir) -> str:
    """The same work ``SEARCH_SPEC`` names, run serially (CLI path)."""
    return run_search(
        SearchSpace.from_specs(SEARCH_SPEC["dims"]),
        workloads=("gcc",), strategy="grid", jobs=1,
        store_dir=store_dir).ledger_json()


# ----------------------------------------------------------------------
# event vocabulary
# ----------------------------------------------------------------------


class TestEvents:
    def test_json_line_round_trip(self):
        for event in (PointEvent(label="mcf@1/base", done=1, total=4,
                                 from_cache=True, candidate="a=1"),
                      EvaluationEvent(candidate="a=1", score=1.25,
                                      limit_insns=2000),
                      FindingEvent(workload="synth:ilp@seed=0", scale=1,
                                   instructions=900, ok=False, done=2,
                                   total=5, failures=("x: boom",)),
                      MetricEvent(name="repro_job_phase_seconds",
                                  value=1.25, unit="seconds", job="j1",
                                  labels={"phase": "execute"})):
            decoded = event_from_json_line(event.to_json_line())
            assert decoded == event
            assert decoded.kind == event.kind

    def test_every_kind_has_a_distinct_discriminator(self):
        assert len(EVENT_TYPES) == 11
        assert {"point", "evaluation", "segment", "finding", "metric",
                "job-started", "job-finished", "job-failed",
                "worker-joined", "worker-left",
                "unit-leased"} == set(EVENT_TYPES)

    def test_unknown_kind_rejected_unknown_fields_dropped(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "telemetry"})
        event = event_from_dict({"kind": "point", "label": "x",
                                 "done": 1, "total": 2,
                                 "added_in_v9": "ignored"})
        assert event == PointEvent(label="x", done=1, total=2)

    def test_missing_required_field_is_a_value_error(self):
        # a decoding problem must surface as ValueError (what clients
        # catch), never a raw TypeError from the dataclass call
        with pytest.raises(ValueError, match="bad 'point' event"):
            event_from_dict({"kind": "point", "label": "x"})
        with pytest.raises(ValueError, match="bad 'metric' event"):
            event_from_dict({"kind": "metric", "unit": "seconds"})

    def test_metric_event_round_trips_with_labels(self):
        line = MetricEvent(name="repro_job_phase_seconds",
                           value=0.004125, unit="seconds", job="j3",
                           labels={"phase": "queue"}).to_json_line()
        decoded = event_from_json_line(line)
        assert decoded.kind == "metric"
        assert decoded.labels == {"phase": "queue"}
        assert decoded.value == 0.004125
        rendered = format_event(decoded)
        assert "repro_job_phase_seconds" in rendered
        assert "phase=queue" in rendered
        assert "seconds" in rendered

    def test_format_event_renders_every_kind(self):
        for cls_kind, payload in (
                ("point", {"label": "mcf@1/base", "done": 1,
                           "total": 2}),
                ("segment", {"message": "planned mcf@1", "done": 1,
                             "total": 3}),
                ("finding", {"workload": "w", "scale": 1,
                             "instructions": 5, "ok": True, "done": 1,
                             "total": 1}),
                ("metric", {"name": "repro_job_phase_seconds",
                            "value": 1.5, "unit": "seconds",
                            "labels": {"phase": "execute"}}),
                ("job-started", {"job": "j1", "job_kind": "sweep"}),
                ("job-finished", {"job": "j1", "result": {"points": 2,
                                                          "ledger": "x"}}),
                ("job-failed", {"job": "j1", "error": "boom"})):
            line = format_event(event_from_dict({"kind": cls_kind,
                                                 **payload}))
            assert line and "ledger" not in line


def test_engine_import_does_not_load_service():
    # cli.py keeps serve/watch imports lazy; the engine package must
    # not undo that by eagerly importing asyncio + the HTTP machinery
    import pathlib
    import subprocess
    import sys
    src = str(pathlib.Path(__file__).parents[1] / "src")
    code = ("import sys, repro.engine; "
            "assert 'repro.engine.service' not in sys.modules, "
            "'service imported eagerly'; "
            "from repro.engine import JobManager; "
            "assert 'repro.engine.service' in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": src})


# ----------------------------------------------------------------------
# the job manager (no HTTP)
# ----------------------------------------------------------------------


class TestJobManager:
    def test_sweep_job_streams_and_matches_serial(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path / "store")
            try:
                job = await manager.submit(dict(SWEEP_SPEC))
                events = [e async for e in manager.events(job.id)]
            finally:
                await manager.close()
            return job, events

        job, events = asyncio.run(scenario())
        assert job.status == "finished"
        assert [e.kind for e in events] == \
            ["job-started", "point", "point", "metric", "metric",
             "job-finished"]
        assert events[-1].result["ledger"] == \
            serial_sweep_ledger(tmp_path / "serial")

    def test_concurrent_sweep_and_search_share_one_store(self, tmp_path):
        # ISSUE 5 acceptance: two concurrent jobs over ONE store,
        # byte-identical ledgers vs the serial engine runs
        async def scenario():
            manager = JobManager(store_dir=tmp_path / "shared",
                                 max_concurrent_jobs=2)
            try:
                sweep = await manager.submit(dict(SWEEP_SPEC))
                search = await manager.submit(dict(SEARCH_SPEC))
                sweep_events, search_events = await asyncio.gather(
                    _collect(manager, sweep.id),
                    _collect(manager, search.id))
            finally:
                await manager.close()
            return sweep_events, search_events

        async def _collect(manager, job_id):
            return [e async for e in manager.events(job_id)]

        sweep_events, search_events = asyncio.run(scenario())
        assert sweep_events[-1].kind == "job-finished"
        assert search_events[-1].kind == "job-finished"
        assert any(e.kind == "evaluation" for e in search_events)
        assert sweep_events[-1].result["ledger"] == \
            serial_sweep_ledger(tmp_path / "serial-sweep")
        assert search_events[-1].result["ledger"] == \
            serial_search_ledger(tmp_path / "serial-search")

    def test_parallel_worker_job_matches_serial(self, tmp_path):
        # jobs>1 under the service switches worker pools to spawn
        # (fork in the multi-threaded server can deadlock a child);
        # results must stay byte-identical to the serial run
        from repro.engine.campaign import Campaign, parse_axis
        from repro.engine.workers import set_worker_start_method
        spec = {"kind": "sweep", "workloads": ["mcf", "gcc"],
                "optimized": True, "axes": ["optimizer.vf_delay=0,1"]}

        async def scenario():
            manager = JobManager(store_dir=tmp_path / "store", jobs=2)
            try:
                job = await manager.submit(dict(spec))
                return [e async for e in manager.events(job.id)]
            finally:
                await manager.close()

        try:
            events = asyncio.run(scenario())
        finally:
            set_worker_start_method(None)  # restore for later tests
        assert events[-1].kind == "job-finished"
        campaign = Campaign.from_axes(
            workloads=spec["workloads"],
            base=default_config().with_optimizer(),
            axes=[parse_axis(a) for a in spec["axes"]])
        serial = run_sweep(campaign.points(), jobs=1,
                           store_dir=tmp_path / "serial")
        assert events[-1].result["ledger"] == serial.ledger_json()

    def test_late_subscriber_replays_history(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                job = await manager.submit(dict(SWEEP_SPEC))
                await manager.wait(job.id)
                # attach only after the job finished
                replayed = [e async for e in manager.events(job.id)]
            finally:
                await manager.close()
            return replayed

        replayed = asyncio.run(scenario())
        assert [e.kind for e in replayed] == \
            ["job-started", "point", "point", "metric", "metric",
             "job-finished"]

    def test_bad_specs_rejected_at_submit(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                for spec in ({"kind": "mine-bitcoin"},
                             # singular typo: must 400, not silently
                             # sweep all 22 kernels
                             {"kind": "sweep", "workload": ["mcf"]},
                             {"kind": "sweep",
                              "axes": ["optimizer.vf_delay=maybe"]},
                             # a string would iterate char-by-char
                             {"kind": "sweep", "workloads": ["mcf"],
                              "scales": "12"},
                             {"kind": "search", "scales": "12",
                              "workloads": ["mcf"],
                              "dims": ["optimizer.enabled=false,true"]},
                             # strategy/objective/budget typos must
                             # 400 now, not job-fail minutes later
                             {"kind": "search", "workloads": ["mcf"],
                              "dims": ["optimizer.enabled=false,true"],
                              "strategy": "gird"},
                             {"kind": "search", "workloads": ["mcf"],
                              "dims": ["optimizer.enabled=false,true"],
                              "objective": "geomean"},
                             {"kind": "search", "workloads": ["mcf"],
                              "dims": ["optimizer.enabled=false,true"],
                              "budget": 0},
                             {"kind": "search", "workloads": ["mcf"],
                              "dims": ["optimizer.enabled=false,true"],
                              "seed": "abc"},
                             {"kind": "fuzz", "seeds": [0, 1],
                              "scale": "x"},
                             # "19" must not be read as seeds [1, 9)
                             {"kind": "fuzz", "seeds": "19"},
                             {"kind": "sweep", "workloads": ["no-such"]},
                             {"kind": "search", "dims": []},
                             {"kind": "search",
                              "dims": ["optimizer.enabled=false,true"]},
                             {"kind": "segments",
                              "workloads": ["mcf"]},
                             {"kind": "fuzz", "seeds": [5, 5]},
                             {"kind": "fuzz", "seeds": [0, 1],
                              "families": ["quantum"]},
                             "not an object"):
                    with pytest.raises(ServiceError):
                        await manager.submit(spec)
                assert manager.list_jobs() == []
            finally:
                await manager.close()

        asyncio.run(scenario())

    def test_cancel_running_job(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                job = await manager.submit(dict(LONG_FUZZ_SPEC))
                seen = []
                async for event in manager.events(job.id):
                    seen.append(event)
                    if event.kind == "finding":
                        await manager.cancel(job.id)
                final = await manager.wait(job.id)
            finally:
                await manager.close()
            return final, seen

        job, events = asyncio.run(scenario())
        assert job.status == "cancelled"
        assert events[-1].kind == "job-failed"
        assert events[-1].cancelled
        findings = [e for e in events if e.kind == "finding"]
        # it stopped early: nowhere near the 40 requested programs
        assert 1 <= len(findings) < 40

    def test_cancel_queued_job_and_unknown_job(self, tmp_path):
        async def scenario():
            # one executor slot: the second submission queues behind
            # the first and must be cancellable before it starts
            manager = JobManager(store_dir=tmp_path,
                                 max_concurrent_jobs=1)
            try:
                first = await manager.submit(dict(SWEEP_SPEC))
                queued = await manager.submit(dict(LONG_FUZZ_SPEC))
                # the queued job has not started: it reports pending
                # and has emitted nothing
                queued_status = queued.status
                await manager.cancel(queued.id)
                await manager.wait(first.id)
                final = await manager.wait(queued.id)
                with pytest.raises(ServiceError) as err:
                    manager.get("j999")
            finally:
                await manager.close()
            return first, final, queued_status, err.value

        first, queued, queued_status, error = asyncio.run(scenario())
        assert first.status == "finished"  # unaffected by the cancel
        assert queued_status == "pending"
        assert queued.status == "cancelled"
        # never started: no job-started, no findings — only the
        # terminal cancellation event
        assert [e.kind for e in queued.events] == ["job-failed"]
        assert error.status == 404

    def test_submission_backpressure(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path,
                                 max_concurrent_jobs=1,
                                 max_active_jobs=1)
            try:
                blocker = await manager.submit(dict(LONG_FUZZ_SPEC))
                with pytest.raises(ServiceError) as err:
                    await manager.submit(dict(SWEEP_SPEC))
                await manager.cancel(blocker.id)
                await manager.wait(blocker.id)
                # capacity freed: submissions flow again
                retry = await manager.submit(dict(SWEEP_SPEC))
                await manager.wait(retry.id)
            finally:
                await manager.close()
            return err.value, retry

        error, retry = asyncio.run(scenario())
        assert error.status == 429
        assert retry.status == "finished"

    def test_unrunnable_machine_rejected_at_submit(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                with pytest.raises(ServiceError) as err:
                    await manager.submit({"kind": "sweep",
                                          "workloads": ["mcf"],
                                          "axes": ["rob_size=0,160"]})
                jobs = manager.list_jobs()
            finally:
                await manager.close()
            return err.value, jobs

        error, jobs = asyncio.run(scenario())
        assert error.status == 400
        assert "rob_size must be >= 1" in str(error)
        assert jobs == []

    def test_idle_stream_yields_heartbeats(self, tmp_path):
        async def scenario():
            # one slot: the sweep queues behind the fuzz job and emits
            # nothing for a while — a heartbeat-tailing consumer gets
            # None markers instead of silence
            manager = JobManager(store_dir=tmp_path,
                                 max_concurrent_jobs=1)
            try:
                blocker = await manager.submit(dict(LONG_FUZZ_SPEC))
                queued = await manager.submit(dict(SWEEP_SPEC))
                beats = 0
                async for event in manager.events(queued.id,
                                                  heartbeat=0.05):
                    if event is None:
                        beats += 1
                        if beats >= 3:
                            break
                    else:
                        raise AssertionError(f"unexpected {event}")
                await manager.cancel(blocker.id)
                await manager.cancel(queued.id)
            finally:
                await manager.close()
            return beats

        assert asyncio.run(scenario()) >= 3

    def test_heartbeats_while_another_job_is_chatty(self, tmp_path):
        interval = 0.05
        window = 10 * interval

        async def scenario():
            # another job's events wake every stream; the queued job's
            # stream must still get its keep-alives on time
            manager = JobManager(store_dir=tmp_path,
                                 max_concurrent_jobs=1)
            clock = asyncio.get_running_loop().time

            async def chatter(job, until):
                while clock() < until:
                    await asyncio.sleep(interval / 2)
                    manager._append(job, MetricEvent(name="chatter",
                                                     value=1.0))

            try:
                # ten times LONG_FUZZ_SPEC: still running when the
                # window closes (it is cancelled right after)
                blocker = await manager.submit(dict(LONG_FUZZ_SPEC,
                                                    seeds=[0, 400]))
                queued = await manager.submit(dict(SWEEP_SPEC))
                start = clock()
                chatty = asyncio.create_task(chatter(blocker,
                                                     start + window))
                beats = 0
                async for event in manager.events(queued.id,
                                                  heartbeat=interval):
                    if event is not None:
                        raise AssertionError(f"unexpected {event}")
                    if clock() - start > window:
                        break
                    beats += 1
                await chatty
                await manager.cancel(blocker.id)
                await manager.cancel(queued.id)
            finally:
                await manager.close()
            return beats

        assert asyncio.run(scenario()) >= 3

    def test_stream_cancelled_as_it_wakes_stays_cancelled(self, tmp_path):
        heartbeat = 0.05

        async def scenario():
            # the consumer of a queued job's heartbeat stream is
            # cancelled in the same loop iteration as another job's
            # event wakes the stream: the cancellation must win
            manager = JobManager(store_dir=tmp_path,
                                 max_concurrent_jobs=1)
            consumer = None
            try:
                blocker = await manager.submit(dict(LONG_FUZZ_SPEC,
                                                    seeds=[0, 400]))
                queued = await manager.submit(dict(SWEEP_SPEC))

                async def consume():
                    async for event in manager.events(
                            queued.id, heartbeat=heartbeat):
                        if event is not None:
                            raise AssertionError(f"unexpected {event}")

                consumer = asyncio.create_task(consume())
                await asyncio.sleep(heartbeat / 5)  # parked in its wait
                manager._append(blocker, MetricEvent(name="wake",
                                                     value=1.0))
                consumer.cancel()
                await asyncio.wait({consumer}, timeout=heartbeat)
                ended = consumer.cancelled()
                await manager.cancel(blocker.id)
                await manager.cancel(queued.id)
            finally:
                if consumer is not None and not consumer.done():
                    consumer.cancel()
                    await asyncio.gather(consumer, return_exceptions=True)
                await manager.close()
            return ended

        assert asyncio.run(scenario())

    def test_finished_job_history_is_bounded(self, tmp_path):
        async def scenario():
            manager = JobManager(store_dir=tmp_path,
                                 max_finished_jobs=1)
            try:
                first = await manager.submit(dict(SWEEP_SPEC))
                await manager.wait(first.id)
                second = await manager.submit(dict(SWEEP_SPEC))
                await manager.wait(second.id)
                rows = manager.list_jobs()
                with pytest.raises(ServiceError) as err:
                    manager.get(first.id)
            finally:
                await manager.close()
            return rows, err.value

        rows, error = asyncio.run(scenario())
        # only the newest terminal job is retained (with its events);
        # the older one — ledger payload included — was released
        assert [r["id"] for r in rows] == ["j2"]
        assert error.status == 404


class TestSegmentPolicyJobs:
    def test_policy_is_normalized_and_echoed(self, tmp_path):
        # the policy object is normalized to its canonical manifest at
        # submit (defaults filled in); both the job summary (GET /jobs)
        # and the final result echo the normalized form
        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                job = await manager.submit(
                    {"kind": "segments", "workloads": ["art"],
                     "policy": {"segment_insns": 2000}})
                summary = job.summary()
                await manager.wait(job.id)
                events = [e async for e in manager.events(job.id)]
            finally:
                await manager.close()
            return summary, events

        summary, events = asyncio.run(scenario())
        assert summary["policy"] == {"mode": "fixed",
                                     "segment_insns": 2000}
        result = events[-1].result
        assert result["policy"] == {"mode": "fixed",
                                    "segment_insns": 2000}
        # an exact run must never carry estimation metadata
        assert "estimated" not in result

    def test_sampled_job_reports_error_bounds(self, tmp_path):
        spec = {"kind": "segments", "workloads": ["art"],
                "policy": {"mode": "sampled", "segment_insns": 1000,
                           "sample_period": 2}}

        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            try:
                job = await manager.submit(spec)
                await manager.wait(job.id)
                events = [e async for e in manager.events(job.id)]
            finally:
                await manager.close()
            return events

        events = asyncio.run(scenario())
        result = events[-1].result
        assert result["estimated"] is True
        assert 0.0 < result["max_relative_error"] < 1.0
        assert result["policy"]["sample_period"] == 2
        assert '"estimated":true' in result["ledger"]

    def test_policy_spec_rejections_name_the_problem(self, tmp_path):
        cases = [
            # unknown fields inside the policy object are listed by
            # name — a typo must 400, not silently fall back to defaults
            ({"kind": "segments", "workloads": ["art"],
              "policy": {"mode": "fixed", "segment_insns": 1000,
                         "warmpu_insns": 5, "zzz": 1}},
             "unknown segment policy fields ['warmpu_insns', 'zzz']"),
            # the pre-policy segment_insns spelling is gone: an unknown
            # key, named like any other typo
            ({"kind": "segments", "workloads": ["art"],
              "segment_insns": 1000},
             "unknown segments spec keys ['segment_insns']"),
            ({"kind": "segments", "workloads": ["art"]},
             "needs a policy"),
            # the sampled-rung knobs are gone: unknown keys, named
            # like any other typo
            ({"kind": "search", "workloads": ["art"],
              "dims": ["optimizer.enabled=false,true"],
              "rung_mode": "sampeld"},
             "unknown search spec keys ['rung_mode']"),
            ({"kind": "search", "workloads": ["art"],
              "dims": ["optimizer.enabled=false,true"],
              "rung_mode": "sampled", "rung_period": 1},
             "unknown search spec keys ['rung_mode', 'rung_period']"),
            # a JSON list is refused by name, not as unhashable
            ({"kind": "search", "workloads": ["art"],
              "dims": ["optimizer.enabled=false,true"],
              "strategy": ["grid"]},
             "unknown strategy ['grid']"),
        ]

        async def scenario():
            manager = JobManager(store_dir=tmp_path)
            messages = []
            try:
                for spec, _ in cases:
                    with pytest.raises(ServiceError) as err:
                        await manager.submit(spec)
                    messages.append(str(err.value))
                assert manager.list_jobs() == []
            finally:
                await manager.close()
            return messages

        messages = asyncio.run(scenario())
        for (_, needle), message in zip(cases, messages):
            assert needle in message


# ----------------------------------------------------------------------
# the HTTP front end
# ----------------------------------------------------------------------


class ServiceThread:
    """Run a JobManager + ServiceServer on a background event loop."""

    def __init__(self, store_dir, jobs=1, max_concurrent_jobs=4):
        self._ready = threading.Event()
        self._args = (str(store_dir), jobs, max_concurrent_jobs)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "service did not start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        store_dir, jobs, max_concurrent = self._args
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.manager = JobManager(store_dir=store_dir, jobs=jobs,
                                  max_concurrent_jobs=max_concurrent)
        server = ServiceServer(self.manager, host="127.0.0.1", port=0)
        self.port = await server.start()
        self.url = f"http://127.0.0.1:{self.port}"
        self._ready.set()
        await self._stop.wait()
        await server.stop()
        await self.manager.close()

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    # -- blocking client helpers --------------------------------------

    def post_job(self, spec: dict) -> dict:
        return request_json(self.url, "POST", "/jobs", payload=spec)

    def jobs(self) -> list[dict]:
        return request_json(self.url, "GET", "/jobs")["jobs"]

    def job_status(self, job_id: str) -> str:
        return next(j["status"] for j in self.jobs()
                    if j["id"] == job_id)

    def stream_events(self, job_id: str) -> list:
        events = []
        watch_job(self.url, job_id, events.append)
        return events

    def wait_status(self, job_id: str, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.job_status(job_id)
            if status in ("finished", "failed", "cancelled"):
                return status
            time.sleep(0.1)
        raise TimeoutError(f"job {job_id} still {status!r}")


@pytest.fixture
def service(tmp_path):
    # the registry is process-global and other tests bump it; a fresh
    # slate keeps this fixture's exact-count metric assertions honest
    from repro.engine.telemetry import TELEMETRY
    TELEMETRY.reset()
    thread = ServiceThread(tmp_path / "store")
    yield thread
    thread.stop()


class TestHttpService:
    def test_submit_stream_list_delete_lifecycle(self, service,
                                                 tmp_path):
        created = service.post_job(dict(SWEEP_SPEC))
        assert created["id"] == "j1"
        assert created["kind"] == "sweep"
        events = service.stream_events(created["id"])
        assert [e.kind for e in events] == \
            ["job-started", "point", "point", "metric", "metric",
             "job-finished"]
        assert events[-1].result["ledger"] == \
            serial_sweep_ledger(tmp_path / "serial")
        rows = service.jobs()
        assert [r["id"] for r in rows] == ["j1"]
        assert rows[0]["status"] == "finished"
        # DELETE of a finished job is a no-op
        gone = request_json(service.url, "DELETE", "/jobs/j1")
        assert gone["status"] == "finished"

    def test_stream_is_json_lines_with_ndjson_content_type(self,
                                                           service):
        created = service.post_job(dict(SWEEP_SPEC))
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=120)
        try:
            conn.request("GET", f"/jobs/{created['id']}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            raw = response.read().decode()
        finally:
            conn.close()
        lines = [line for line in raw.split("\n") if line]
        # every frame is one standalone JSON object with a kind
        decoded = [json.loads(line) for line in lines]
        assert all("kind" in d for d in decoded)
        assert decoded[0]["kind"] == "job-started"
        assert decoded[-1]["kind"] == "job-finished"
        # and round-trips through the typed vocabulary
        assert [event_from_json_line(line).kind for line in lines] == \
            [d["kind"] for d in decoded]

    def test_client_disconnect_cancels_nothing(self, service):
        created = service.post_job(dict(LONG_FUZZ_SPEC))
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=60)
        conn.request("GET", f"/jobs/{created['id']}/events")
        response = conn.getresponse()
        assert response.readline()  # at least one frame arrived
        conn.close()  # hang up mid-stream
        # the job — already submitted — runs to completion regardless
        assert service.wait_status(created["id"]) == "finished"
        events = service.stream_events(created["id"])
        findings = [e for e in events if e.kind == "finding"]
        assert len(findings) == 40
        assert events[-1].result["ok"] is True

    def test_delete_running_job_cancels_it(self, service):
        created = service.post_job(dict(LONG_FUZZ_SPEC))
        # wait until it demonstrably started
        deadline = time.monotonic() + 60
        while service.job_status(created["id"]) == "pending":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        cancelled = request_json(service.url, "DELETE",
                                 f"/jobs/{created['id']}")
        assert cancelled["id"] == created["id"]
        assert service.wait_status(created["id"]) == "cancelled"
        events = service.stream_events(created["id"])
        assert events[-1].kind == "job-failed"
        assert events[-1].cancelled

    def test_error_statuses(self, service):
        with pytest.raises(ServiceError) as err:
            request_json(service.url, "GET", "/jobs/j999/events")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            request_json(service.url, "POST", "/jobs",
                         payload={"kind": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            request_json(service.url, "GET", "/no/such/route")
        assert err.value.status == 404
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.request("POST", "/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_watch_cli_exit_codes(self, service, capsys):
        created = service.post_job(dict(SWEEP_SPEC))
        assert main(["watch", created["id"], "--url",
                     service.url]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert f"job {created['id']} started" in out
        assert f"job {created['id']} finished" in out
        assert '"ledger":' not in out  # summaries stay human-sized
        # the final one-line verdict: wall time + insns + exit state
        summary = captured.err.strip().splitlines()[-1]
        assert summary.startswith(f"job {created['id']} finished")
        assert "s wall" in summary
        assert "insns simulated" in summary
        assert main(["watch", "j999", "--url", service.url]) == 2
        assert "repro watch: error" in capsys.readouterr().err

    def test_run_service_end_to_end(self, tmp_path):
        # the coroutine behind `repro serve`: announce callback fires
        # with the ephemeral port, jobs run over HTTP, a shutdown
        # event stops it cleanly
        async def scenario():
            shutdown = asyncio.Event()
            announced = {}

            def announce(host, port, store_dir):
                announced.update(host=host, port=port, store=store_dir)

            task = asyncio.create_task(run_service(
                store_dir=str(tmp_path), port=0, announce=announce,
                shutdown=shutdown))
            while not announced:
                await asyncio.sleep(0.01)
            url = f"http://{announced['host']}:{announced['port']}"
            created = await asyncio.to_thread(
                request_json, url, "POST", "/jobs", dict(SWEEP_SPEC))
            events = []
            await asyncio.to_thread(watch_job, url, created["id"],
                                    events.append)
            shutdown.set()
            assert await task == 0
            return announced, events

        announced, events = asyncio.run(scenario())
        assert announced["store"] == str(tmp_path)
        assert events[-1].kind == "job-finished"

    def test_serve_cli_reports_busy_port_as_usage_error(self, capsys):
        import socket
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert "repro serve: error:" in err

    def test_watch_cli_json_mode(self, service, capsys):
        created = service.post_job(dict(SWEEP_SPEC))
        assert main(["watch", created["id"], "--url", service.url,
                     "--json"]) == 0
        lines = [line for line in
                 capsys.readouterr().out.splitlines() if line]
        assert json.loads(lines[0])["kind"] == "job-started"
        assert json.loads(lines[-1])["kind"] == "job-finished"


class TestHttpProtocolHardening:
    """The PR-9 service-layer bugfix sweep's protocol cases."""

    def _raw_request(self, port: int, payload: bytes) -> bytes:
        import socket
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_conflicting_duplicate_content_length_is_400(self,
                                                         service):
        # the request-smuggling class: two disagreeing lengths must
        # not be resolved by last-one-wins framing
        body = b'{"kind": "sweep", "workloads": ["mcf"]}'
        response = self._raw_request(
            service.port,
            b"POST /jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: 5\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"conflicting Content-Length" in response
        assert service.jobs() == []  # nothing was submitted

    def test_identical_duplicate_content_length_is_tolerated(
            self, service):
        # RFC 9110 allows repeats that agree; rejecting them would
        # break naive proxies that re-append the header
        body = b'{"kind": "sweep", "workloads": ["mcf"]}'
        head = (f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        response = self._raw_request(service.port, head + body)
        assert response.startswith(b"HTTP/1.1 201 ")

    def test_summary_and_result_carry_iso_wall_clock_stamps(
            self, service):
        from datetime import datetime, timezone
        created = service.post_job(dict(SWEEP_SPEC))
        assert created["submitted"].endswith("Z")
        submitted = datetime.fromisoformat(created["submitted"])
        assert abs((datetime.now(timezone.utc)
                    - submitted).total_seconds()) < 60
        events = service.stream_events(created["id"])
        result = events[-1].result
        assert result["submitted"] == created["submitted"]
        started = datetime.fromisoformat(result["started"])
        assert started >= submitted
        # the determinism contract: wall-clock stamps never leak into
        # the canonical ledger
        assert "submitted" not in result["ledger"]
        row = service.jobs()[0]
        assert row["submitted"] == created["submitted"]
        assert row["started"] == result["started"]

    def test_client_honors_url_path_prefix(self):
        # `--url http://host:port/prefix` used to silently request
        # /jobs at the root; every request must carry the prefix
        import http.server
        import socketserver

        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                seen.append(self.path)
                body = b'{"jobs": []}\n'
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with socketserver.TCPServer(("127.0.0.1", 0), Handler) as httpd:
            port = httpd.server_address[1]
            worker = threading.Thread(target=httpd.serve_forever,
                                      daemon=True)
            worker.start()
            try:
                payload = request_json(
                    f"http://127.0.0.1:{port}/repro/", "GET", "/jobs")
                assert payload == {"jobs": []}
            finally:
                httpd.shutdown()
        assert seen == ["/repro/jobs"]

    def test_truncated_stream_makes_watch_exit_2(self, capsys):
        # a server dying mid-stream ends the connection without a
        # terminal event; `repro watch` must report failure (exit 2),
        # never a clean 0
        import socket

        def half_stream(server_sock):
            conn, _ = server_sock.accept()
            with conn:
                while b"\r\n\r\n" not in conn.recv(65536):
                    pass
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/x-ndjson\r\n"
                    b"Connection: close\r\n\r\n"
                    b'{"kind": "job-started", "job": "j1",'
                    b' "job_kind": "sweep", "name": "j1"}\n')
                # connection closes here: no job-finished ever arrives

        with socket.socket() as server_sock:
            server_sock.bind(("127.0.0.1", 0))
            server_sock.listen(1)
            port = server_sock.getsockname()[1]
            worker = threading.Thread(target=half_stream,
                                      args=(server_sock,), daemon=True)
            worker.start()
            code = main(["watch", "j1", "--url",
                         f"http://127.0.0.1:{port}"])
            worker.join(10)
        assert code == 2
        err = capsys.readouterr().err
        assert "ended without a terminal event" in err


# ----------------------------------------------------------------------
# watch reconnect + event-stream resume
# ----------------------------------------------------------------------


def _ndjson_stub(server_sock, lines, requests, reset_after=None):
    """Answer one GET with *lines* from the ``?from=`` index onward.

    ``reset_after`` truncates the stream after that many lines and
    aborts the connection with an RST (``SO_LINGER 0``) — the
    transport failure a mid-stream server death produces, as opposed
    to the clean FIN of an on-purpose close.
    """
    import socket as socket_mod
    import struct as struct_mod
    import urllib.parse
    conn, _ = server_sock.accept()
    request = b""
    while b"\r\n\r\n" not in request:
        request += conn.recv(65536)
    path = request.split(b" ", 2)[1].decode()
    requests.append(path)
    query = urllib.parse.parse_qs(urllib.parse.urlsplit(path).query)
    start = int(query.get("from", ["0"])[0])
    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                 b"Content-Type: application/x-ndjson\r\n"
                 b"Connection: close\r\n\r\n")
    for line in lines[start:reset_after]:
        conn.sendall(line.encode() + b"\n")
    if reset_after is not None:
        time.sleep(0.2)  # let the delivered prefix reach the client
        conn.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_LINGER,
                        struct_mod.pack("ii", 1, 0))
    conn.close()


class TestWatchReconnect:
    LINES = [
        '{"kind": "job-started", "job": "j1", "job_kind": "sweep",'
        ' "name": "j1"}',
        '{"kind": "point", "label": "a@1/base", "done": 1, "total": 2}',
        '{"kind": "point", "label": "a@1/opt", "done": 2, "total": 2}',
        '{"kind": "job-finished", "job": "j1", "result": {}}',
    ]

    def _stub_server(self, connections):
        import socket as socket_mod
        requests = []
        server_sock = socket_mod.socket()
        server_sock.bind(("127.0.0.1", 0))
        server_sock.listen(2)
        port = server_sock.getsockname()[1]

        def serve():
            with server_sock:
                for reset_after in connections:
                    _ndjson_stub(server_sock, self.LINES, requests,
                                 reset_after=reset_after)

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        return port, requests, worker

    def test_watch_resumes_after_mid_stream_reset(self):
        # first connection dies by RST after two events; the retry
        # must pick up at ?from=<seen> — every event exactly once
        port, requests, worker = self._stub_server([2, None])
        seen = []
        retries = []
        last = watch_job(f"http://127.0.0.1:{port}", "j1", seen.append,
                         timeout=30, backoff=0.01,
                         on_reconnect=lambda n, exc:
                         retries.append(n))
        worker.join(10)
        assert last is not None and last.kind == "job-finished"
        assert [e.kind for e in seen] == \
            ["job-started", "point", "point", "job-finished"]
        assert retries == [1]
        assert requests[0].endswith("?from=0")
        # the resume index equals what the first stream delivered
        first_served = int(requests[1].rpartition("=")[2])
        assert first_served == len(
            [e for e in seen][:first_served])
        assert 1 <= first_served <= 2

    def test_watch_cli_survives_a_drop_and_exits_0(self, capsys):
        port, requests, worker = self._stub_server([2, None])
        code = main(["watch", "j1", "--url",
                     f"http://127.0.0.1:{port}"])
        worker.join(10)
        assert code == 0
        assert len(requests) == 2
        err = capsys.readouterr().err
        assert "reconnecting" in err

    def test_retry_budget_exhausts_to_an_error(self):
        # every connection dies: after --retries attempts the failure
        # propagates instead of looping forever
        port, requests, worker = self._stub_server([1, 1, 1])
        with pytest.raises((ConnectionError, OSError)):
            watch_job(f"http://127.0.0.1:{port}", "j1", lambda e: None,
                      timeout=30, retries=2, backoff=0.01)
        worker.join(10)
        assert len(requests) == 3  # initial try + 2 retries

    def test_clean_eof_is_not_retried(self):
        # a server that closes cleanly without a terminal event (the
        # truncated-stream case) must NOT trigger reconnects
        port, requests, worker = self._stub_server([None])
        seen = []
        last = watch_job(f"http://127.0.0.1:{port}", "j1", seen.append,
                         timeout=30, backoff=0.01)
        worker.join(10)
        assert last.kind == "job-finished"
        assert len(requests) == 1


class TestEventStreamFromIndex:
    def test_from_skips_already_seen_events(self, service):
        created = service.post_job(dict(SWEEP_SPEC))
        service.wait_status(created["id"])
        full = service.stream_events(created["id"])
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=120)
        try:
            conn.request("GET",
                         f"/jobs/{created['id']}/events?from=3")
            response = conn.getresponse()
            assert response.status == 200
            raw = response.read().decode()
        finally:
            conn.close()
        tail = [event_from_json_line(line)
                for line in raw.split("\n") if line]
        assert tail == full[3:]

    def test_bad_from_index_is_400(self, service):
        created = service.post_job(dict(SWEEP_SPEC))
        service.wait_status(created["id"])
        for bad in ("nan", "-1", "1.5"):
            conn = http.client.HTTPConnection("127.0.0.1",
                                              service.port, timeout=30)
            try:
                conn.request("GET", f"/jobs/{created['id']}/events"
                                    f"?from={bad}")
                assert conn.getresponse().status == 400
            finally:
                conn.close()


# ----------------------------------------------------------------------
# the job journal (`serve --resume`)
# ----------------------------------------------------------------------


class TestJobJournal:
    def _journal(self, store) -> "pathlib.Path":
        return store / "jobs"

    def test_unfinished_jobs_resume_on_restart(self, tmp_path):
        # simulate a crashed server: journal an accepted-but-never-
        # finished job by hand (exactly the file a real crash leaves)
        store = tmp_path / "store"
        journal = self._journal(store)
        journal.mkdir(parents=True)
        (journal / "j1.json").write_text(json.dumps(
            {"kind": "sweep", "name": "nightly", "tenant": "",
             "spec": {k: v for k, v in SWEEP_SPEC.items()
                      if k != "kind"},
             "submitted": "2026-08-08T00:00:00.000Z"}))

        async def scenario():
            manager = JobManager(store_dir=store)
            try:
                resumed = await manager.resume_jobs()
                events = [e async for e in
                          manager.events(resumed[0].id)]
            finally:
                await manager.close()
            return resumed, events

        resumed, events = asyncio.run(scenario())
        assert [job.name for job in resumed] == ["nightly"]
        assert events[-1].kind == "job-finished"
        assert events[-1].result["ledger"] == \
            serial_sweep_ledger(tmp_path / "serial")
        # the entry was consumed: a second restart resumes nothing
        assert list(journal.glob("*.json")) == []

    def test_finished_jobs_leave_no_journal_entries(self, tmp_path):
        store = tmp_path / "store"

        async def scenario():
            manager = JobManager(store_dir=store)
            try:
                job = await manager.submit(dict(SWEEP_SPEC))
                await manager.wait(job.id)
            finally:
                await manager.close()

        asyncio.run(scenario())
        assert list(self._journal(store).glob("*.json")) == []

    def test_shutdown_keeps_running_jobs_journaled(self, tmp_path):
        # close() cancels running jobs, but a shutdown is not a
        # verdict: their journal entries must survive for --resume
        store = tmp_path / "store"

        async def scenario():
            manager = JobManager(store_dir=store)
            job = await manager.submit(dict(LONG_FUZZ_SPEC))
            while job.status == "pending":
                await asyncio.sleep(0.01)
            await manager.close()
            return job

        job = asyncio.run(scenario())
        assert job.status == "cancelled"
        entries = list(self._journal(store).glob("*.json"))
        assert [p.name for p in entries] == [f"{job.id}.json"]

        async def restart():
            manager = JobManager(store_dir=store)
            try:
                return list(await manager.resume_jobs())
            finally:
                await manager.close()

        resumed = asyncio.run(restart())
        assert len(resumed) == 1
        assert resumed[0].kind == "fuzz"

    def test_client_cancelled_jobs_are_not_resumed(self, tmp_path):
        # a deliberate DELETE is a verdict; only shutdown-cancelled
        # jobs keep their entries
        store = tmp_path / "store"

        async def scenario():
            manager = JobManager(store_dir=store)
            try:
                job = await manager.submit(dict(LONG_FUZZ_SPEC))
                while job.status == "pending":
                    await asyncio.sleep(0.01)
                await manager.cancel(job.id)
                await manager.wait(job.id)
            finally:
                await manager.close()

        asyncio.run(scenario())
        assert list(self._journal(store).glob("*.json")) == []

    def test_corrupt_and_invalid_entries_are_dropped(self, tmp_path):
        store = tmp_path / "store"
        journal = self._journal(store)
        journal.mkdir(parents=True)
        (journal / "j1.json").write_text("not json {")
        (journal / "j2.json").write_text(json.dumps(
            {"kind": "mine-bitcoin", "name": "", "tenant": "",
             "spec": {}}))

        async def scenario():
            manager = JobManager(store_dir=store)
            try:
                return await manager.resume_jobs()
            finally:
                await manager.close()

        assert asyncio.run(scenario()) == []
        assert list(journal.glob("*.json")) == []

    def test_scratch_store_resumes_nothing(self):
        async def scenario():
            manager = JobManager(store_dir=None)
            try:
                await manager.submit(dict(SWEEP_SPEC))
                return await manager.resume_jobs()
            finally:
                await manager.close()

        assert asyncio.run(scenario()) == []

    def test_serve_resume_without_store_is_a_usage_error(self, capsys):
        assert main(["serve", "--resume", "--port", "0"]) == 2
        assert "--store" in capsys.readouterr().err


class TestMetricsEndpoint:
    def _fetch(self, service, path):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return (response.status, response.getheader("Content-Type"),
                    response.read().decode())
        finally:
            conn.close()

    def test_prometheus_text_covers_job_and_engine_metrics(self,
                                                           service):
        created = service.post_job(dict(SWEEP_SPEC))
        service.stream_events(created["id"])
        status, content_type, text = self._fetch(service, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        samples = {line.split()[0]: line.split()[1]
                   for line in text.splitlines()
                   if line and not line.startswith("#")
                   and "{" not in line.split()[0]}
        assert int(samples["repro_jobs_submitted_total"]) == 1
        assert int(samples["repro_jobs_finished_total"]) == 1
        assert int(samples["repro_job_queue_depth"]) == 0
        assert int(samples["repro_store_put_bytes_total"]) > 0
        assert int(samples["repro_sim_runs_total"]) >= 2
        assert float(samples["repro_sim_insns_per_second"]) > 0
        # the packed-trace core reports its builds through the service
        assert int(samples["repro_trace_packed_builds_total"]) >= 1
        assert int(samples["repro_trace_packed_bytes_total"]) > 0
        assert float(samples["repro_dispatch_table_build_seconds"]) > 0
        # histogram families render TYPE + bucket/sum/count series
        assert "# TYPE repro_job_phase_seconds histogram" in text
        assert 'repro_job_phase_seconds_bucket{phase="execute",' \
            'le="+Inf"}' in text

    def test_json_format_returns_the_snapshot(self, service):
        created = service.post_job(dict(SWEEP_SPEC))
        service.stream_events(created["id"])
        snap = request_json(service.url, "GET", "/metrics?format=json")
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["repro_jobs_finished_total"][""] == 1
        phases = snap["histograms"]["repro_job_phase_seconds"]
        assert phases['phase="execute"']["count"] == 1
        # jobs-by-state gauges refresh at scrape time
        assert snap["gauges"]["repro_jobs"]['state="finished"'] == 1

    def test_metrics_cli_renders_a_live_service(self, service,
                                                capsys):
        created = service.post_job(dict(SWEEP_SPEC))
        service.stream_events(created["id"])
        assert main(["metrics", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "repro_jobs_finished_total" in out
        assert "repro_job_phase_seconds" in out
        assert main(["metrics", "--url", service.url, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["repro_jobs_submitted_total"][""] >= 1
        # an unreachable service is a clean exit-2 client error
        assert main(["metrics", "--url",
                     "http://127.0.0.1:1"]) == 2
        assert "repro metrics" in capsys.readouterr().err

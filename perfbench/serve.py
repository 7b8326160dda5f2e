"""``serve``: an open-loop client against an in-process job service.

A :class:`~repro.engine.service.ServiceServer` on loopback, in the
benchmark's process, fronts a ``JobManager(jobs=1)`` with a fresh
store.  One client process (``client.py``) with no more threads, and
so no more open connections, than there are CPUs submits a seeded
schedule of baseline-config jobs, each at its due time whether or not
earlier jobs have finished:

* one slot in six is a cold job: a sampled ``segments`` job on a
  scaled kernel (most of them) or a small ``sweep`` over a
  machine-model axis — each cold spec is new to the store;
* the other slots repeat a spec first submitted at least
  ``REPEAT_GAP_S`` earlier, mostly segments jobs, which the store
  serves without simulating.

So the median job is a warm segments repeat (store reads, reduce and
extrapolate, HTTP) and the 90th percentile sits inside the cold
segments jobs, whose time is emulation and short segment pipelines.
Each job is timed from its due time to the client receiving its
terminal event.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import percentile
from repro.engine.service import JobManager, ServiceServer

#: Open-loop arrival rate (jobs per second) and slot jitter.
RATE = 4.0
JITTER = 0.5

#: Slots per group; each group holds one cold job.
GROUP = 6

#: Share of cold jobs that are segments jobs (the rest are sweeps) and
#: share of warm repeats that repeat a segments spec.
COLD_SEGMENTS = 0.85
WARM_SEGMENTS = 13 / 16

#: A warm slot only repeats a spec first due this long before it, so
#: the cold run has finished and the repeat is served from the store.
REPEAT_GAP_S = 1.5

#: A job sent later than this after its due time means the generator
#: fell behind: the run counts as failed and reports no percentiles.
LATE_LIMIT_S = 1.0

#: Cold segments specs: scaled kernels of 27-34k instructions at four
#: segment sizes, each combination planned and streamed from scratch.
#: A run uses the first ones in this order, so every seed submits the
#: same cold work at different times.
COLD_SEGMENT_KERNELS = (("art", 3), ("mesa", 2), ("ammp", 2),
                        ("g721_decode", 2), ("applu", 2))
SEGMENT_SIZES = (2000, 1500, 1000, 2500)

#: Simulate one segment in this many in detail; long enough that
#: emulation is a large share of a cold job.
SAMPLE_PERIOD = 7

#: Cold sweep specs: small kernels over disjoint scheduler-size pairs,
#: used in this order like the segments specs.  Consecutive specs share
#: a kernel, so later cold sweeps load its trace from the store.
COLD_SWEEP_KERNELS = ("art", "g721_decode", "mesa", "ammp")
SWEEP_AXES = ("sched_entries=4,6", "sched_entries=10,12",
              "sched_entries=14,16")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _spec_key(spec: dict) -> str:
    return repr(sorted((k, repr(v)) for k, v in spec.items()))


def build_schedule(seed: int, seconds: float) -> list[dict]:
    """The seeded open-loop job list: due time, spec, cold or repeat."""
    rng = random.Random(seed)
    slots = max(GROUP, int(RATE * seconds))
    groups = -(-slots // GROUP)
    spacing = 1.0 / RATE
    cold_kinds = ["segments"] * round(groups * COLD_SEGMENTS)
    cold_kinds += ["sweep"] * (groups - len(cold_kinds))
    rng.shuffle(cold_kinds)
    segment_specs = [
        {"kind": "segments", "workloads": [kernel], "scales": [scale],
         "policy": {"mode": "sampled", "segment_insns": size,
                    "sample_period": SAMPLE_PERIOD, "warmup_insns": 0,
                    "phase_seed": 0}}
        for size in SEGMENT_SIZES for kernel, scale in COLD_SEGMENT_KERNELS]
    sweep_specs = [{"kind": "sweep", "workloads": [kernel], "axes": [axis]}
                   for kernel in COLD_SWEEP_KERNELS for axis in SWEEP_AXES]
    needed = {kind: cold_kinds.count(kind) for kind in ("segments", "sweep")}
    fresh = {"segments": segment_specs[:needed["segments"]],
             "sweep": sweep_specs[:needed["sweep"]]}
    for specs in fresh.values():
        rng.shuffle(specs)
    schedule: list[dict] = []
    earlier: dict[str, list[dict]] = {"segments": [], "sweep": []}
    for group in range(groups):
        cold_at = 0 if group == 0 else rng.randrange(GROUP)
        for position in range(GROUP):
            slot = group * GROUP + position
            if slot >= slots:
                break
            due = (slot + rng.uniform(0.0, JITTER)) * spacing
            if position == cold_at:
                kind = cold_kinds[group]
                spec = fresh[kind].pop()
                job = {"due": due, "spec": spec, "kind": kind,
                       "cold": True}
            else:
                kind = ("segments" if rng.random() < WARM_SEGMENTS
                        else "sweep")
                ready = {k: [j for j in jobs if j["due"] <= due
                             - REPEAT_GAP_S] for k, jobs in earlier.items()}
                if not ready[kind]:
                    kind = "sweep" if kind == "segments" else "segments"
                if not ready[kind]:
                    continue  # nothing old enough to repeat yet
                first = rng.choice(ready[kind])
                job = {"due": due, "spec": first["spec"], "kind": kind,
                       "cold": False}
            schedule.append(job)
            if job["cold"]:
                earlier[kind].append(job)
    for index, job in enumerate(schedule):
        job["index"] = index
        job["key"] = _spec_key(job["spec"])
    return schedule


class ServerThread:
    """A JobManager + ServiceServer on a background event loop."""

    def __init__(self, store_dir: str):
        self.port: int | None = None
        self._store_dir = store_dir
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._serve,
                                        name="perfbench-server")
        self._thread.start()
        if not self._ready.wait(30) or self.port is None:
            self.close()
            raise RuntimeError(f"service failed to start: {self._error}")

    def _serve(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as error:
            self._error = error  # surfaced by the constructor
            self._ready.set()
            raise

    async def _main(self) -> None:
        manager = JobManager(store_dir=self._store_dir, jobs=1)
        server = ServiceServer(manager, port=0)
        try:
            self.port = await server.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
        finally:
            await server.stop()
            await manager.close()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")


def _drive(url: str, schedule: list[dict], tracer) -> list[dict]:
    """Run the client process over *schedule*; one record per job."""
    client = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("client.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if client.stdout.readline().strip() != "ready":
            raise RuntimeError("serve client failed to start")
        request = {"url": url, "origin": time.perf_counter() + 0.1,
                   "threads": nproc(),
                   "jobs": [{"due": job["due"], "spec": job["spec"]}
                            for job in schedule]}
        timeout = 120 + max(job["due"] for job in schedule)
        out, _ = client.communicate(json.dumps(request), timeout=timeout)
    finally:
        if client.poll() is None:
            client.kill()
        client.wait()
    if client.returncode != 0:
        raise RuntimeError(f"serve client exited {client.returncode}")
    records = [dict(job, **record)
               for job, record in zip(schedule, json.loads(out))]
    if tracer is not None:
        for record in records:
            for call in ("post", "events"):
                if f"{call}_end" in record:
                    tracer.record(f"client.{call}", record[f"{call}_start"],
                                  record[f"{call}_end"], record.get("id"))
    return records


def _by_kind(records: list[dict]) -> dict[tuple, list[float]]:
    """Finished jobs' latencies grouped by (cold, kind)."""
    groups: dict[tuple, list[float]] = {}
    for record in records:
        if "received_at" in record:
            groups.setdefault((record["cold"], record["kind"]), []).append(
                record["received_at"] - record["due_at"])
    return dict(sorted(groups.items()))


def _emulation_share(records: list[dict], tracer) -> str:
    """How much of the cold segments jobs' execution is emulation."""
    cold = {record.get("id") for record in records
            if record["cold"] and record["kind"] == "segments"}
    emulate = sum(span.duration for span in tracer.spans
                  if span.name == "functional.emulate"
                  and span.request in cold)
    bodies = sum(end - start for job, (start, end) in tracer.bodies.items()
                 if job in cold)
    share = 100 * emulate / bodies if bodies else 0.0
    return f"serve: emulation is {share:.1f}% of cold segments job time"


class Serve:
    name = "serve"

    def __init__(self, seed: int, seconds: int, smoke: bool, scratch):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.server: ServerThread | None = None
        self.store_dir = None
        self._setups = 0

    def setup(self) -> None:
        self.schedule = build_schedule(self.seed, self.seconds)
        self._setups += 1
        self.store_dir = self.scratch / f"serve-store-{self._setups}"
        self.store_dir.mkdir(parents=True)
        self.server = ServerThread(str(self.store_dir))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def run(self, tracer=None) -> dict:
        records = _drive(self.server.url, self.schedule, tracer)
        first_result: dict[str, dict] = {}
        for record in records:  # schedule order: cold runs come first
            if record["cold"] and "result" in record:
                first_result[record["key"]] = record["result"]
        failed = 0
        latencies, lateness = [], []
        cold_s = cold_insns = all_s = all_insns = execute_s = 0.0
        problems = []
        for record in records:
            lateness.append(record["sent_at"] - record["due_at"])
            result = record.get("result")
            cold = first_result.get(record["key"])
            ok = (result is not None and cold is not None
                  and result["ledger_sha256"] == cold["ledger_sha256"])
            if not ok:
                failed += 1
                latencies.append(float("inf"))
                problems.append(f"serve: FAIL job {record['index']} "
                                f"{record['kind']} "
                                f"{'cold' if record['cold'] else 'repeat'}"
                                f" rejected={record.get('rejected')} "
                                f"finished={result is not None}")
                continue
            latency = record["received_at"] - record["due_at"]
            latencies.append(latency)
            covered = (cold["counters"]["emulated_instructions"]
                       if record["kind"] == "segments"
                       else cold["retired_insns"])
            all_s += latency
            all_insns += covered
            execute_s += record.get("execute_s", 0.0)
            if record["cold"]:
                cold_s += latency
                cold_insns += covered
        behind = max(lateness) > LATE_LIMIT_S
        cold_jobs = {kind: sum(r["cold"] and r["kind"] == kind
                               for r in records)
                     for kind in ("segments", "sweep")}
        wall = (max(r.get("received_at", r["sent_at"]) for r in records)
                - min(r["due_at"] for r in records))
        metrics = {"sim_insns_per_s": cold_insns / cold_s if cold_s else 0.0,
                   "checked_insns_per_s": all_insns / all_s if all_s else 0.0}
        if not behind:
            metrics["job_p50_ms"] = 1e3 * percentile(latencies, 0.5)
            metrics["job_p90_ms"] = 1e3 * percentile(latencies, 0.9)
        outcome = {
            "wall_s": wall,
            "trace_base_s": all_s,
            "attempted": len(records),
            "failed": failed + behind,
            "correct": failed == 0 and not behind,
            "metrics": metrics,
            "info": [
                f"serve: {len(records)} jobs ({cold_jobs['segments']} cold "
                f"segments, {cold_jobs['sweep']} cold sweeps, "
                f"{sum(not r['cold'] for r in records)} repeats) over "
                f"{wall:.2f} s with {nproc()} client threads",
                f"serve: generator lateness p50 "
                f"{1e3 * statistics.median(lateness):.2f} ms, max "
                f"{1e3 * max(lateness):.2f} ms"
                f"{' (fell behind)' if behind else ''}; server "
                f"utilization {100 * execute_s / wall:.1f}%",
                "serve: median latency ms by kind: " + ", ".join(
                    f"{'cold' if cold else 'repeat'} {kind} "
                    f"{1e3 * statistics.median(values):.1f} "
                    f"(n={len(values)})"
                    for (cold, kind), values in _by_kind(records).items()),
            ] + problems,
        }
        if tracer is not None:
            outcome["service"] = self._service_layer(records, tracer)
            outcome["info"].append(_emulation_share(records, tracer))
        return outcome

    @staticmethod
    def _service_layer(records: list[dict], tracer) -> dict:
        """Per-job submit/queue/deliver split of the critical path."""
        submit, queue, deliver = [], [], []
        accounted = late = 0.0
        for record in records:
            late += record["sent_at"] - record["due_at"]
            job_id = record.get("id")
            body = tracer.bodies.get(job_id)
            if body is None or "received_at" not in record:
                continue
            submitted = tracer.submitted[job_id]
            submit.append(submitted - record["sent_at"])
            queue.append(body[0] - submitted)
            deliver.append(record["received_at"] - body[1])
            accounted += record["received_at"] - record["sent_at"]
        return {
            "submit_ms": 1e3 * statistics.median(submit) if submit else 0.0,
            "queue_ms": 1e3 * statistics.median(queue) if queue else 0.0,
            "deliver_ms": 1e3 * statistics.median(deliver)
            if deliver else 0.0,
            "submit_s": sum(submit), "queue_s": sum(queue),
            "deliver_s": sum(deliver),
            "requests": sum(r.get("requests", 0) for r in records),
            "rejected": sum("rejected" in r for r in records),
            "accounted_s": accounted,
            "unaccounted_s": late,
        }

"""The serve workload's open-loop client, run as its own process.

Reads ``{"url", "origin", "threads", "jobs": [{"due", "spec"}]}`` as
JSON on stdin after printing ``ready`` (so its imports are not timed),
sends each job at ``origin + due`` on the ``perf_counter`` clock (the
system-wide monotonic clock on Linux, shared with the server process),
follows its event stream to the terminal event, and prints one JSON
record per job on stdout.  Running apart from the server keeps the
client's threads out of the server's interpreter lock.
"""

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.service import (ServiceError, request_json,  # noqa: E402
                                  watch_job)


def _send(url: str, job: dict, record: dict) -> None:
    record["requests"] = 1
    record["post_start"] = time.perf_counter()
    posted = request_json(url, "POST", "/jobs", job["spec"], timeout=60.0)
    record["post_end"] = time.perf_counter()
    record["id"] = posted["id"]
    record["requests"] += 1

    def on_event(event) -> None:
        if event.kind == "metric":
            record[f"{event.labels.get('phase')}_s"] = event.value
        elif event.kind in ("job-finished", "job-failed"):
            record["received_at"] = time.perf_counter()

    def on_reconnect(attempt, error) -> None:
        record["requests"] += 1

    record["events_start"] = time.perf_counter()
    last = watch_job(url, posted["id"], on_event, timeout=60.0,
                     on_reconnect=on_reconnect)
    record["events_end"] = time.perf_counter()
    if last is not None and last.kind == "job-finished":
        record["result"] = last.result


def drive(url: str, origin: float, jobs: list[dict],
          threads: int) -> list[dict]:
    records = [{} for _ in jobs]
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            job, record = jobs[index], records[index]
            record["due_at"] = due_at = origin + job["due"]
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record["sent_at"] = time.perf_counter()
            try:
                _send(url, job, record)
            except ServiceError as error:
                record["rejected"] = error.status
            except (OSError, ValueError) as error:
                record["error"] = f"{type(error).__name__}: {error}"

    workers = [threading.Thread(target=client) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return records


def main() -> int:
    print("ready", flush=True)
    request = json.loads(sys.stdin.read())
    records = drive(request["url"], request["origin"], request["jobs"],
                    request["threads"])
    print(json.dumps(records), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

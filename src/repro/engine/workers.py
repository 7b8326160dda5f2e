"""Shared process-pool worker scaffolding for the sweep engines.

Both executors (:mod:`repro.engine.pool` for flat sweeps,
:mod:`repro.engine.segments` for segmented ones) spawn
``ProcessPoolExecutor`` workers and record how long every unit sat in
the pool queue.  That plumbing lives here exactly once:

* :func:`set_worker_start_method` / :func:`pool_kwargs` — the
  process-wide multiprocessing start-method choice (the streaming
  service switches to ``spawn``; see the docstring below);
* :func:`observe_wait` — the queue-wait histogram observation every
  worker records on entry.
"""

from __future__ import annotations

import multiprocessing
import time

from .telemetry import TELEMETRY

#: How pool worker processes are started (``None`` = the platform
#: default, i.e. fork on Linux).  See :func:`set_worker_start_method`.
_MP_CONTEXT = None


def set_worker_start_method(method):
    """Choose the start method for every subsequent worker pool.

    The single-threaded CLI keeps the platform default (fork on
    Linux — cheapest startup).  The streaming service switches the
    process to ``"spawn"``: its job bodies run on executor threads,
    and ``fork()`` in a multi-threaded process can inherit a lock
    another thread held mid-operation, deadlocking the child.

    *method* is a start-method name, ``None`` for the platform
    default, or a context object a previous call returned.  Returns
    the **displaced** context so a scoped user (the service) can
    restore exactly what it found rather than clobbering another
    user's choice.
    """
    global _MP_CONTEXT
    previous = _MP_CONTEXT
    if method is None or isinstance(method, str):
        _MP_CONTEXT = (multiprocessing.get_context(method)
                       if method is not None else None)
    else:
        _MP_CONTEXT = method
    return previous


def pool_kwargs() -> dict:
    """Extra ``ProcessPoolExecutor`` kwargs for the chosen start method."""
    return {"mp_context": _MP_CONTEXT} if _MP_CONTEXT is not None else {}


def observe_wait(submitted_ns: int | None,
                 phase: str | None = None) -> None:
    """Record pool-queue wait for a unit stamped by the driver.

    ``submitted_ns`` is the driver's ``time.monotonic_ns()`` at submit
    time — comparable across processes on one machine.  The flat pool
    records the histogram unlabeled; the segmented engine labels it
    with its pipeline *phase*.
    """
    if submitted_ns is None:
        return
    wait = max(0, time.monotonic_ns() - submitted_ns) / 1e9
    labels = {} if phase is None else {"phase": phase}
    TELEMETRY.histogram("repro_pool_shard_wait_seconds",
                        **labels).observe(wait)

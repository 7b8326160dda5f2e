"""A finished optimizer run answers the depth limits it provably repeats.

The optimizing renamer records, at each failed ``add_depth`` or
``mem_depth`` test, the smallest limit at which the test would have
passed; :func:`repro.core.optimizer.covers` turns that record into the
range of limits the run repeats, and
:func:`repro.uarch.pipeline.simulate_trace` answers such a config from
the caller's record of finished runs instead of simulating it.

The grid test holds every answer to a fresh simulation of the same
config, in ascending and in shuffled request order, through the
experiment runner and through one sweep.  The site tests take one
program per limit test that can fail and show that its bound, and only
its bound, is what makes the next limit simulate: without it that
limit would be answered with the shallower run's stats, which differ.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.engine.campaign import SweepPoint
from repro.engine.pool import run_sweep
from repro.engine.telemetry import TELEMETRY
from repro.experiments import runner
from repro.functional import run_program
from repro.isa import assemble
from repro.uarch.config import default_config
from repro.uarch.pipeline import make_pipeline, simulate_trace
from repro.workloads import build_trace

PROGRAMS = ("mcf", "gcc", "untoast", "g721_decode",
            "synth:ilp@seed=0", "synth:ilp@seed=1",
            "synth:mixed@seed=0", "synth:mixed@seed=1")
SETTINGS = tuple((add, mem) for add in range(4) for mem in range(3))
BASE = default_config()


def depth_config(add: int, mem: int):
    return BASE.with_optimizer(add_depth=add, mem_depth=mem)


def _requests(order: str) -> list[tuple[str, int, int]]:
    """Every (program, add, mem) of the grid, ascending or shuffled."""
    requests = [(name, add, mem) for name in PROGRAMS
                for add, mem in SETTINGS]
    if order == "shuffled":
        random.Random(23).shuffle(requests)
    return requests


@pytest.fixture(scope="module")
def fresh() -> dict[tuple[str, int, int], str]:
    """Each grid point's stats from a pipeline of its own."""
    out = {}
    for name in PROGRAMS:
        trace = build_trace(name).trace
        for add, mem in SETTINGS:
            stats = make_pipeline(trace, depth_config(add, mem)).run()
            out[name, add, mem] = stats.to_json()
    return out


def _count(name: str) -> int:
    return TELEMETRY.counter(name).value


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_runner_answers_equal_fresh_runs(order, fresh):
    runner.clear_caches(detach_store=True)
    runs, reused = (_count("repro_sim_runs_total"),
                    _count("repro_sim_reused_total"))
    try:
        for name, add, mem in _requests(order):
            stats = runner.run_workload(name, depth_config(add, mem))
            assert stats.to_json() == fresh[name, add, mem], \
                (name, add, mem)
    finally:
        runner.clear_caches(detach_store=True)
    simulated = _count("repro_sim_runs_total") - runs
    answered = _count("repro_sim_reused_total") - reused
    assert simulated + answered == len(fresh)
    assert answered > 0


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_one_sweep_answers_equal_fresh_runs(order, fresh):
    points = [SweepPoint(name, 1, f"add={add},mem={mem}",
                         depth_config(add, mem))
              for name, add, mem in _requests(order)]
    sweep = run_sweep(points, jobs=1)
    for result in sweep.results:
        point = result.point
        key = (point.workload, point.config.optimizer.add_depth,
               point.config.optimizer.mem_depth)
        assert result.stats.to_json() == fresh[key], key
    answered = [r for r in sweep.results if not r.simulated]
    assert answered
    assert sweep.counters["simulations"] == len(points) - len(answered)


def test_a_run_answers_no_other_machine():
    # the same depth limits on another machine are another run
    trace = build_trace("gcc").trace
    runs = []
    simulate_trace(trace, depth_config(0, 0), runs)
    wider = BASE.execution_bound().with_optimizer(add_depth=0, mem_depth=1)
    simulate_trace(trace, wider, runs)
    assert len(runs) == 2


# ----------------------------------------------------------------------
# one program per limit test that can fail
# ----------------------------------------------------------------------

def _bound_stops_reuse(source: str, ran: tuple[int, int],
                       stopped: tuple[int, int]) -> tuple:
    """*ran*'s recorded bounds, after checking that they make *stopped*
    simulate, and that its answer from *ran* would have been wrong."""
    trace = run_program(assemble(source)).trace
    runs = []
    first = simulate_trace(trace, depth_config(*ran), runs)
    again = simulate_trace(trace, depth_config(*stopped), runs)
    assert len(runs) == 2
    fresh_stats = make_pipeline(trace, depth_config(*stopped)).run()
    assert again.to_json() == fresh_stats.to_json()
    assert again.to_json() != first.to_json()
    return runs[0][1]


def test_alu_chain_bound_stops_reuse():
    # three chained adds of a constant in one rename bundle: at each
    # limit the first addition past it fails, one level deeper
    source = """.text
        ldi r1, 5
        add r2, r1, 1
        add r3, r2, 1
        add r4, r3, 1
        halt
"""
    assert _bound_stops_reuse(source, (0, 0), (1, 0)) == (1, math.inf)
    assert _bound_stops_reuse(source, (1, 0), (2, 0)) == (2, math.inf)


def test_load_base_add_chain_bound_stops_reuse():
    # the lda and the load share a bundle: the load's base is one
    # chained addition deep
    source = """.data
arr:    .space 64
.text
        ldi r1, arr
        nop
        nop
        nop
        lda r1, 8(r1)
        ldq r2, 0(r1)
        halt
"""
    assert _bound_stops_reuse(source, (0, 0), (1, 0)) == (1, math.inf)


def test_store_base_add_chain_bound_stops_reuse():
    source = """.data
arr:    .space 64
.text
        ldi r1, arr
        ldi r2, 7
        nop
        nop
        lda r1, 8(r1)
        stq r2, 0(r1)
        halt
"""
    assert _bound_stops_reuse(source, (0, 0), (1, 0)) == (1, math.inf)


#: The first ldq of the last bundle is store-forwarded, so the second
#: ldq's base is one chained MBC query deep (the program of
#: ``test_optimizer.py::test_mem_depth_admits_same_bundle_forwarded_base``).
MBC_CHAIN = """.data
ptr:    .space 8
val:    .quad 5
.text
        ldi r1, ptr
        ldi r2, val
        stq r2, 0(r1)
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        ldq r3, 0(r1)
        ldq r4, 0(r3)
        halt
"""


def test_load_base_mbc_chain_bound_stops_reuse():
    assert _bound_stops_reuse(MBC_CHAIN, (0, 0), (0, 1)) == (math.inf, 1)


def test_unbound_limit_is_answered():
    # no add test failed, so any add_depth repeats the run; the mem
    # bound still stops mem_depth 1
    trace = run_program(assemble(MBC_CHAIN)).trace
    runs = []
    simulate_trace(trace, depth_config(0, 0), runs)
    answered = simulate_trace(trace, depth_config(3, 0), runs)
    assert len(runs) == 1
    assert answered.to_json() == \
        make_pipeline(trace, depth_config(3, 0)).run().to_json()
    # a copy: the record's stats stay as they were
    assert answered is not runs[0][2]
    assert answered.extra is not runs[0][2].extra
    simulate_trace(trace, depth_config(0, 1), runs)
    assert len(runs) == 2
    # a lower limit is never answered by a higher one
    deeper = runs[1:]
    simulate_trace(trace, depth_config(0, 0), deeper)
    assert len(deeper) == 2

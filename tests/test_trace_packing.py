"""Packed-trace fidelity: round-trips, views, and engine-level parity.

The packed SoA trace (:class:`repro.functional.trace.PackedTrace`) is
the storage format every layer now ships — the emulator builds it, the
store pickles it, the segment planner slices it, and the pipeline's
fetch stage reads its columns directly.  These tests pin the contract
that packing is *pure representation*: converting through the legacy
``list[TraceEntry]`` form and back changes nothing observable, from
individual entry views all the way up to the byte-exact canonical
ledgers of flat, segmented, and search runs.
"""

import pickle

import pytest

from repro.engine import pool
from repro.engine.campaign import Campaign
from repro.engine.pool import run_sweep
from repro.engine.search import SearchSpace, run_search
from repro.engine.segments import SegmentPolicy
from repro.experiments import runner
from repro.functional.trace import PackedTrace, TraceEntry
from repro.uarch.config import default_config
from repro.uarch.pipeline import simulate_trace
from repro.workloads import build_trace

WORKLOAD = "synth:mixed@seed=3"


@pytest.fixture(autouse=True)
def _clean_runner_state():
    runner.clear_caches(detach_store=True)
    yield
    runner.clear_caches(detach_store=True)


@pytest.fixture(scope="module")
def trace() -> PackedTrace:
    return build_trace(WORKLOAD, 1).trace


def _repack(packed: PackedTrace) -> PackedTrace:
    """Round-trip through the legacy per-entry representation."""
    return PackedTrace.from_entries(packed.to_entries())


class TestRoundTrip:
    def test_emulator_builds_packed(self, trace):
        assert isinstance(trace, PackedTrace)
        assert len(trace) > 0

    def test_entries_round_trip_exactly(self, trace):
        repacked = _repack(trace)
        assert len(repacked) == len(trace)
        for a, b in zip(trace, repacked):
            assert isinstance(a, TraceEntry)
            assert a == b

    def test_entry_views_match_columns(self, trace):
        for i in (0, 1, len(trace) // 2, len(trace) - 1):
            e = trace.entry(i)
            assert e.seq == trace.seqs[i]
            assert e.pc == trace.pcs[i]
            assert e.next_pc == trace.next_pcs[i]
            assert e.instr is trace.instrs[trace.iidx[i]]
            # Sentinel decoding: -1 columns become None views.
            assert (e.addr is None) == (trace.addrs[i] == -1)
            assert (e.taken is None) == (trace.takens[i] == -1)

    def test_equality_against_entry_list(self, trace):
        assert trace == trace.to_entries()
        assert trace == _repack(trace)

    def test_static_instruction_table_is_shared(self, trace):
        # Dynamic rows vastly outnumber static instructions; the table
        # holds each static instruction once.
        assert len(trace.instrs) < len(trace)
        assert len(trace.reg_srcs) == len(trace.instrs)


class TestSliceAndPickle:
    def test_slice_stays_packed_and_shares_tables(self, trace):
        window = trace[100:300]
        assert isinstance(window, PackedTrace)
        assert window.instrs is trace.instrs
        assert window.reg_srcs is trace.reg_srcs
        assert list(window) == trace.to_entries()[100:300]

    def test_slice_of_slice(self, trace):
        assert list(trace[50:250][10:20]) == trace.to_entries()[60:70]

    def test_pickle_round_trip(self, trace):
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone, PackedTrace)
        assert clone == trace
        assert clone.column_bytes() == trace.column_bytes()

    def test_packed_pickle_is_smaller_than_entry_list(self, trace):
        packed = len(pickle.dumps(trace))
        legacy = len(pickle.dumps(trace.to_entries()))
        assert packed < legacy


class TestPipelineParity:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_stats_identical_packed_vs_entry_list(self, trace, optimize):
        config = default_config()
        if optimize:
            config = config.with_optimizer()
        from_packed = simulate_trace(trace, config)
        from_entries = simulate_trace(
            PackedTrace.from_entries(trace.to_entries()), config)
        assert from_packed.to_dict() == from_entries.to_dict()


class TestEngineLedgerParity:
    """Byte-identical canonical ledgers, packed vs legacy-round-trip.

    The legacy variant monkeypatches the engine's trace builder to
    route every freshly built trace through ``to_entries`` /
    ``from_entries`` — i.e. the exact data a pre-packing engine would
    have consumed — and requires the resulting ledger bytes to match
    the packed run's.
    """

    WORKLOADS = ["synth:ilp@seed=0", "synth:mixed@seed=1"]
    AXES = [("optimizer.enabled", [False, True])]

    def _points(self):
        return Campaign.from_axes(workloads=self.WORKLOADS,
                                  axes=self.AXES).points()

    def _legacy_build_trace(self, monkeypatch):
        original = pool.build_trace

        def build_via_entries(name, scale=1):
            result = original(name, scale)
            result.trace = _repack(result.trace)
            return result

        monkeypatch.setattr(pool, "build_trace", build_via_entries)

    def test_flat_sweep_ledger(self, monkeypatch):
        packed = run_sweep(self._points(), jobs=1).ledger_json()
        runner.clear_caches(detach_store=True)
        self._legacy_build_trace(monkeypatch)
        legacy = run_sweep(self._points(), jobs=1).ledger_json()
        assert packed == legacy

    def test_segmented_sweep_ledger(self, monkeypatch, tmp_path):
        packed = run_sweep(self._points(), jobs=1,
                           store_dir=tmp_path / "packed",
                           segment_policy=SegmentPolicy(
                               segment_insns=2000)).ledger_json()
        runner.clear_caches(detach_store=True)
        self._legacy_build_trace(monkeypatch)
        legacy = run_sweep(self._points(), jobs=1,
                           store_dir=tmp_path / "legacy",
                           segment_policy=SegmentPolicy(
                               segment_insns=2000)).ledger_json()
        assert packed == legacy

    def test_search_ledger(self, monkeypatch):
        space = SearchSpace.from_specs(
            ["optimizer.enabled=false,true", "sched_entries=8,16"])

        def search():
            return run_search(space, workloads=tuple(self.WORKLOADS),
                              strategy="random", budget=3, seed=11,
                              jobs=1).ledger_json()

        packed = search()
        runner.clear_caches(detach_store=True)
        self._legacy_build_trace(monkeypatch)
        assert packed == search()

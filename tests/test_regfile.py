"""Unit tests for the reference-counted physical register file."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch import OutOfRegisters, PhysRegFile


class TestAllocation:
    def test_allocate_gives_distinct_registers(self):
        prf = PhysRegFile(8)
        regs = {prf.allocate() for _ in range(8)}
        assert len(regs) == 8

    def test_exhaustion_raises(self):
        prf = PhysRegFile(2)
        prf.allocate()
        prf.allocate()
        with pytest.raises(OutOfRegisters):
            prf.allocate()
        assert prf.allocation_stalls == 1

    def test_initial_refcount_is_one(self):
        prf = PhysRegFile(4)
        preg = prf.allocate()
        assert prf.refcounts[preg] == 1
        assert prf.refcounts[preg] > 0

    def test_release_to_zero_frees(self):
        prf = PhysRegFile(1)
        preg = prf.allocate()
        prf.release_all((preg,))
        assert prf.refcounts[preg] == 0
        assert prf.allocate() == preg  # recycled

    def test_add_ref_prevents_free(self):
        prf = PhysRegFile(2)
        preg = prf.allocate()
        prf.add_refs((preg,))
        prf.release_all((preg,))
        assert prf.refcounts[preg] > 0
        prf.release_all((preg,))
        assert prf.refcounts[preg] == 0

    def test_add_ref_on_free_register_rejected(self):
        prf = PhysRegFile(2)
        preg = prf.allocate()
        prf.release_all((preg,))
        with pytest.raises(ValueError):
            prf.add_refs((preg,))

    def test_double_release_rejected(self):
        prf = PhysRegFile(2)
        preg = prf.allocate()
        prf.release_all((preg,))
        with pytest.raises(ValueError):
            prf.release_all((preg,))

    def test_num_free_tracks(self):
        prf = PhysRegFile(4)
        assert prf.num_free == 4
        preg = prf.allocate()
        assert prf.num_free == 3
        prf.release_all((preg,))
        assert prf.num_free == 4

    def test_high_water_mark(self):
        prf = PhysRegFile(8)
        regs = [prf.allocate() for _ in range(5)]
        for preg in regs:
            prf.release_all((preg,))
        assert prf.high_water == 5


class TestVersions:
    def test_version_bumps_on_free(self):
        prf = PhysRegFile(1)
        preg = prf.allocate()
        version = prf.versions[preg]
        prf.release_all((preg,))
        prf.allocate()
        assert prf.versions[preg] == version + 1

    def test_version_stable_while_live(self):
        prf = PhysRegFile(2)
        preg = prf.allocate()
        version = prf.versions[preg]
        prf.add_refs((preg,))
        prf.release_all((preg,))
        assert prf.versions[preg] == version


class TestValues:
    def test_mark_ready_stores_value(self):
        prf = PhysRegFile(2)
        preg = prf.allocate()
        assert not prf.ready[preg]
        prf.mark_ready(preg, 42)
        assert prf.ready[preg]
        assert prf.values[preg] == 42

    def test_free_clears_readiness(self):
        prf = PhysRegFile(1)
        preg = prf.allocate()
        prf.mark_ready(preg, 42)
        prf.release_all((preg,))
        preg2 = prf.allocate()
        assert preg2 == preg
        assert not prf.ready[preg2]
        assert prf.values[preg2] is None


class TestRefcountInvariant:
    @given(st.lists(st.sampled_from(["alloc", "ref", "release"]),
                    max_size=200))
    def test_never_negative_never_leaks(self, ops):
        prf = PhysRegFile(16)
        live: list[int] = []
        for op in ops:
            if op == "alloc":
                if prf.free_list:
                    live.append(prf.allocate())
            elif op == "ref" and live:
                prf.add_refs((live[0],))
                live.append(live[0])
            elif op == "release" and live:
                preg = live.pop()
                prf.release_all((preg,))
        # Every live handle corresponds to a live register.
        for preg in live:
            assert prf.refcounts[preg] > 0
        # Dropping every handle returns the file to fully free.
        while live:
            prf.release_all((live.pop(),))
        assert prf.num_free == 16

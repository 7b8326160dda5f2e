"""Unit tests for the value-feedback channel."""

import pytest

from repro.core.feedback import ValueFeedbackChannel
from repro.uarch import PhysRegFile


@pytest.fixture
def prf():
    return PhysRegFile(16)


class TestDelay:
    def test_value_arrives_after_delay(self, prf):
        channel = ValueFeedbackChannel(prf, delay=3)
        preg = prf.allocate()
        channel.publish(preg, 42, cycle=10)
        channel.drain(cycle=12)
        assert channel.lookup(preg) is None  # not yet arrived
        channel.drain(cycle=13)
        assert channel.lookup(preg) == 42

    def test_zero_delay_available_same_cycle(self, prf):
        channel = ValueFeedbackChannel(prf, delay=0)
        preg = prf.allocate()
        channel.publish(preg, 7, cycle=5)
        channel.drain(cycle=5)
        assert channel.lookup(preg) == 7

    def test_multiple_values_in_order(self, prf):
        channel = ValueFeedbackChannel(prf, delay=1)
        a = prf.allocate()
        b = prf.allocate()
        channel.publish(a, 1, cycle=1)
        channel.publish(b, 2, cycle=2)
        channel.drain(cycle=2)
        assert channel.lookup(a) == 1
        assert channel.lookup(b) is None
        channel.drain(cycle=3)
        assert channel.lookup(b) == 2


class TestLiveness:
    def test_dead_register_value_dropped(self, prf):
        # "If the delay is too long, the physical register might no
        # longer be referenced ... and therefore of no use." (S6.4)
        channel = ValueFeedbackChannel(prf, delay=5)
        preg = prf.allocate()
        channel.publish(preg, 42, cycle=0)
        prf.release_all((preg,))  # recycled before arrival
        channel.drain(cycle=5)
        assert channel.lookup(preg) is None
        assert channel.values_dropped_dead == 1

    def test_recycled_register_never_reports_stale_value(self):
        prf = PhysRegFile(1)  # forces immediate recycling
        channel = ValueFeedbackChannel(prf, delay=0)
        preg = prf.allocate()
        channel.publish(preg, 42, cycle=0)
        channel.drain(cycle=0)
        assert channel.lookup(preg) == 42
        prf.release_all((preg,))
        reused = prf.allocate()
        assert reused == preg
        assert channel.lookup(preg) is None  # version mismatch

    def test_free_register_is_not_published(self):
        # A result whose register was freed before it completed must
        # not reach the register's next allocation, which carries the
        # version the free bumped to.
        prf = PhysRegFile(1)
        channel = ValueFeedbackChannel(prf, delay=1)
        preg = prf.allocate()
        prf.release_all((preg,))
        channel.publish(preg, 42, cycle=0)
        assert prf.allocate() == preg
        channel.drain(cycle=1)
        assert channel.lookup(preg) is None
        assert channel.values_fed_back == 0

    def test_record_known_immediate(self, prf):
        channel = ValueFeedbackChannel(prf, delay=10)
        preg = prf.allocate()
        channel.record_known(preg, 99)
        assert channel.lookup(preg) == 99

    def test_counters(self, prf):
        channel = ValueFeedbackChannel(prf, delay=0)
        preg = prf.allocate()
        channel.publish(preg, 1, cycle=0)
        channel.drain(cycle=0)
        assert channel.values_fed_back == 1
        assert len(channel.known) == 1

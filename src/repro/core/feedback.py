"""Value feedback from the execution units to the optimizer tables.

Section 2.2/3.3 of the paper: each value generated by an execution
unit can be integrated back into the optimization tables, converting a
symbolic value into a *known* value.  The feedback path has a
transmission delay (default one cycle; Figure 12 sweeps 0/1/5/10), and
a value is only useful while its physical register is still live.

:class:`ValueFeedbackChannel` models the delay with a FIFO of pending
results and the liveness constraint with (register, version) checks
against the reference-counted register file.
"""

from __future__ import annotations

from collections import deque

from ..uarch.regfile import PhysRegFile


class ValueFeedbackChannel:
    """Delay line + known-value table for execution results."""

    def __init__(self, prf: PhysRegFile, delay: int):
        self._refcounts = prf.refcounts
        self._versions = prf.versions
        self._delay = delay
        #: The delay line: ``(available_cycle, preg, version, value)``
        #: per published result.  Completion events are processed in
        #: cycle order, so the deque stays sorted and ``pending[0]`` is
        #: the next result to arrive.  Read-only outside this class.
        self.pending: deque[tuple[int, int, int, int]] = deque()
        #: The known-value table, ``preg -> (version, value)``.  A key
        #: means a record exists, not that it is still valid: read
        #: values through :meth:`lookup`, which checks the version.  A
        #: record is stale once its register is freed, so whoever
        #: reallocates the register may delete it.
        self.known: dict[int, tuple[int, int]] = {}
        self.values_fed_back = 0
        self.values_dropped_dead = 0

    def publish(self, preg: int, value: int, cycle: int) -> None:
        """An execution unit produced *value* into *preg* at *cycle*.

        A register that is already free is not published: its version
        is the one its next allocation will carry.
        """
        if self._refcounts[preg] > 0:
            self.pending.append((cycle + self._delay, preg,
                                 self._versions[preg], value))

    def drain(self, cycle: int) -> None:
        """Move arrived results into the known-value table."""
        pending = self.pending
        refcounts = self._refcounts
        versions = self._versions
        while pending and pending[0][0] <= cycle:
            _, preg, version, value = pending.popleft()
            if refcounts[preg] > 0 and versions[preg] == version:
                self.known[preg] = (version, value)
                self.values_fed_back += 1
            else:
                # The register was recycled before the value arrived —
                # the paper's "no longer referenced" case.
                self.values_dropped_dead += 1

    def lookup(self, preg: int) -> int | None:
        """The known value of *preg*, or None.

        Validates liveness and version so a recycled register never
        reports a stale value.
        """
        record = self.known.get(preg)
        if record is None:
            return None
        version, value = record
        if self._refcounts[preg] <= 0 or self._versions[preg] != version:
            del self.known[preg]
            return None
        return value

    def record_known(self, preg: int, value: int) -> None:
        """Record a value the optimizer itself computed (early execution)."""
        self.known[preg] = (self._versions[preg], value)

"""Interleaving regression pack for the circuit breaker's half-open slot.

Exhaustive interleavings (via the scheduler shim) prove that exactly
one caller wins the half-open probe no matter how N concurrent callers
race ``allow()``, and that a failed probe re-opens the breaker without
stranding the callers it turned away.  These tests fail against the
pre-lock breaker, whose ``allow()`` admitted every half-open caller.
"""

import pytest

from repro.mediator import BreakerPolicy, CircuitBreaker
from repro.mediator.mediator import CLOSED, HALF_OPEN, OPEN
from repro.sources import VirtualClock
from tests.concurrency.scheduler import (
    Interleaver,
    all_interleavings,
    sampled_interleavings,
)

RESET = 30.0
#: Four callers have 369 600 interleavings (10 s); walk a seeded sample.
SAMPLED_ORDERS = 20_000


def _opened_breaker(threshold=1):
    timeline = VirtualClock()
    breaker = CircuitBreaker(BreakerPolicy(threshold, RESET), timeline)
    for __ in range(threshold):
        breaker.record_failure()
    assert breaker.state == OPEN
    timeline.advance(RESET)  # the probe window is now open
    return timeline, breaker


def _caller(breaker, grants, index, verdict=None):
    """One concurrent caller: race allow(), then maybe report back."""
    yield
    grants[index] = breaker.allow()
    yield
    if grants[index] and verdict is not None:
        if verdict == "success":
            breaker.record_success()
        else:
            breaker.record_failure()


class TestSingleProbeSlot:
    @pytest.mark.parametrize("callers", [2, 3, 4])
    def test_exactly_one_probe_wins_every_interleaving(self, callers, seed):
        steps = [3] * callers
        orders = (all_interleavings(steps) if callers < 4 else
                  sampled_interleavings(steps, SAMPLED_ORDERS, seed))
        for order in orders:
            timeline, breaker = _opened_breaker()
            grants = [None] * callers
            tasks = [_caller(breaker, grants, index)
                     for index in range(callers)]
            Interleaver(schedule=list(order)).run(tasks)
            assert grants.count(True) == 1, order
            assert breaker.state == HALF_OPEN

    def test_seeded_sweep_agrees_at_scale(self, seed):
        for sweep in range(20):
            timeline, breaker = _opened_breaker()
            grants = [None] * 6
            tasks = [_caller(breaker, grants, index) for index in range(6)]
            Interleaver(seed=seed * 1000 + sweep).run(tasks)
            assert grants.count(True) == 1


class TestProbeFailure:
    def test_probe_failure_reopens_for_every_interleaving(self):
        for order in all_interleavings([3, 3, 3]):
            timeline, breaker = _opened_breaker()
            grants = [None] * 3
            tasks = [_caller(breaker, grants, index, verdict="failure")
                     for index in range(3)]
            Interleaver(schedule=list(order)).run(tasks)
            assert breaker.state == OPEN
            assert grants.count(True) == 1

    def test_reopen_does_not_strand_queued_callers(self):
        timeline, breaker = _opened_breaker()
        assert breaker.allow()          # probe granted
        assert not breaker.allow()      # queued caller turned away
        breaker.record_failure()        # probe failed: re-open
        assert breaker.state == OPEN
        assert not breaker.allow()      # still open, as it should be
        timeline.advance(RESET)
        assert breaker.allow()          # the next window admits a probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()          # closed circuit admits everyone
        assert breaker.allow()

    def test_probe_success_recloses_for_all_queued_callers(self):
        timeline, breaker = _opened_breaker()
        grants = [None] * 3
        tasks = [_caller(breaker, grants, index, verdict="success")
                 for index in range(3)]
        Interleaver(schedule=[0, 0, 0, 1, 1, 2, 2, 1, 2]).run(tasks)
        # Caller 0 won the probe and reported success before 1 and 2
        # finished; the circuit is closed again.
        assert breaker.state == CLOSED
        assert breaker.allow()


class TestProbeLease:
    def test_a_crashed_probe_frees_the_slot_after_a_reset_window(self):
        timeline, breaker = _opened_breaker()
        assert breaker.allow()           # probe granted, never reports back
        assert not breaker.allow()       # slot held
        timeline.advance(RESET)
        assert breaker.allow()           # lease expired: new probe admitted
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_lease_is_not_freed_early(self):
        timeline, breaker = _opened_breaker()
        assert breaker.allow()
        timeline.advance(RESET / 2)
        assert not breaker.allow()

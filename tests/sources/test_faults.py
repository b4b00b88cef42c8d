"""Tests for the deterministic fault-injection proxy."""

import pytest

from repro.errors import ReproError, SourceError
from repro.sources import (
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from repro.sources.faults import GUARDED_OPERATIONS


@pytest.fixture
def universe():
    return Universe(seed=31, size=20)


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now() == 4.0

    def test_refuses_to_run_backwards(self):
        with pytest.raises(ValueError) as caught:
            VirtualClock().advance(-1.0)
        assert isinstance(caught.value, ReproError)
        assert (caught.value.what, caught.value.value) == ("advance", -1.0)


class TestDeterminism:
    def test_same_seed_same_failure_sequence(self, universe):
        def failure_pattern(seed):
            proxy = FaultyRepository(GenBankRepository(universe), seed=seed)
            proxy.fail_with_rate(0.5, "snapshot")
            pattern = []
            for __ in range(20):
                try:
                    proxy.snapshot()
                    pattern.append(True)
                except SourceError:
                    pattern.append(False)
            return pattern

        assert failure_pattern(3) == failure_pattern(3)
        assert failure_pattern(3) != failure_pattern(4)

    def test_fail_next_is_exact(self, universe):
        proxy = FaultyRepository(GenBankRepository(universe))
        proxy.fail_next(2, "snapshot")
        for __ in range(2):
            with pytest.raises(SourceError):
                proxy.snapshot()
        assert proxy.snapshot()  # third call goes through
        assert proxy.stats.failures == 2

    def test_rate_extremes(self, universe):
        always = FaultyRepository(EmblRepository(universe))
        always.fail_with_rate(1.0)
        with pytest.raises(SourceError):
            always.query_accessions()
        never = FaultyRepository(EmblRepository(universe))
        never.fail_with_rate(0.0)
        assert never.query_accessions()


class TestOutageWindows:
    def test_calls_fail_inside_the_window_only(self, universe):
        timeline = VirtualClock()
        proxy = FaultyRepository(GenBankRepository(universe), timeline)
        proxy.schedule_outage(5.0, 10.0)
        assert proxy.snapshot()          # t=0: before the outage
        timeline.advance(5.0)
        with pytest.raises(SourceError):
            proxy.snapshot()             # t=5: inside
        timeline.advance(5.0)
        assert proxy.snapshot()          # t=10: half-open interval end

    def test_empty_window_rejected(self, universe):
        proxy = FaultyRepository(GenBankRepository(universe))
        with pytest.raises(ValueError) as caught:
            proxy.schedule_outage(3.0, 3.0)
        assert isinstance(caught.value, ReproError)
        assert caught.value.what == "window"
        assert "GenBank" in caught.value.where  # the schedule's key
        assert caught.value.value == (3.0, 3.0)


class TestLatencyAndCorruption:
    def test_latency_advances_the_shared_clock(self, universe):
        timeline = VirtualClock()
        proxy = FaultyRepository(GenBankRepository(universe), timeline)
        proxy.add_latency(2.0)
        proxy.snapshot()
        proxy.snapshot()
        assert timeline.now() == 4.0
        assert proxy.stats.injected_latency == 4.0

    def test_corruption_alters_payloads(self, universe):
        proxy = FaultyRepository(GenBankRepository(universe), seed=5)
        clean = proxy.snapshot()
        proxy.corrupt_with_rate(1.0)
        corrupt = proxy.snapshot()
        assert corrupt != clean
        assert proxy.stats.corruptions == 1

    def test_corruption_off_by_default(self, universe):
        proxy = FaultyRepository(GenBankRepository(universe))
        assert proxy.snapshot() == proxy.inner.snapshot()


class TestStructuredErrors:
    def test_source_error_carries_context(self, universe):
        proxy = FaultyRepository(EmblRepository(universe))
        proxy.fail_next(1, "query")
        with pytest.raises(SourceError) as excinfo:
            proxy.query("anything")
        assert excinfo.value.source == "EMBL"
        assert excinfo.value.operation == "query"

    def test_capability_refusals_carry_context(self, universe):
        source = GenBankRepository(universe)  # snapshots only
        with pytest.raises(SourceError) as excinfo:
            source.query("X")
        assert excinfo.value.source == "GenBank"
        assert excinfo.value.operation == "query"

    def test_every_guarded_operation_fails_injectably(self, universe):
        proxy = FaultyRepository(RelationalRepository(universe))
        calls = {
            "snapshot": proxy.snapshot,
            "query": lambda: proxy.query("X"),
            "query_accessions": proxy.query_accessions,
            "read_log": proxy.read_log,
        }
        assert set(calls) == set(GUARDED_OPERATIONS)
        for operation, call in calls.items():
            proxy.fail_next(1, operation)
            with pytest.raises(SourceError) as excinfo:
                call()
            assert excinfo.value.operation == operation


class TestChannels:
    def test_push_channel_drop_swallows_notifications(self, universe):
        proxy = FaultyRepository(SwissProtRepository(universe))
        received = []
        proxy.subscribe(lambda entry, rendered: received.append(entry))
        proxy.advance(2)
        proxy.drop_push_channel()
        proxy.advance(3)
        proxy.restore_push_channel()
        proxy.advance(1)
        assert len(received) == 3
        assert proxy.stats.dropped_notifications == 3

    def test_log_channel_drop_raises(self, universe):
        proxy = FaultyRepository(RelationalRepository(universe))
        assert proxy.read_log() == proxy.inner.read_log()
        proxy.drop_log_channel()
        with pytest.raises(SourceError) as excinfo:
            proxy.read_log()
        assert excinfo.value.operation == "read_log"
        proxy.restore_log_channel()
        proxy.read_log()


class TestDelegation:
    def test_unguarded_access_is_transparent(self, universe):
        inner = GenBankRepository(universe)
        proxy = FaultyRepository(inner)
        proxy.fail_with_rate(1.0)  # guarded ops all fail ...
        assert len(proxy) == len(inner)
        assert proxy.name == inner.name
        assert proxy.accessions() == inner.accessions()
        assert proxy.capabilities is inner.capabilities
        assert proxy.representation == inner.representation
        first = inner.accessions()[0]
        assert proxy.record_state(first) is inner.record_state(first)

    def test_advance_mutates_the_inner_repository(self, universe):
        inner = GenBankRepository(universe)
        proxy = FaultyRepository(inner)
        before = proxy.clock
        proxy.advance(3)
        assert inner.clock > before
        assert proxy.clock == inner.clock

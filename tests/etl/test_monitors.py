"""Tests for the change-detection monitors (Figure 2 strategies)."""

import pytest

from repro.errors import SourceError
from repro.etl.delta import DELETE, INSERT, UPDATE
from repro.etl.monitors import (
    LogMonitor,
    PollingMonitor,
    SnapshotMonitor,
    TriggerMonitor,
    choose_monitor,
)
from repro.sources import (
    AceRepository,
    Capabilities,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)


@pytest.fixture
def universe():
    return Universe(seed=17, size=40)


def _expected_net_effect(repository, baseline):
    """Net record-level changes vs. a baseline accession→version map."""
    current = {
        accession: repository.record_state(accession).version
        for accession in repository.accessions()
    }
    inserted = set(current) - set(baseline)
    deleted = set(baseline) - set(current)
    updated = {
        accession for accession in set(current) & set(baseline)
        if current[accession] != baseline[accession]
    }
    return inserted, deleted, updated


def _baseline(repository):
    return {
        accession: repository.record_state(accession).version
        for accession in repository.accessions()
    }


class TestChooseMonitor:
    def test_preference_order(self, universe):
        assert isinstance(
            choose_monitor(SwissProtRepository(universe)), TriggerMonitor
        )
        assert isinstance(
            choose_monitor(EmblRepository(universe)), PollingMonitor
        )
        assert isinstance(
            choose_monitor(GenBankRepository(universe)), SnapshotMonitor
        )
        logged_only = GenBankRepository(
            universe, capabilities=Capabilities(logged=True)
        )
        assert isinstance(choose_monitor(logged_only), LogMonitor)

    def test_capability_enforced(self, universe):
        with pytest.raises(SourceError):
            TriggerMonitor(GenBankRepository(universe))
        with pytest.raises(SourceError):
            LogMonitor(GenBankRepository(universe))
        with pytest.raises(SourceError):
            PollingMonitor(GenBankRepository(universe))


class TestTriggerMonitor:
    def test_captures_every_event(self, universe):
        repository = SwissProtRepository(universe)
        monitor = TriggerMonitor(repository)
        events = repository.advance(10)
        deltas = monitor.poll()
        assert len(deltas) == len(events)
        assert [d.operation for d in deltas] \
            == [e.operation for e in events]

    def test_before_and_after_images(self, universe):
        repository = SwissProtRepository(universe)
        monitor = TriggerMonitor(repository)
        for _ in range(50):
            events = repository.advance(1)
            deltas = monitor.poll()
            delta = deltas[0]
            if events[0].operation == UPDATE:
                assert delta.before is not None
                assert delta.after is not None
                assert delta.before != delta.after
                return
        pytest.fail("no update within 50 steps")

    def test_poll_drains(self, universe):
        repository = SwissProtRepository(universe)
        monitor = TriggerMonitor(repository)
        repository.advance(3)
        assert len(monitor.poll()) == 3
        assert monitor.poll() == []

    def test_cost_is_notifications_only(self, universe):
        repository = SwissProtRepository(universe)
        monitor = TriggerMonitor(repository)
        repository.advance(5)
        monitor.poll()
        assert monitor.cost.notifications == 5
        assert monitor.cost.bytes_scanned == 0


class TestLogMonitor:
    def test_detects_changes(self, universe):
        repository = RelationalRepository(universe)
        monitor = LogMonitor(repository)
        baseline = _baseline(repository)
        repository.advance(10)
        deltas = monitor.poll()
        inserted, deleted, updated = _expected_net_effect(
            repository, baseline
        )
        got_by_op = {
            INSERT: {d.accession for d in deltas if d.operation == INSERT},
            DELETE: {d.accession for d in deltas if d.operation == DELETE},
            UPDATE: {d.accession for d in deltas if d.operation == UPDATE},
        }
        # The log sees every event, so net inserts/deletes are covered.
        assert inserted <= got_by_op[INSERT]
        assert deleted <= got_by_op[DELETE]
        assert updated <= got_by_op[UPDATE] | got_by_op[INSERT]

    def test_resumes_from_last_sequence(self, universe):
        repository = RelationalRepository(universe)
        monitor = LogMonitor(repository)
        repository.advance(4)
        first = monitor.poll()
        repository.advance(3)
        second = monitor.poll()
        assert len(first) + len(second) <= 7  # update-then-delete skips
        assert monitor.poll() == []


class TestPollingMonitor:
    def test_detects_net_changes(self, universe):
        repository = EmblRepository(universe)
        monitor = PollingMonitor(repository)
        baseline = _baseline(repository)
        repository.advance(12)
        deltas = monitor.poll()
        inserted, deleted, updated = _expected_net_effect(
            repository, baseline
        )
        assert {d.accession for d in deltas if d.operation == INSERT} \
            == inserted
        assert {d.accession for d in deltas if d.operation == DELETE} \
            == deleted
        # Content updates with unchanged text can't be seen; version is
        # rendered, so every bumped version is visible.
        assert {d.accession for d in deltas if d.operation == UPDATE} \
            >= updated

    def test_coalesces_multiple_updates(self, universe):
        # Many events between two polls collapse to net record changes —
        # the polling-frequency trade-off of section 5.2.
        repository = EmblRepository(universe)
        monitor = PollingMonitor(repository)
        events = repository.advance(30)
        deltas = monitor.poll()
        assert len(deltas) <= len(events)

    def test_quiet_source_costs_but_yields_nothing(self, universe):
        repository = EmblRepository(universe)
        monitor = PollingMonitor(repository)
        assert monitor.poll() == []
        assert monitor.cost.records_fetched > 0  # polling is never free


class TestSnapshotMonitor:
    @pytest.mark.parametrize("repo_class", [
        GenBankRepository, AceRepository,
    ])
    def test_detects_net_changes(self, universe, repo_class):
        repository = repo_class(universe)
        monitor = SnapshotMonitor(repository)
        baseline = _baseline(repository)
        repository.advance(10)
        deltas = monitor.poll()
        inserted, deleted, updated = _expected_net_effect(
            repository, baseline
        )
        assert {d.accession for d in deltas if d.operation == INSERT} \
            == inserted
        assert {d.accession for d in deltas if d.operation == DELETE} \
            == deleted
        assert {d.accession for d in deltas if d.operation == UPDATE} \
            >= updated

    def test_cost_scales_with_dump_size(self, universe):
        repository = GenBankRepository(universe)
        monitor = SnapshotMonitor(repository)
        repository.advance(1)
        monitor.poll()
        assert monitor.cost.bytes_scanned >= len(repository.snapshot()) * 0.5

    def test_relational_snapshot_monitoring(self, universe):
        repository = RelationalRepository(
            universe, capabilities=Capabilities()
        )
        monitor = SnapshotMonitor(repository)
        repository.advance(5)
        deltas = monitor.poll()
        assert deltas  # CSV splitting path works too


class TestUnregisteredFormat:
    def test_a_monitor_over_an_unknown_source_ingests_unvalidated(
            self, universe):
        repository = GenBankRepository(universe)
        repository.name = "MysteryDB"
        monitor = SnapshotMonitor(repository)
        assert monitor._wrapper is None
        repository.advance(6)
        deltas = monitor.poll()
        assert deltas and monitor.health.quarantined == 0
        assert {delta.source for delta in deltas} == {"MysteryDB"}


class TestDeltaContract:
    def test_delta_ids_unique(self, universe):
        repository = SwissProtRepository(universe)
        monitor = TriggerMonitor(repository)
        repository.advance(15)
        deltas = monitor.poll()
        ids = [d.delta_id for d in deltas]
        assert len(set(ids)) == len(ids)

    def test_images_parseable_by_wrapper(self, universe):
        from repro.etl.wrappers import wrapper_for

        repository = GenBankRepository(universe)
        monitor = SnapshotMonitor(repository)
        repository.advance(8)
        wrapper = wrapper_for("GenBank")
        for delta in monitor.poll():
            if delta.after is not None:
                assert wrapper.parse_record(delta.after).accession \
                    == delta.accession
            if delta.before is not None:
                assert wrapper.parse_record(delta.before).accession \
                    == delta.accession

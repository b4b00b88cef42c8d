"""Monitors under fault injection: resumable cursors, quarantine,
degradation down the Figure 2 capability ladder."""

import re

import pytest

from repro.etl.delta import DELETE
from repro.etl.monitors import (
    LogMonitor,
    PollingMonitor,
    SnapshotMonitor,
    TriggerMonitor,
)
from repro.sources import (
    Capabilities,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)


def _truth_images(monitor):
    """What the monitor's images must equal once it has caught up."""
    repository = monitor.repository
    return {
        accession: monitor._normalize(repository.render_record(
            repository.record_state(accession)
        ))
        for accession in repository.accessions()
    }


def _assert_unique(deltas):
    identifiers = [delta.delta_id for delta in deltas]
    assert len(identifiers) == len(set(identifiers))


class TestSnapshotMonitorFaults:
    def _monitor(self, seed=41):
        proxy = FaultyRepository(GenBankRepository(Universe(seed=seed,
                                                           size=16)))
        return SnapshotMonitor(proxy), proxy

    def test_failed_poll_coalesces_into_the_next(self):
        monitor, proxy = self._monitor()
        before = dict(monitor._images)
        proxy.advance(2)
        proxy.fail_next(1, "snapshot")
        assert monitor.poll() == []
        assert monitor.health.failed_polls == 1
        assert monitor._images == before  # nothing half-applied
        recovered = monitor.poll()
        assert monitor._images == monitor._split_snapshot(
            proxy.inner.snapshot()
        )
        if monitor._images != before:
            assert recovered  # the missed changes arrived late, not never

    def test_corrupt_dump_never_fabricates_deletes(self):
        monitor, proxy = self._monitor()
        proxy.corrupt_with_rate(1.0)
        for __ in range(3):
            proxy.advance(1)
            deltas = monitor.poll()
            still_there = monitor._split_snapshot(proxy.inner.snapshot())
            for delta in deltas:
                if delta.operation == DELETE:
                    assert delta.accession not in still_there
        assert monitor.health.quarantined > 0
        proxy.corrupt_with_rate(0.0)
        monitor.poll()
        assert monitor._images == monitor._split_snapshot(
            proxy.inner.snapshot()
        )

    def test_a_garbled_accession_line_is_quarantined(self, monkeypatch):
        """A garble from right after ``ACCESSION`` to the end of a line
        ``len(dump) // 8`` characters on leaves a line with no accession;
        the split raised ``IndexError`` out of ``poll``.  A garble of a
        whole ``ACCESSION`` / ``AC`` line left a record with none, which
        the split dropped: the poll read it as deleted."""
        def after_the_tag(dump):
            start = dump.index("ACCESSION") + 9
            return start, dump.index("\n", start + len(dump) // 8)

        def whole_line(dump):
            start = re.search("^(ACCESSION|AC) ", dump, re.MULTILINE).start()
            return start, dump.index("\n", start)

        for repository, garble in ((GenBankRepository, after_the_tag),
                                   (GenBankRepository, whole_line),
                                   (EmblRepository, whole_line),
                                   (SwissProtRepository, whole_line)):
            proxy = FaultyRepository(repository(Universe(seed=41, size=16)))
            monitor = SnapshotMonitor(proxy)
            proxy.advance(1)
            dump = proxy.inner.snapshot()
            start, end = garble(dump)
            garbled = dump[:start] + "#" * (end - start) + dump[end:]
            monkeypatch.setattr(proxy, "snapshot", lambda: garbled)
            deltas = monitor.poll()
            assert not [delta for delta in deltas
                        if delta.operation == DELETE], proxy.name
            assert monitor.quarantine and monitor.health.quarantined

    def test_quarantine_report_is_readable(self):
        monitor, proxy = self._monitor()
        proxy.corrupt_with_rate(1.0)
        proxy.advance(1)
        monitor.poll()
        report = monitor.quarantine_report()
        assert report.startswith("GenBank:")
        assert f"{len(monitor.quarantine)} quarantined" in report
        for item in monitor.quarantine:
            assert item.reason in report


class TestPollingMonitorFaults:
    def _monitor(self, seed=43):
        proxy = FaultyRepository(EmblRepository(Universe(seed=seed,
                                                         size=16)))
        return PollingMonitor(proxy), proxy

    def test_query_failure_degrades_to_snapshot_diff(self):
        monitor, proxy = self._monitor()
        control = PollingMonitor(proxy.inner)
        proxy.advance(2)
        proxy.fail_next(1, "query_accessions")
        degraded = monitor.poll()
        assert monitor.health.degraded_polls == 1
        expected = control.poll()
        key = lambda d: (d.accession, d.operation)  # noqa: E731
        assert sorted(map(key, degraded)) == sorted(map(key, expected))
        assert monitor._images == control._images

    def test_dead_source_fails_the_poll_and_keeps_state(self):
        monitor, proxy = self._monitor()
        proxy.advance(2)
        before = dict(monitor._images)
        proxy.fail_next(1, "query_accessions")
        proxy.fail_next(1, "snapshot")  # the fallback rung dies too
        assert monitor.poll() == []
        assert monitor.health.failed_polls == 1
        assert monitor._images == before
        monitor.poll()
        assert monitor._images == _truth_images(monitor)


class TestLogMonitorFaults:
    def _monitor(self, seed=47):
        proxy = FaultyRepository(RelationalRepository(Universe(seed=seed,
                                                               size=16)))
        return LogMonitor(proxy), proxy

    def test_midpoll_fetch_failure_resumes_without_loss(self):
        monitor, proxy = self._monitor()
        control = LogMonitor(proxy.inner)
        proxy.advance(3)
        proxy.fail_next(1, "query")
        partial = monitor.poll()
        assert monitor.health.failed_polls == 1
        resumed = monitor.poll()
        combined = partial + resumed
        _assert_unique(combined)
        expected = control.poll()
        key = lambda d: (d.accession, d.operation, d.timestamp)  # noqa: E731
        assert sorted(map(key, combined)) == sorted(map(key, expected))
        assert monitor._last_sequence == control._last_sequence
        assert monitor._images == _truth_images(monitor)

    def test_log_loss_degrades_then_resyncs_cleanly(self):
        monitor, proxy = self._monitor()
        collected = []
        proxy.advance(2)
        collected += monitor.poll()
        proxy.drop_log_channel()
        proxy.advance(2)
        collected += monitor.poll()  # snapshot-diff fallback
        assert monitor.health.degraded_polls == 1
        proxy.restore_log_channel()
        proxy.advance(2)
        collected += monitor.poll()
        _assert_unique(collected)
        assert monitor._images == _truth_images(monitor)
        assert (monitor._last_sequence
                == proxy.inner.read_log()[-1].sequence_number)

    def test_failed_fallback_does_not_advance_the_resync_clock(self):
        # Outage window: log channel down AND the snapshot rung dying on
        # the same poll.  Nothing was delivered, so nothing may be
        # marked as covered — the deltas must arrive once any channel
        # returns, not be skipped by a phantom resync.
        monitor, proxy = self._monitor()
        control = LogMonitor(proxy.inner)
        proxy.advance(4)
        proxy.drop_log_channel()
        proxy.fail_next(1, "snapshot")
        assert monitor.poll() == []
        assert monitor.health.failed_polls == 1
        assert monitor.health.degraded_polls == 1
        assert monitor._resync_clock == 0  # the failed fallback covered nothing
        proxy.restore_log_channel()
        recovered = monitor.poll()
        expected = control.poll()
        key = lambda d: (d.accession, d.operation, d.timestamp)  # noqa: E731
        assert sorted(map(key, recovered)) == sorted(map(key, expected))
        assert monitor._images == _truth_images(monitor)

    def test_resync_clock_skips_entries_the_fallback_covered(self):
        monitor, proxy = self._monitor()
        proxy.drop_log_channel()
        proxy.advance(2)
        fallback = monitor.poll()
        proxy.restore_log_channel()
        read_before = monitor.cost.log_entries_read
        assert monitor.poll() == []  # log replays nothing already shipped
        assert monitor.cost.log_entries_read > read_before
        assert {d.delta_id for d in fallback} == {
            d.delta_id for d in fallback
        }

    def test_torn_dump_deferred_delete_is_confirmed_by_the_log(self):
        # A torn dump is not trusted about absences, so the fallback
        # keeps the deleted record's image.  When the log channel comes
        # back, the confirming DELETE entry sits *inside* the resync
        # window — it must be delivered anyway, not skipped, or the
        # stale record would be reported as present forever.
        inner = SwissProtRepository(
            Universe(seed=61, size=16),
            capabilities=Capabilities(queryable=True, logged=True),
        )
        proxy = FaultyRepository(inner)
        monitor = LogMonitor(proxy)
        victim = min(monitor._images)
        del inner._records[victim]
        inner._emit(DELETE, victim)
        proxy.drop_log_channel()
        torn = inner.snapshot().rstrip()
        assert torn.endswith("//")
        inner.snapshot = lambda: torn[:-2].rstrip()  # tear the terminator
        deferred = monitor.poll()  # degraded poll ingests the torn dump
        del inner.__dict__["snapshot"]
        assert monitor.health.degraded_polls == 1
        assert all(delta.operation != DELETE for delta in deferred)
        assert victim in monitor._images  # absence deferred, not believed
        assert victim in monitor._deferred_deletes
        proxy.restore_log_channel()
        confirmed = monitor.poll()  # the returning log confirms the delete
        assert [delta.accession for delta in confirmed
                if delta.operation == DELETE] == [victim]
        assert victim not in monitor._images
        assert monitor._images == _truth_images(monitor)

    def test_corrupt_record_image_is_quarantined_not_ingested(self):
        monitor, proxy = self._monitor()
        stored = dict(monitor._images)
        accession = next(iter(stored))
        assert not monitor._validate(accession, "definitely,not,a,row")
        assert monitor.health.quarantined == 1
        item = monitor.quarantine[0]
        assert item.accession == accession
        assert item.source == "RelationalDB"
        assert monitor._images == stored  # nothing ingested

    def test_corruption_storm_still_advances_the_cursor(self):
        monitor, proxy = self._monitor()
        proxy.corrupt_with_rate(1.0)
        proxy.advance(2)
        monitor.poll()
        assert (monitor._last_sequence
                == proxy.inner.read_log()[-1].sequence_number)
        proxy.corrupt_with_rate(0.0)
        proxy.advance(1)
        monitor.poll()
        assert monitor._images == _truth_images(monitor)


class TestTriggerMonitorFaults:
    def _run_outage(self, seed=53):
        proxy = FaultyRepository(SwissProtRepository(Universe(seed=seed,
                                                              size=16)))
        monitor = TriggerMonitor(proxy)
        collected = []
        proxy.advance(1)
        collected += monitor.poll()
        proxy.drop_push_channel()
        proxy.advance(2)
        collected += monitor.poll()  # observes the dead channel
        proxy.restore_push_channel()
        proxy.advance(1)
        collected += monitor.poll()  # drains pushes + resync sweep
        return monitor, proxy, collected

    def test_push_loss_is_recovered_by_snapshot_fallback(self):
        monitor, proxy, collected = self._run_outage()
        assert proxy.stats.dropped_notifications > 0
        assert monitor.health.degraded_polls >= 1
        assert collected  # the outage did not eat the changes

    def test_nothing_is_delivered_twice_across_the_outage(self):
        monitor, proxy, collected = self._run_outage()
        _assert_unique(collected)

    def test_images_converge_to_the_source(self):
        monitor, proxy, collected = self._run_outage()
        assert monitor._images == _truth_images(monitor)

    def test_failed_resync_keeps_the_channel_debt(self):
        proxy = FaultyRepository(SwissProtRepository(Universe(seed=53,
                                                              size=16)))
        monitor = TriggerMonitor(proxy)
        proxy.drop_push_channel()
        proxy.advance(2)  # these notifications are dropped for good
        proxy.fail_next(1, "snapshot")
        assert monitor.poll() == []  # dead channel AND dead snapshot
        assert monitor._channel_was_down
        proxy.restore_push_channel()
        proxy.fail_next(1, "snapshot")
        assert monitor.poll() == []  # channel is back, resync still dies
        assert monitor._channel_was_down  # the debt is not forgotten
        recovered = monitor.poll()  # a clean resync finally pays it off
        assert not monitor._channel_was_down
        assert recovered  # the dropped notifications arrived late, not never
        assert monitor._images == _truth_images(monitor)

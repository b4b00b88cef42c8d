"""Epochs, leases, fencing, zombie demotion, and the write audit.

The split-brain contract under test: a primary may *acknowledge* a
write only under a live lease (expired ⇒ structured refusal, never
silent acceptance), every shipment carries the sender's epoch claim and
followers fence stale claims, a partitioned zombie is promoted over
only once its lease has lapsed, and when it heals it demotes, names
every acknowledged-but-lost statement, and rejoins as a follower that
converges byte-identically — all of which the history auditor certifies
from the outside.
"""

import os

import pytest

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.db.storage import read_wal_records
from repro.errors import (
    ChannelError,
    FederationError,
    LeaseError,
    ReproError,
)
from repro.federation import (
    FaultyChannel,
    FollowerNode,
    MembershipService,
    PrimaryNode,
    ReplicationGroup,
    Shipment,
    WriteHistoryAuditor,
    disk_shipments,
    payload_digest,
)
from repro.sim import group as sim
from repro.sources import VirtualClock
from tests.db.test_storage_epoch import segment_epoch


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _reference(rows):
    database = _database()
    for row_id, value in rows:
        database.execute("INSERT INTO t VALUES (?, ?)", [row_id, value])
    return database


class TestMembershipService:
    def test_epochs_are_monotonic(self):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=1.0)
        first = membership.elect("alpha")
        timeline.advance(2.0)
        second = membership.elect("bravo")
        assert (first.epoch, second.epoch) == (1, 2)
        assert [entry[0] for entry in membership.epoch_log] == [1, 2]

    def test_election_refused_while_another_lease_is_live(self):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=5.0)
        membership.elect("alpha")
        with pytest.raises(LeaseError) as caught:
            membership.elect("bravo")
        assert caught.value.kind == "lease_live"
        assert caught.value.holder == "alpha"
        assert membership.epoch == 1  # the refused bid burned no epoch

    def test_holder_may_reelect_itself(self):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=5.0)
        membership.elect("alpha")
        lease = membership.elect("alpha")
        assert lease.epoch == 2

    def test_renewal_extends_without_bumping_the_epoch(self):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=2.0)
        lease = membership.elect("alpha")
        timeline.advance(1.5)
        renewed = membership.renew(lease)
        assert renewed.epoch == lease.epoch == membership.epoch
        assert renewed.expires_at == pytest.approx(3.5)

    def test_stale_epoch_renewal_is_fenced(self):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=1.0)
        old = membership.elect("alpha")
        timeline.advance(2.0)
        membership.elect("bravo")
        with pytest.raises(LeaseError) as caught:
            membership.renew(old)
        assert caught.value.kind == "stale_epoch"
        assert caught.value.current_epoch == 2

    def test_lease_timeout_must_be_positive(self):
        with pytest.raises(ValueError) as caught:
            MembershipService(VirtualClock(), lease_timeout=0.0)
        assert isinstance(caught.value, ReproError)
        assert (caught.value.what, caught.value.value) == \
            ("lease_timeout", 0.0)


@pytest.fixture
def leased(tmp_path):
    timeline = VirtualClock()
    membership = MembershipService(timeline, lease_timeout=2.0)
    auditor = WriteHistoryAuditor()
    primary = PrimaryNode("alpha", str(tmp_path / "alpha"), _database(),
                          timeline=timeline, membership=membership,
                          auditor=auditor)
    return primary, membership, auditor, timeline


class TestLeasedPrimary:
    def test_construction_elects_and_stamps_the_wal(self, leased):
        primary, membership, __, ___ = leased
        assert primary.epoch == membership.epoch == 1
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        primary.wal.flush()
        assert segment_epoch(primary.wal_path) == 1

    def test_acknowledged_writes_reach_the_auditor(self, leased):
        primary, __, auditor, ___ = leased
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        assert [(ack.generation, ack.index) for ack in auditor.acks] \
            == [(0, 0), (0, 1)]
        assert primary.acked == {(0, 0), (0, 1)}

    def test_expired_lease_renews_transparently(self, leased):
        primary, membership, __, timeline = leased
        timeline.advance(3.0)  # past the 2.0 timeout
        assert membership.lease_expired()
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert membership.lease_live()
        assert primary.writes_refused == 0

    def test_expired_lease_with_dead_channel_refuses_the_write(
            self, tmp_path):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=2.0)
        channel = FaultyChannel(timeline, name="alpha-net", seed=1)
        channel.partition(2.0, 50.0)
        primary = PrimaryNode("alpha", str(tmp_path / "alpha"),
                              _database(), timeline=timeline,
                              membership=membership, channel=channel)
        timeline.advance(3.0)
        with pytest.raises(LeaseError) as caught:
            primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert caught.value.kind == "expired"
        assert primary.writes_refused == 1
        # Refused means refused: nothing was logged, nothing acked.
        assert primary.database.execute("SELECT * FROM t").rows == []
        assert primary.acked == set()

    def test_lease_dying_in_flight_logs_but_never_acks(self, tmp_path):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=1.0)
        channel = FaultyChannel(timeline, name="alpha-net", seed=1)
        channel.partition(1.0, 50.0)
        primary = PrimaryNode("alpha", str(tmp_path / "alpha"),
                              _database(), timeline=timeline,
                              membership=membership, channel=channel,
                              ack_cost=0.2)
        timeline.advance(0.9)  # lease still live when the write starts
        with pytest.raises(LeaseError) as caught:
            primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert "UNACKNOWLEDGED" in str(caught.value)
        # The statement is durably logged...
        primary.wal.flush()
        records, __ = read_wal_records(primary.wal_path)
        assert len(records) == 1
        # ...but the promise was never made.
        assert primary.acked == set()

    def test_shipments_carry_the_epoch_claim(self, leased):
        primary, __, ___, ____ = leased
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        primary.rotate()
        shipments = primary.ship()
        assert shipments and all(s.epoch == 1 for s in shipments)
        sealed = shipments[0]
        (suffix, __) = primary.ship(
            {0: (len(sealed.payload.encode("utf-8")), sealed.digest)})
        assert suffix.start > 0 and suffix.epoch == 1

    def test_stale_epoch_renewal_marks_the_observed_epoch(self, tmp_path):
        timeline = VirtualClock()
        membership = MembershipService(timeline, lease_timeout=1.0)
        primary = PrimaryNode("alpha", str(tmp_path / "alpha"),
                              _database(), timeline=timeline,
                              membership=membership)
        timeline.advance(2.0)
        membership.elect("bravo")  # usurped while expired
        with pytest.raises(LeaseError) as caught:
            primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert caught.value.kind == "expired"
        assert primary.observed_epoch == 2


class TestFencing:
    @pytest.fixture
    def follower(self, tmp_path):
        timeline = VirtualClock()
        return FollowerNode("bravo", str(tmp_path / "bravo"),
                            _database(), timeline=timeline)

    def _shipment(self, epoch):
        payload = ""
        return Shipment(0, payload, False, payload_digest(payload), epoch)

    def test_stale_epoch_shipment_is_fenced(self, follower):
        follower.observe_epoch(2)
        with pytest.raises(FederationError, match="fenced"):
            follower.apply_shipment(self._shipment(1))
        assert follower.shipments_fenced == 1
        assert "epoch 1" in follower.last_fence
        # Fencing is not an integrity rejection: distinct books.
        assert follower.rejected_shipments == 0
        assert not os.path.exists(follower.wal_path)

    def test_claimless_shipments_are_never_fenced(self, follower):
        follower.observe_epoch(5)
        assert follower.apply_shipment(self._shipment(None)) == 0
        assert follower.shipments_fenced == 0

    def test_follower_adopts_higher_epochs(self, follower):
        follower.apply_shipment(self._shipment(3))
        assert follower.epoch == 3
        follower.observe_epoch(2)  # lower: ignored
        assert follower.epoch == 3


class TestZombieFailover:
    def test_zombie_promotion_requires_an_expired_lease(self, tmp_path):
        group, __, ___, ____, _____ = sim.build(str(tmp_path))
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.sync()
        with pytest.raises(FederationError, match="lease is still live"):
            group.promote()

    def test_split_brain_is_fenced_demoted_and_audited(self, tmp_path):
        group, membership, auditor, timeline, channels = \
            sim.build(str(tmp_path))
        alpha_net = channels["alpha"]
        zombie = group.primary
        rows = [(1, "a"), (2, "b"), (3, "c")]
        for row_id, value in rows:
            zombie.execute("INSERT INTO t VALUES (?, ?)", [row_id, value])
        group.sync()

        # The partition opens: the zombie can still reach its own disk
        # (and acks one more write under its live lease) but nothing
        # crosses the network in either direction any more.
        alpha_net.partition(timeline.now(), timeline.now() + 100.0)
        zombie.execute("INSERT INTO t VALUES (4, 'lost')", [])
        assert (0, 3) in zombie.acked

        # Lease expires behind the partition; the group fails over.
        timeline.advance(3.0)
        with pytest.raises(LeaseError):
            zombie.execute("INSERT INTO t VALUES (5, 'refused')", [])
        promoted = group.promote()
        assert promoted.name == "bravo" and promoted.epoch == 2
        promoted.execute("INSERT INTO t VALUES (5, 'epoch2')", [])
        group.sync()

        # Heal: the zombie's shipments now claim a deposed epoch and
        # every follower fences them.
        survivor = group.followers[0]
        fenced_before = survivor.shipments_fenced
        survivor.catch_up(zombie)
        assert survivor.shipments_fenced > fenced_before

        # The zombie demotes, owns its divergence, and rejoins.
        rejoined, report = zombie.demote(promoted, database=_database())
        assert zombie.demoted
        assert [(entry.generation, entry.index, entry.acknowledged)
                for entry in report.statements] == [(0, 3, True)]
        assert report.acknowledged_lost[0].sql == \
            "INSERT INTO t VALUES (4, 'lost')"
        assert report.quarantined and all(
            path.endswith(".diverged") for path in report.quarantined)
        with pytest.raises(FederationError, match="demoted"):
            zombie.execute("INSERT INTO t VALUES (9, 'x')", [])
        rejoined.catch_up(promoted)
        assert databases_equal(
            rejoined.database,
            _reference(rows + [(5, "epoch2")]))

        # The outside judge agrees: one writer per epoch, the lost ack
        # was unreplicated and reported, survivors are byte-identical.
        verdict = auditor.certify(promoted,
                                  [group.followers[0], rejoined])
        assert verdict.ok, verdict.violations
        assert [ack.position() for ack in verdict.lost_unreplicated] \
            == [(0, 3)]
        assert verdict.epochs_with_acks == {1: {"alpha"}, 2: {"bravo"}}

    def test_unreported_loss_is_a_violation(self, tmp_path):
        group, __, auditor, timeline, channels = sim.build(str(tmp_path))
        alpha_net = channels["alpha"]
        zombie = group.primary
        zombie.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.sync()
        alpha_net.partition(timeline.now(), timeline.now() + 100.0)
        zombie.execute("INSERT INTO t VALUES (2, 'lost')", [])
        timeline.advance(3.0)
        promoted = group.promote()
        promoted.execute("INSERT INTO t VALUES (2, 'epoch2')", [])
        group.sync()
        # No demotion, no DivergenceReport: the auditor must flag the
        # acknowledged-but-vanished write instead of shrugging.
        verdict = auditor.certify(promoted, group.followers)
        assert not verdict.ok
        assert any("never reported" in violation
                   for violation in verdict.violations)

    def test_demote_refuses_a_non_newer_successor(self, tmp_path):
        group, __, ___, ____, _____ = sim.build(str(tmp_path))
        zombie = group.primary
        zombie.execute("INSERT INTO t VALUES (1, 'a')", [])
        with pytest.raises(FederationError, match="not newer"):
            zombie.demote(zombie, database=_database())

    def test_demotion_sets_aside_a_seal_the_successor_never_made(
            self, tmp_path):
        """The zombie sealed generation 0 after the last round; the
        successor holds it active.  Kept, the seal would sit beside the
        shipped active file and every later round would read it
        twice."""
        group, __, auditor, timeline, ___ = sim.build(str(tmp_path))
        zombie = group.primary
        zombie.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.sync()
        zombie.rotate()
        timeline.advance(3.0)
        promoted = group.promote()
        rejoined, report = zombie.demote(promoted, database=_database())
        assert report.statements == []  # every record matched
        assert sorted(os.path.basename(path) for path in report.quarantined) \
            == ["wal.jsonl.000000.diverged", "wal.jsonl.diverged"]
        promoted.execute("INSERT INTO t VALUES (2, 'b')", [])
        rejoined.catch_up(promoted)
        assert [shipment.generation
                for shipment in disk_shipments(rejoined.wal_path)] == [0]
        verdict = auditor.certify(promoted, [rejoined])
        assert verdict.ok, verdict.violations


class TestAudit:
    def test_an_empty_active_file_counts_as_absent(self, tmp_path):
        """Rotating an empty log leaves a 0-byte active file, which
        ships as nothing; the followers hold no active file at all."""
        group, __, auditor, ___, ____ = sim.build(str(tmp_path))
        group.primary.rotate()
        group.sync()
        assert os.path.getsize(group.primary.wal_path) == 0
        verdict = auditor.certify(group.primary, group.followers)
        assert verdict.ok, verdict.violations

"""Property-based partition/failover/heal schedules.

Hypothesis drives arbitrary interleavings of writes, catch-up rounds,
clock advances, partition windows, and failover attempts against a
leased three-node group, then heals everything, demotes every zombie,
and lets the :class:`WriteHistoryAuditor` judge the wreckage.  The
invariants must hold for *every* schedule:

- no acknowledged-and-replicated write is ever lost;
- at most one node acknowledges writes per epoch;
- every acknowledged-but-lost write is named by a DivergenceReport;
- all survivors converge byte-identically after the final heal.

The suites are derandomised (a fixed example set per source revision)
and a ``REPRO_TEST_SEED`` sweep walks fresh schedules per CI seed, so a
failure is always a replayable ``(seed, events)`` pair.  One such pair
is pinned: the double failover that used to crown a follower missing a
replicated write.

Plus focused interleaving tests for the narrowest race: a lease
expiring while an ``execute`` is already in flight.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.storage import read_wal_records
from repro.errors import FederationError, LeaseError
from repro.federation import (
    FaultyChannel,
    FollowerNode,
    MembershipService,
    PrimaryNode,
    ReplicationGroup,
    WriteHistoryAuditor,
)
from repro.sources import VirtualClock
from tests.concurrency.scheduler import harness_seed

LEASE_TIMEOUT = 2.0


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _build(root, seed, drop_rate=0.0):
    timeline = VirtualClock()
    membership = MembershipService(timeline, lease_timeout=LEASE_TIMEOUT)
    auditor = WriteHistoryAuditor()
    channels = {
        name: FaultyChannel(timeline, name=f"{name}-net", seed=seed,
                            drop_rate=drop_rate)
        for name in ("alpha", "bravo", "charlie")
    }
    primary = PrimaryNode("alpha", f"{root}/alpha", _database(),
                          timeline=timeline, membership=membership,
                          channel=channels["alpha"], auditor=auditor)
    followers = [
        FollowerNode(name, f"{root}/{name}", _database(),
                     timeline=timeline, channel=channels[name],
                     auditor=auditor)
        for name in ("bravo", "charlie")
    ]
    group = ReplicationGroup(primary, followers, membership=membership,
                             promotion_window=60.0)
    return group, membership, auditor, timeline, channels


def _run_schedule(root, seed, events):
    group, membership, auditor, timeline, channels = _build(
        root, seed, drop_rate=0.05)
    zombies = []
    sequence = 0
    for event in events:
        kind = event[0]
        if kind == "write":
            sequence += 1
            try:
                group.primary.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    [sequence, f"v{sequence}"])
            except FederationError:
                pass  # refusal is an availability cost, never a fork
        elif kind == "sync":
            for follower in group.followers:
                follower.catch_up(group.primary)
        elif kind == "advance":
            timeline.advance(event[1])
        elif kind == "partition":
            now = timeline.now()
            for channel in channels.values():
                channel.partition(now, now + event[1])
        elif kind == "failover":
            if membership.lease_expired() and group.followers:
                old = group.primary
                try:
                    group.promote()
                except FederationError:
                    continue
                if old.alive:
                    zombies.append(old)
    # Heal everything: every scheduled window is behind us now.
    timeline.advance(1000.0)
    for zombie in zombies:
        if (zombie.epoch is not None and group.primary.epoch is not None
                and group.primary.epoch > zombie.epoch):
            rejoined, __ = zombie.demote(group.primary,
                                         database=_database())
            group.followers.append(rejoined)
    for __ in range(25):
        for follower in group.followers:
            follower.catch_up(group.primary)
    return group, auditor


@st.composite
def schedules(draw):
    return draw(st.lists(
        st.one_of(
            st.just(("write",)),
            st.just(("sync",)),
            st.just(("failover",)),
            st.tuples(st.just("advance"),
                      st.floats(0.1, 4.0, allow_nan=False)),
            st.tuples(st.just("partition"),
                      st.floats(1.0, 12.0, allow_nan=False)),
        ),
        min_size=6, max_size=40))


def _certified(root, seed, events):
    group, auditor = _run_schedule(root, seed, events)
    return auditor.certify(group.primary, group.followers)


class TestDoubleFailover:
    """Two failovers in a row: the second winner must hold every write
    the first winner held, or nobody is crowned."""

    #: Found by the property suite at a 5 % drop rate: charlie's catch-up
    #: round is dropped, bravo wins the first failover holding the
    #: write, and the second failover has only charlie to offer.
    LOST_WRITE = [("write",), ("sync",), ("advance", 2.0), ("failover",),
                  ("advance", 2.0), ("failover",)]

    def test_the_pinned_double_failover_loses_nothing(self):
        with tempfile.TemporaryDirectory() as root:
            verdict = _certified(root, 8, self.LOST_WRITE)
            assert verdict.ok, verdict.violations

    def test_a_follower_missing_a_replicated_write_is_refused(self):
        with tempfile.TemporaryDirectory() as root:
            group, membership, auditor, timeline, __ = _build(root, seed=0)
            bravo, charlie = group.followers
            group.primary.execute("INSERT INTO t VALUES (1, 'v1')", [])
            bravo.catch_up(group.primary)  # charlie never hears of it
            timeline.advance(LEASE_TIMEOUT)
            assert group.promote().name == "bravo"
            timeline.advance(LEASE_TIMEOUT)
            with pytest.raises(FederationError) as caught:
                group.promote()
            refusal = caught.value
            assert (refusal.node, refusal.epoch, refusal.generation,
                    refusal.index) == ("charlie", 1, 0, 0)
            assert "charlie" in str(refusal) and "index 0" in str(refusal)
            assert group.primary.name == "bravo"  # nobody was crowned
            assert membership.epoch == 2          # and no epoch was spent
            # Once charlie holds the write it is a fit successor.
            charlie.catch_up(group.primary)
            assert group.promote().name == "charlie"
            assert auditor.certify(group.primary).ok

    def test_a_dead_primarys_disk_makes_a_lagging_follower_whole(self):
        """The refusal is about what the candidate holds *after* the
        salvage: a cleanly dead primary's directory is still readable."""
        with tempfile.TemporaryDirectory() as root:
            group, __, auditor, timeline, __ = _build(root, seed=0)
            bravo, charlie = group.followers
            group.primary.execute("INSERT INTO t VALUES (1, 'v1')", [])
            bravo.catch_up(group.primary)
            for successor in ("bravo", "charlie"):
                group.fail_primary()
                timeline.advance(LEASE_TIMEOUT)  # the corpse's lease
                assert group.promote().name == successor
            assert auditor.certify(group.primary).ok


class TestPartitionSchedules:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(events=schedules(), seed=st.integers(0, 2**16))
    def test_auditor_invariants_hold_for_arbitrary_schedules(
            self, events, seed):
        with tempfile.TemporaryDirectory() as root:
            group, auditor = _run_schedule(root, seed, events)
            verdict = auditor.certify(group.primary, group.followers)
            assert verdict.ok, verdict.violations

    def test_seeded_sweep_holds_the_invariants(self):
        """Fresh schedules per ``REPRO_TEST_SEED``, from the same event
        alphabet the strategy draws from."""
        for sweep in range(12):
            rng = random.Random(
                ("partition-sweep", harness_seed(), sweep).__repr__())
            events = [rng.choice((
                ("write",), ("sync",), ("failover",),
                ("advance", round(rng.uniform(0.1, 4.0), 3)),
                ("partition", round(rng.uniform(1.0, 12.0), 3)),
            )) for __ in range(rng.randint(6, 40))]
            seed = rng.randrange(2**16)
            with tempfile.TemporaryDirectory() as root:
                verdict = _certified(root, seed, events)
                assert verdict.ok, (seed, events, verdict.violations)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(events=schedules(), seed=st.integers(0, 2**16))
    def test_schedules_replay_deterministically(self, events, seed):
        verdicts = []
        for __ in range(2):
            with tempfile.TemporaryDirectory() as root:
                group, auditor = _run_schedule(root, seed, events)
                verdict = auditor.certify(group.primary, group.followers)
                verdicts.append(
                    (verdict.ok, verdict.acknowledgments,
                     sorted(verdict.epochs_with_acks),
                     [ack.position()
                      for ack in verdict.lost_unreplicated]))
        assert verdicts[0] == verdicts[1]


class TestLeaseExpiryRacingExecute:
    """The in-flight race, pinned at exact virtual instants: the lease
    dies between the WAL append and the acknowledgment."""

    def _primary(self, root, *, ack_cost, partition=None):
        timeline = VirtualClock()
        membership = MembershipService(timeline,
                                       lease_timeout=LEASE_TIMEOUT)
        channel = FaultyChannel(timeline, name="race-net", seed=0)
        if partition is not None:
            channel.partition(*partition)
        primary = PrimaryNode("alpha", f"{root}/alpha", _database(),
                              timeline=timeline, membership=membership,
                              channel=channel, ack_cost=ack_cost)
        return primary, timeline

    def test_renewal_mid_flight_saves_the_ack(self):
        with tempfile.TemporaryDirectory() as root:
            primary, timeline = self._primary(root, ack_cost=0.5)
            timeline.advance(1.8)  # 0.2s of lease left, ack costs 0.5
            primary.execute("INSERT INTO t VALUES (1, 'a')", [])
            assert (0, 0) in primary.acked
            assert primary.lease.live(timeline.now())

    def test_partitioned_renewal_mid_flight_never_acks(self):
        with tempfile.TemporaryDirectory() as root:
            primary, timeline = self._primary(
                root, ack_cost=0.5, partition=(1.9, 60.0))
            timeline.advance(1.8)
            with pytest.raises(LeaseError) as caught:
                primary.execute("INSERT INTO t VALUES (1, 'a')", [])
            assert caught.value.kind == "expired"
            assert primary.acked == set()
            # Logged locally — demotion will name it as unacknowledged.
            primary.wal.flush()
            records, __ = read_wal_records(primary.wal_path)
            assert len(records) == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(head_start=st.floats(0.0, 1.99, allow_nan=False),
           ack_cost=st.floats(0.0, 1.0, allow_nan=False))
    def test_every_interleaving_acks_or_refuses_never_both(
            self, head_start, ack_cost):
        with tempfile.TemporaryDirectory() as root:
            primary, timeline = self._primary(
                root, ack_cost=ack_cost, partition=(1.99, 1000.0))
            timeline.advance(head_start)
            try:
                primary.execute("INSERT INTO t VALUES (1, 'a')", [])
                acked = True
            except LeaseError:
                acked = False
            assert acked == ((0, 0) in primary.acked)
            if acked:
                # An acknowledged write is always durably logged.
                primary.wal.flush()
                records, __ = read_wal_records(primary.wal_path)
                assert len(records) == 1

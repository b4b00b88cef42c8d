"""Property-based replication schedules over the whole action alphabet.

Hypothesis draws schedules of writes, catch-up rounds, syncs, clock
advances, per-node partition windows, rotations, checkpoints, torn
crashes, failover attempts, byte flips and cuts (in a WAL, an image or
a shipment) and scrubs, and :func:`repro.sim.group.run` applies each to
a leased three-node group, heals it, and judges the wreckage.  After
every flip or cut, scrub must call the damaged file damaged exactly
when replay refuses it, and the verdict must certify the schedule:

- no acknowledged-and-replicated write is ever lost;
- at most one node acknowledges writes per epoch;
- every acknowledged-but-lost write is named by a DivergenceReport;
- all survivors converge byte-identically, and every follower's
  database equals the primary's;
- the heal's scrub finds nothing on a follower no step damaged;
- no step raises anything but a ``ReproError``, and the heal none.

A heal may crown nobody only when its ``FederationError`` names a
replicated write (``epoch`` / ``generation`` / ``index``) that
``disk_history`` finds on no node's directory: no verified copy of it
is left anywhere.

The suites are derandomised (a fixed example set per source revision)
and a ``REPRO_TEST_SEED`` sweep walks fresh schedules per CI seed;
hypothesis shrinks a failure to a short schedule that replays as
``run(schedule, seed=..., drop_rate=...)``.  One such schedule is
pinned: the double failover that used to crown a follower missing a
replicated write.

Plus focused interleaving tests for the narrowest race: a lease
expiring while an ``execute`` is already in flight.
"""

import tempfile

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.db import Database
from repro.db.storage import read_wal_records
from repro.errors import FederationError, LeaseError
from repro.federation import FaultyChannel, MembershipService, PrimaryNode
from repro.sim import group as sim
from repro.sources import VirtualClock
from tests.concurrency.scheduler import harness_seed

LEASE_TIMEOUT = 2.0

OFFSETS = st.integers(-2**16, 2**16)
MASKS = st.sampled_from((0x01, 0x02, 0x04, 0x20, 0x80))
LOAD = st.one_of(
    st.just(("write",)),
    st.just(("sync",)),
    st.just(("failover",)),
    st.just(("rotate",)),
    st.just(("checkpoint",)),
    st.tuples(st.just("catch_up"), st.sampled_from(sim.NODES)),
    st.tuples(st.just("advance"), st.floats(0.1, 4.0, allow_nan=False)),
    st.tuples(st.just("partition"), st.floats(1.0, 12.0, allow_nan=False),
              st.sampled_from(sim.NODES + ("all",))),
    st.tuples(st.just("crash"), st.integers(0, 120)),
)
DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.sampled_from(sim.NODES),
              st.sampled_from(("wal", "image", "shipment")), OFFSETS, MASKS),
    st.tuples(st.just("cut"), st.sampled_from(sim.NODES),
              st.sampled_from(("wal", "image")), OFFSETS),
    st.tuples(st.just("scrub"), st.sampled_from(sim.NODES)),
)
SCHEDULES = st.lists(st.one_of(LOAD, DAMAGE), min_size=6, max_size=40)
SEEDS = st.integers(0, 2**16)
DROP_RATES = st.sampled_from((0.0, 0.05))


def _judge(record):
    """The certify property's verdict on one run."""
    assert not record.disagreements, record.disagreements
    if not record.group.primary.alive and record.group.followers:
        # the heal had a follower to crown, and crowned nobody
        error = record.heal_error
        assert isinstance(error, FederationError), error
        assert error.generation is not None and error.index is not None
        assert all(len(history.get(error.generation, ([],))[0])
                   <= error.index for history in record.disks.values()), (
            error, record.disks)
        return
    assert record.verdict.ok, record.verdict.violations
    assert record.heal_error is None, record.heal_error


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


class TestDoubleFailover:
    """Two failovers in a row: the second winner must hold every write
    the first winner held, or nobody is crowned."""

    #: Found by the property suite at a 5 % drop rate: charlie's catch-up
    #: round is dropped, bravo wins the first failover holding the
    #: write, and the second failover has only charlie to offer.
    LOST_WRITE = [("write",), ("catch_up", "bravo"), ("catch_up", "charlie"),
                  ("advance", 2.0), ("failover",), ("advance", 2.0),
                  ("failover",)]

    def test_the_pinned_double_failover_loses_nothing(self):
        record = sim.run(self.LOST_WRITE, seed=8, drop_rate=0.05)
        assert record.verdict.ok, record.verdict.violations
        assert [promotion[0] for promotion in record.promotions] == ["bravo"]
        assert isinstance(record.steps[-1][1], FederationError)

    def test_a_follower_missing_a_replicated_write_is_refused(self):
        with tempfile.TemporaryDirectory() as root:
            group, membership, auditor, timeline, __ = sim.build(root)
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
            group, __, auditor, timeline, __ = sim.build(root)
            bravo, charlie = group.followers
            group.primary.execute("INSERT INTO t VALUES (1, 'v1')", [])
            bravo.catch_up(group.primary)
            for successor in ("bravo", "charlie"):
                group.fail_primary()
                timeline.advance(LEASE_TIMEOUT)  # the corpse's lease
                assert group.promote().name == successor
            assert auditor.certify(group.primary).ok


class TestPartitionSchedules:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schedule=SCHEDULES, seed=SEEDS, drop_rate=DROP_RATES)
    def test_auditor_invariants_hold_for_arbitrary_schedules(
            self, schedule, seed, drop_rate):
        _judge(sim.run(schedule, seed=seed, drop_rate=drop_rate))

    @seed(f"partition-sweep {harness_seed()}")
    @settings(max_examples=12, deadline=None, database=None)
    @given(schedule=SCHEDULES, seed=SEEDS, drop_rate=DROP_RATES)
    def test_seeded_sweep_holds_the_invariants(self, schedule, seed,
                                               drop_rate):
        """Fresh schedules per ``REPRO_TEST_SEED``, from the same
        alphabet the derandomised property draws from."""
        _judge(sim.run(schedule, seed=seed, drop_rate=drop_rate))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(schedule=SCHEDULES, seed=SEEDS, drop_rate=DROP_RATES)
    def test_schedules_replay_deterministically(self, schedule, seed,
                                                drop_rate):
        runs = [sim.run(schedule, seed=seed, drop_rate=drop_rate)
                for __ in range(2)]
        assert len({(tuple(type(outcome).__name__
                           for __, outcome in record.steps),
                     tuple(record.promotions), tuple(record.fences),
                     record.verdict.summary(),
                     tuple(ack.position()
                           for ack in record.verdict.lost_unreplicated))
                    for record in runs}) == 1


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
            assert not primary.acked
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

"""The replication network seam: perfect by default, hostile on demand.

A ``ReplicationChannel`` must be invisible when healthy; a
``FaultyChannel`` must lose rounds loudly (structured ``ChannelError``,
correct direction), and its legal-but-hostile deliveries (duplication,
reordering) must be absorbed by the follower's ledger and catch-up
ordering without ever double-applying a statement.
"""

import pytest

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.errors import ChannelError, ReproError
from repro.federation import (
    FaultyChannel,
    FollowerNode,
    MembershipService,
    PrimaryNode,
    ReplicationChannel,
)
from repro.sources import VirtualClock


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


@pytest.fixture
def pair(tmp_path):
    timeline = VirtualClock()
    primary = PrimaryNode("alpha", str(tmp_path / "alpha"), _database(),
                          timeline=timeline)
    return primary, timeline, tmp_path


def _follower(tmp_path, timeline, channel):
    return FollowerNode("bravo", str(tmp_path / "bravo"), _database(),
                        timeline=timeline, channel=channel)


class TestDirectChannel:
    def test_passthrough_is_invisible(self, pair):
        primary, timeline, tmp_path = pair
        follower = _follower(tmp_path, timeline, ReplicationChannel())
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert follower.catch_up(primary) == 1
        assert follower.channel.stats.rounds == 1


class TestFaultyChannel:
    def test_seeded_drops_are_structured_and_counted(self, pair):
        primary, timeline, tmp_path = pair
        channel = FaultyChannel(timeline, name="lossy", seed=7,
                                drop_rate=1.0)
        follower = _follower(tmp_path, timeline, channel)
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        before = follower.last_catchup
        assert follower.catch_up(primary) == 0
        assert channel.stats.dropped == 1
        # A lost round never resets the staleness clock.
        assert follower.last_catchup == before
        with pytest.raises(ChannelError) as caught:
            channel.ship(primary)
        assert caught.value.kind == "dropped"
        assert caught.value.direction == "request"

    def test_delay_advances_the_virtual_clock(self, pair):
        primary, timeline, tmp_path = pair
        channel = FaultyChannel(timeline, name="slow", seed=0, delay=0.5)
        follower = _follower(tmp_path, timeline, channel)
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        start = timeline.now()
        follower.catch_up(primary)
        assert timeline.now() >= start + 0.5
        assert channel.stats.injected_delay == pytest.approx(0.5)

    def test_duplication_and_reordering_never_double_apply(self, pair):
        primary, timeline, tmp_path = pair
        channel = FaultyChannel(timeline, name="hostile", seed=11,
                                dup_rate=1.0, reorder_rate=1.0)
        follower = _follower(tmp_path, timeline, channel)
        rows = [(index, f"v{index}") for index in range(6)]
        for row_id, value in rows:
            primary.execute("INSERT INTO t VALUES (?, ?)",
                            [row_id, value])
            primary.rotate()
        for __ in range(4):
            follower.catch_up(primary)
        assert channel.stats.duplicated > 0
        assert follower.applied_total() == len(rows)
        assert databases_equal(follower.database, primary.database)

    def test_request_partition_loses_the_round(self, pair):
        primary, timeline, tmp_path = pair
        channel = FaultyChannel(timeline, name="cut", seed=0)
        channel.partition(0.0, 10.0, direction="request")
        with pytest.raises(ChannelError) as caught:
            channel.ship(primary)
        assert caught.value.kind == "partitioned"
        assert caught.value.direction == "request"
        assert channel.faults.open_tags()
        timeline.advance(10.0)  # half-open window: heals at end
        assert not channel.faults.open_tags()
        primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert len(channel.ship(primary)) == 1

    def test_response_partition_renews_remotely_but_refuses_locally(
            self, pair):
        # The asymmetric horror: the membership service renews the
        # lease, but the holder never hears back — it must refuse.
        __, timeline, ___ = pair
        membership = MembershipService(timeline, lease_timeout=2.0)
        lease = membership.elect("alpha")
        channel = FaultyChannel(timeline, name="oneway", seed=0)
        channel.partition(0.0, 10.0, direction="response")
        timeline.advance(1.0)
        with pytest.raises(ChannelError) as caught:
            channel.renew(membership, lease)
        assert caught.value.direction == "response"
        # State advanced remotely even though the caller saw a failure.
        assert membership.lease.expires_at == pytest.approx(3.0)

    def test_window_validation(self, pair):
        __, timeline, ___ = pair
        channel = FaultyChannel(timeline, name="wan")
        with pytest.raises(ValueError) as caught:
            channel.partition(5.0, 5.0)
        assert isinstance(caught.value, ReproError)
        assert caught.value.what == "window" and "wan" in caught.value.where
        with pytest.raises(ValueError) as caught:
            channel.partition(0.0, 1.0, direction="sideways")
        assert isinstance(caught.value, ReproError)
        assert (caught.value.what, caught.value.where, caught.value.value) \
            == ("direction", "wan", "sideways")

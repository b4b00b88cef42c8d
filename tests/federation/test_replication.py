"""WAL shipping, the per-generation apply ledger, failover, and the
end-to-end integrity protocol.

The invariants under test, in the order of operational pain they
prevent: no statement is ever applied twice (re-shipping a grown
segment applies only the suffix), a torn tail dedups (dropped now,
applied exactly once when complete), staleness bounds are honest,
promotion picks the most-caught-up follower and continues the dead
primary's generation numbering — a follower is shipped only what it
has not verified — and corruption never crosses a node boundary:
tampered shipments are rejected before a byte lands, a catch-up round
quarantines and replaces rotted or diverged segments, and a follower
whose ledger fails verification is refused promotion.
"""

import hashlib
import os
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.federation import replication

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.db.storage import checksum_line, parse_wal_payload
from repro.errors import FederationError, StorageError
from repro.federation.replication import file_digest
from repro.federation import (
    FollowerNode,
    PrimaryNode,
    ReplicationChannel,
    ReplicationGroup,
    Shipment,
    disk_shipments,
    payload_digest,
    sealed_digests,
)
from repro.sim import group as sim
from repro.sources import VirtualClock


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _reference(rows):
    database = _database()
    for row_id, value in rows:
        database.execute("INSERT INTO t VALUES (?, ?)", [row_id, value])
    return database


@pytest.fixture
def cluster(tmp_path):
    timeline = VirtualClock()
    primary = PrimaryNode("alpha", str(tmp_path / "alpha"), _database(),
                          timeline=timeline)
    followers = [
        FollowerNode(name, str(tmp_path / name), _database(),
                     timeline=timeline)
        for name in ("bravo", "charlie")
    ]
    return ReplicationGroup(primary, followers), timeline


class TestShipping:
    def test_catch_up_replicates_the_database(self, cluster):
        group, __ = cluster
        rows = [(index, f"v{index}") for index in range(8)]
        for row_id, value in rows:
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [row_id, value])
        group.sync()
        for follower in group.followers:
            assert databases_equal(follower.database, _reference(rows))

    def test_reshipping_a_grown_segment_applies_only_the_suffix(
            self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        assert follower.catch_up(group.primary) == 1
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        # The same (grown) active segment ships again: the ledger must
        # skip the prefix — replaying it would hit the primary key.
        assert follower.catch_up(group.primary) == 1
        assert follower.catch_up(group.primary) == 0

    def test_a_suffix_applies_once_and_only_where_the_prefix_ends(
            self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        follower.catch_up(group.primary)
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        (suffix,) = group.primary.ship(follower._request())
        assert suffix.start == os.path.getsize(follower.wal_path)
        assert suffix.payload.count("\n") == 1
        assert follower.apply_shipment(suffix) == 1
        assert follower.apply_shipment(suffix) == 0      # a duplicate
        early = replace(suffix, start=suffix.start - 1,
                        payload="\n" + suffix.payload + "x")
        with pytest.raises(FederationError, match="starts at byte"):
            follower.apply_shipment(early)
        assert follower.rejected_shipments == 1
        assert databases_equal(follower.database,
                               _reference([(1, "a"), (2, "b")]))

    def test_replication_across_a_rotation_boundary(self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        follower.catch_up(group.primary)
        group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        applied = follower.catch_up(group.primary)
        assert applied == 1
        assert databases_equal(follower.database,
                               _reference([(1, "a"), (2, "b")]))
        # Both generations are in the ledger now.
        assert set(follower.applied) == {0, 1}

    def test_torn_tail_is_dropped_then_applied_exactly_once(
            self, cluster, tmp_path):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        shipments = group.primary.ship()
        active = shipments[-1]
        # The primary crashes mid-append: the follower receives the
        # active segment with its final record torn in half.
        cut = active.payload[: len(active.payload) - 12]
        torn = Shipment(active.generation, cut, active.sealed,
                        payload_digest(cut))
        assert follower.apply_shipment(torn) == 1  # first insert only
        assert databases_equal(follower.database, _reference([(1, "a")]))
        # The complete segment ships later: only the once-torn final
        # record applies — nothing is doubled.
        assert follower.apply_shipment(active) == 1
        assert databases_equal(follower.database,
                               _reference([(1, "a"), (2, "b")]))

    def test_staleness_bound_mirrors_cache_semantics(self, cluster):
        group, timeline = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        follower.catch_up(group.primary)
        bound = follower.staleness_bound()
        timeline.advance(4.0)
        assert follower.staleness_bound() == pytest.approx(bound + 4.0)
        follower.catch_up(group.primary)
        assert follower.staleness_bound() == 0.0


class TestFailover:
    def test_promote_refuses_while_primary_is_alive(self, cluster):
        group, __ = cluster
        with pytest.raises(FederationError):
            group.promote()

    def test_dead_primary_refuses_writes(self, cluster):
        group, __ = cluster
        group.fail_primary()
        with pytest.raises(FederationError):
            group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])

    def test_promotion_picks_the_most_caught_up_follower(self, cluster):
        group, timeline = cluster
        for index in range(6):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        group.followers[1].catch_up(group.primary)  # charlie is ahead
        group.fail_primary()
        promoted = group.promote()
        assert promoted.name == "charlie"
        assert group.primary is promoted
        assert [follower.name for follower in group.followers] == ["bravo"]

    def test_promotion_salvages_unshipped_statements_exactly_once(
            self, cluster):
        group, __ = cluster
        rows = [(index, f"v{index}") for index in range(10)]
        for row_id, value in rows[:4]:
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [row_id, value])
        group.sync()
        group.primary.rotate()
        for row_id, value in rows[4:]:
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [row_id, value])
        # The primary dies before anyone caught up on the new segment.
        group.fail_primary()
        promoted = group.promote()
        assert databases_equal(promoted.database, _reference(rows))
        assert group.last_promotion is not None
        assert group.last_promotion <= group.promotion_window

    def test_promoted_primary_continues_the_generation_sequence(
            self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        old_generation = group.primary.wal.generation
        group.fail_primary()
        promoted = group.promote()
        # Generation numbering survives the node swap: the shipped
        # $wal header seeds the new WriteAheadLog (bugfixes 1+2 are
        # load-bearing here — a headerless or garbled active segment
        # would restart at generation 0 and recovery would skew-skip).
        assert promoted.wal.generation == old_generation
        promoted.execute("INSERT INTO t VALUES (3, 'c')", [])
        assert databases_equal(
            promoted.database,
            _reference([(1, "a"), (2, "b"), (3, "c")]))

    def test_remaining_follower_catches_up_from_the_new_primary(
            self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.fail_primary()
        promoted = group.promote()
        promoted.execute("INSERT INTO t VALUES (2, 'b')", [])
        group.sync()
        assert databases_equal(group.followers[0].database,
                               _reference([(1, "a"), (2, "b")]))

    def test_promotion_without_followers_refuses(self, tmp_path):
        timeline = VirtualClock()
        primary = PrimaryNode("solo", str(tmp_path / "solo"), _database(),
                              timeline=timeline)
        group = ReplicationGroup(primary, [])
        group.fail_primary()
        with pytest.raises(FederationError):
            group.promote()


class TestReplicationEdgeCases:
    def test_staleness_bound_with_zero_shipments(self, cluster):
        group, timeline = cluster
        follower = group.followers[0]
        timeline.advance(3.0)
        assert follower.staleness_bound() == pytest.approx(3.0)
        # A catch-up against an idle primary ships nothing, but it IS a
        # complete round-trip: the staleness clock must still reset.
        assert follower.catch_up(group.primary) == 0
        assert follower.staleness_bound() == 0.0

    def test_promote_tie_break_is_roster_order(self, cluster):
        group, __ = cluster
        for index in range(4):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        group.sync()                   # both followers equally caught up
        assert (group.followers[0].applied_total()
                == group.followers[1].applied_total())
        group.fail_primary()
        promoted = group.promote()
        assert promoted.name == "bravo"    # roster order breaks the tie
        assert group.refused == []

    def test_segment_sealed_mid_catch_up_reships_only_the_suffix(
            self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        # The follower applies the active segment, then the primary
        # appends more and seals it: the sealed re-ship of the same
        # generation must apply only the records the ledger has not
        # seen, never the whole file again.
        follower.catch_up(group.primary)
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        group.primary.rotate()
        assert follower.catch_up(group.primary) == 1
        assert databases_equal(follower.database,
                               _reference([(1, "a"), (2, "b")]))
        assert follower.catch_up(group.primary) == 0

    def test_a_prefix_overwritten_by_the_next_generation_ships_whole(
            self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        follower.catch_up(group.primary)    # generation 0, as the active file
        verified = os.path.getsize(follower.wal_path)
        group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        # Generation 1 alone lands on the active file; even when it is
        # exactly as long as generation 0's prefix was, that prefix is
        # gone and must not be extended from those bytes.
        follower.apply_shipment(group.primary.ship()[-1])
        os.truncate(follower.wal_path, verified)
        follower.catch_up(group.primary)
        assert follower.verify_ledger() == []
        assert sealed_digests(follower.wal_path) == \
            sealed_digests(group.primary.wal_path)


class TestPurgedPredecessorRegression:
    """A purge deletes the segment the checkpoint sealed.  A follower
    that had applied only part of that generation never sees the rest:
    the next generation alone is refused — with the hole named — rather
    than applied over it (which lost the purged writes without a word),
    and the round ships the image that covers the hole instead."""

    @staticmethod
    def _run(schedule, name):
        record = sim.run(schedule)
        [follower] = [follower for follower in record.group.followers
                      if follower.name == name]
        return record, follower

    @staticmethod
    def _refused_then_healed(name, before, after):
        """*before* writes, *name* catching up after the first, a purge,
        *after* writes: the WAL alone is refused, the round heals."""
        with tempfile.TemporaryDirectory() as root:
            group, *__ = sim.build(root)
            primary = group.primary
            [follower] = [node for node in group.followers
                          if node.name == name]
            for row in range(before + after):
                if row == before:
                    primary.checkpoint(purge=True)
                primary.execute("INSERT INTO t VALUES (?, 'v')", [row])
                if row == 0 and name == "bravo":
                    follower.catch_up(primary)
            [wal] = [shipment for shipment in primary.ship()
                     if not shipment.image]
            with pytest.raises(FederationError) as caught:
                follower.apply_shipment(wal)
            follower.catch_up(primary)
            assert follower.image_generation == 1
            assert databases_equal(follower.database, primary.database)
            return caught.value

    def test_purged_predecessor_is_refused_not_skipped(self):
        error = self._refused_then_healed("bravo", 2, 1)
        assert (error.node, error.generation, error.records,
                error.index) == ("bravo", 0, 2, 1)
        assert "generation 0 sealed 2 records" in str(error)
        record, bravo = self._run([("write",), ("catch_up", "bravo"),
                                   ("write",), ("purge",), ("write",),
                                   ("catch_up", "bravo")], "bravo")
        assert all(outcome == "ok" for __, outcome in record.steps)
        assert bravo.rejected_shipments == 0 and bravo.applied[1] == 1
        assert databases_equal(bravo.database, _reference(
            [(row, f"v{row}") for row in (1, 2, 3)]))

    def test_a_fresh_follower_refuses_purged_generations(self):
        """The first generation a follower sees is new to its ledger
        too: its header's predecessor count must hold."""
        error = self._refused_then_healed("charlie", 5, 3)
        assert (error.node, error.generation, error.records,
                error.index) == ("charlie", 0, 5, 0)
        record, charlie = self._run(
            [("write",)] * 5 + [("purge",)] + [("write",)] * 3
            + [("catch_up", "charlie")], "charlie")
        assert all(outcome == "ok" for __, outcome in record.steps)
        assert charlie.rejected_shipments == 0
        assert charlie.applied == {1: 3} and charlie.image_generation == 1
        assert databases_equal(charlie.database,
                               record.group.primary.database)

    def test_shipping_before_the_checkpoint_never_refuses(self):
        record, bravo = self._run(
            [("write",), ("catch_up", "bravo"), ("purge",)] * 3
            + [("write",), ("catch_up", "bravo")], "bravo")
        assert all(outcome == "ok" for __, outcome in record.steps)
        assert bravo.rejected_shipments == 0
        assert bravo.applied == {0: 1, 1: 1, 2: 1, 3: 1}
        assert databases_equal(bravo.database, record.group.primary.database)


class _CountingChannel(ReplicationChannel):
    """The perfect network, counting the payload bytes it delivers."""

    def __init__(self):
        super().__init__()
        self.delivered = 0

    def _deliver(self, shipments):
        self.delivered += sum(len(shipment.payload.encode("utf-8"))
                              for shipment in shipments)
        return shipments


class TestShippingCostsOnlyWhatIsNew:
    """A round ships each byte a follower has not verified, once.  The
    whole-file exchange sent 50x the WAL's bytes over this history, and
    rewrote every follower file every round."""

    def test_shipped_bytes_stay_near_the_wal_size(self, tmp_path,
                                                  monkeypatch):
        timeline = VirtualClock()
        primary = PrimaryNode("alpha", str(tmp_path / "alpha"),
                              _database(), timeline=timeline)
        channel = _CountingChannel()
        follower = FollowerNode("bravo", str(tmp_path / "bravo"),
                                _database(), timeline=timeline,
                                channel=channel)
        writes = []

        def recording_open(path, mode="r", *args, **kwargs):
            if "w" in mode or "+" in mode:
                writes.append(os.path.basename(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(replication, "open", recording_open,
                            raising=False)
        for row in range(1, 2001):
            primary.execute("INSERT INTO t VALUES (?, ?)", [row, "v"])
            if row % 500 == 0:
                primary.rotate()
            if row % 20 == 0:
                follower.catch_up(primary)
        wal_bytes = sum(
            os.path.getsize(os.path.join(primary.directory, name))
            for name in os.listdir(primary.directory))
        assert follower.applied_total() == 2000
        assert databases_equal(follower.database, primary.database)
        assert channel.delivered <= 1.1 * wal_bytes
        # Once verified, a sealed local file is never written again.
        sealed = [name for name in writes if name != "wal.jsonl"]
        assert sorted(sealed) == [f"wal.jsonl.{generation:06d}"
                                  for generation in range(4)]
        assert sealed_digests(follower.wal_path) == \
            sealed_digests(primary.wal_path)


class TestShipmentIntegrity:
    def test_shipments_carry_payload_digests(self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        for shipment in group.primary.ship():
            assert shipment.digest == payload_digest(shipment.payload)

    def test_tampered_shipment_rejected_before_apply(self, cluster):
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'aa')", [])
        shipment = group.primary.ship()[0]
        tampered = Shipment(shipment.generation,
                            shipment.payload.replace("aa", "ab"),
                            shipment.sealed, shipment.digest)
        with pytest.raises(FederationError):
            follower.apply_shipment(tampered)
        assert follower.rejected_shipments == 1
        assert follower.applied_total() == 0
        assert not os.path.exists(follower.wal_path)  # nothing landed
        assert "digest" in follower.last_rejection

    def test_bit_rotted_payload_rejected_even_with_matching_digest(
            self, cluster):
        # Rot on the PRIMARY'S disk: the digest matches the rotted
        # bytes, so only the per-record CRC can stop the spread.
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'aa')", [])
        group.primary.rotate()
        shipment = group.primary.ship()[0]
        rotted = shipment.payload.replace("aa", "ab")
        poisoned = Shipment(shipment.generation, rotted, True,
                            payload_digest(rotted))
        with pytest.raises(FederationError):
            follower.apply_shipment(poisoned)
        assert follower.applied_total() == 0
        assert "bit_rot" in follower.last_rejection

    def test_rejected_shipment_does_not_reset_staleness(self, cluster):
        group, timeline = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'aa')", [])
        group.primary.rotate()
        timeline.advance(5.0)
        # Damage in flight (rot on the primary's disk is repaired within
        # the round): catch_up must stop without resetting the
        # staleness clock — the replica IS falling behind and the bound
        # must say so.
        tampering = SimpleNamespace(name="alpha", ship=lambda request: [
            replace(shipment, payload=shipment.payload.replace("aa", "ab"))
            for shipment in group.primary.ship(request)])
        before = follower.staleness_bound()
        assert follower.catch_up(tampering) == 0
        assert "digest mismatch" in follower.last_rejection
        assert follower.staleness_bound() == pytest.approx(before)

    def test_a_shipment_cannot_be_built_without_a_digest(self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        shipment = group.primary.ship()[0]
        with pytest.raises(TypeError):
            Shipment(shipment.generation, shipment.payload,
                     shipment.sealed)

    def test_tampered_payload_with_a_stale_digest_is_rejected(
            self, cluster):
        """The payload is edited and every CRC restamped, so only the
        shipment digest can tell — and it always looks."""
        group, __ = cluster
        follower = group.followers[0]
        group.primary.execute("INSERT INTO t VALUES (1, 'aa')", [])
        shipment = group.primary.ship()[0]
        tampered = "".join(
            checksum_line(line[:line.rfind(', "crc": ')]
                          .replace("aa", "zz") + "}") + "\n"
            for line in shipment.payload.splitlines())
        assert tampered != shipment.payload
        parse_wal_payload(tampered)         # per-record CRCs all pass
        forged = Shipment(shipment.generation, tampered,
                          shipment.sealed, shipment.digest)
        with pytest.raises(FederationError):
            follower.apply_shipment(forged)
        assert follower.rejected_shipments == 1
        assert "digest mismatch" in follower.last_rejection
        assert not os.path.exists(follower.wal_path)
        assert follower.applied_total() == 0


class TestAntiEntropy:
    """Anti-entropy is the catch-up round itself: a rotted or diverged
    sealed copy is shipped whole, quarantined and replaced there."""

    def _rot(self, path):
        with open(path) as handle:
            payload = handle.read()
        with open(path, "w") as handle:
            handle.write(payload.replace("v0", "vX"))

    def _shipped_cluster(self, cluster, rows=6):
        group, __ = cluster
        for index in range(rows):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        group.primary.rotate()
        group.sync()
        return group

    def test_clean_round_reports_no_divergence(self, cluster):
        group = self._shipped_cluster(cluster)
        follower = group.followers[0]
        follower.catch_up(group.primary)
        report = follower.last_round
        assert report.repaired == [] and report.local_only == []
        assert report.quarantined == [] and report.repaired == []

    def test_rotted_segment_quarantined_and_refetched(self, cluster):
        group = self._shipped_cluster(cluster)
        follower = group.followers[0]
        sealed = follower.wal_path + ".000000"
        self._rot(sealed)
        assert follower.verify_ledger()[0].kind == "bit_rot"
        follower.catch_up(group.primary)
        report = follower.last_round
        assert report.repaired == [0]
        assert report.quarantined == [sealed + ".quarantined"]
        assert os.path.exists(sealed + ".quarantined")
        assert follower.verify_ledger() == []
        # Byte-identical convergence, and the ledger deduped the
        # replay: nothing applied twice.
        assert sealed_digests(follower.wal_path) == \
            sealed_digests(group.primary.wal_path)
        assert follower.applied_total() == 6

    def test_diverged_segment_is_quarantined_and_replaced(
            self, cluster, tmp_path):
        group = self._shipped_cluster(cluster)
        follower = group.followers[0]
        # Another history of generation 0 takes the primary's place.
        other = PrimaryNode("delta", str(tmp_path / "delta"), _database(),
                            timeline=VirtualClock())
        for index in range(6):
            other.execute("INSERT INTO t VALUES (?, ?)", [index, "w"])
        sealed = other.rotate()
        os.replace(sealed, group.primary.wal_path + ".000000")
        follower.catch_up(group.primary)
        report = follower.last_round
        assert report.repaired == [0]
        assert os.path.exists(follower.wal_path + ".000000.quarantined")
        assert sealed_digests(follower.wal_path) == \
            sealed_digests(group.primary.wal_path)
        assert follower.applied_total() == 6       # the ledger dedupes

    def test_missing_segment_left_for_catch_up(self, cluster):
        group = self._shipped_cluster(cluster)
        follower = group.followers[0]
        os.remove(follower.wal_path + ".000000")
        follower.catch_up(group.primary)
        report = follower.last_round   # absence is lag, not rot
        assert report.repaired == [] and report.local_only == []
        # The round ships what is missing whole; the ledger dedupes.
        assert sealed_digests(follower.wal_path) == \
            sealed_digests(group.primary.wal_path)
        assert follower.applied_total() == 6

    def test_promote_repairs_a_corrupt_ledger_first(self, cluster):
        group = self._shipped_cluster(cluster)
        # charlie pulls ahead, then rots: the dead primary's intact disk
        # repairs it, so the most caught up is crowned.
        group.primary.execute("INSERT INTO t VALUES (99, 'z')", [])
        charlie = group.followers[1]
        charlie.catch_up(group.primary)
        sealed = charlie.wal_path + ".000000"
        self._rot(sealed)
        group.fail_primary()
        promoted = group.promote()
        assert promoted.name == "charlie" and group.refused == []
        assert charlie.last_round.repaired == [0]
        assert os.path.exists(sealed + ".quarantined")
        assert databases_equal(promoted.database, _reference(
            [(index, f"v{index}") for index in range(6)] + [(99, "z")]))

    def test_promote_repairs_every_corrupt_ledger(self, cluster):
        group = self._shipped_cluster(cluster)
        for follower in group.followers:
            self._rot(follower.wal_path + ".000000")
        group.fail_primary()
        assert group.promote().name == "bravo"
        assert group.refused == []
        group.followers[0].verify_ledger()   # charlie's turn to be scrubbed
        group.sync()
        assert sealed_digests(group.followers[0].wal_path) == \
            sealed_digests(group.primary.wal_path)


class TestDiskShipments:
    def test_lists_sealed_then_active_in_generation_order(
            self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
        group.primary.wal.flush()
        shipments = disk_shipments(group.primary.wal_path)
        assert [(s.generation, s.sealed) for s in shipments] == \
            [(0, True), (1, False)]

    def test_missing_directory_ships_nothing(self, tmp_path):
        assert disk_shipments(str(tmp_path / "nope" / "wal.jsonl")) == []


class TestInvalidUtf8Regression:
    """Bit rot is bytes, not text: a flipped byte that is no longer
    valid UTF-8 must classify as ``bit_rot``, never crash the reader
    with an unhandled ``UnicodeDecodeError``."""

    def _rot_bytes(self, path):
        with open(path, "rb") as handle:
            raw = handle.read()
        # 0xFF is not valid anywhere in UTF-8.
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2] + b"\xff"
                         + raw[len(raw) // 2 + 1:])

    @pytest.fixture
    def rotted(self, cluster):
        group, __ = cluster
        for index in range(4):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        sealed = group.primary.rotate()
        group.primary.execute("INSERT INTO t VALUES (9, 'i')", [])
        group.primary.wal.flush()
        self._rot_bytes(sealed)
        return group, sealed

    def test_file_digest_returns_none_instead_of_crashing(self, rotted):
        __, sealed = rotted
        assert file_digest(sealed) is None

    def test_disk_shipments_classifies_bit_rot(self, rotted):
        """The rot ships as it lies on disk (its digest is the file's);
        the follower's CRC check classifies it, record and offset."""
        group, sealed = rotted
        [shipment, __] = disk_shipments(group.primary.wal_path)
        with open(sealed, "rb") as handle:
            assert shipment.digest == hashlib.sha256(
                handle.read()).hexdigest()
        with pytest.raises(FederationError) as caught:
            group.followers[0].apply_shipment(shipment)
        cause = caught.value.__cause__
        assert isinstance(cause, StorageError) and cause.kind == "bit_rot"
        assert cause.record_index is not None and cause.offset is not None

    def test_disk_shipments_can_skip_the_rotted_file(self, cluster):
        """A follower holding a verified seal steps over the source's
        rotted copy of it, and the healthy active segment still lands."""
        group, __ = cluster
        for index in range(4):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        sealed = group.primary.rotate()
        group.sync()
        group.primary.execute("INSERT INTO t VALUES (9, 'i')", [])
        group.primary.wal.flush()
        self._rot_bytes(sealed)
        follower = group.followers[0]
        assert follower.fill([lambda request: disk_shipments(
            group.primary.wal_path, request)])
        assert "bit_rot payload" in follower.last_rejection
        assert follower.applied == {0: 4, 1: 1}

    def test_ship_classifies_bit_rot(self, rotted):
        """The round's CRC check classifies the primary's rot; the
        primary sets the file aside and ships the image covering it."""
        group, sealed = rotted
        follower = group.followers[0]
        follower.catch_up(group.primary)
        assert "bit_rot payload" in follower.last_rejection
        assert os.path.exists(sealed + ".quarantined")
        assert group.primary.image_generation == 2
        assert follower.image_generation == 2
        assert databases_equal(follower.database, group.primary.database)

    def test_catch_up_repairs_a_rotted_local_segment(self, cluster):
        group, __ = cluster
        for index in range(4):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        group.primary.rotate()
        group.sync()
        follower = group.followers[0]
        self._rot_bytes(follower.wal_path + ".000000")
        assert follower.verify_ledger()[0].kind == "bit_rot"
        follower.catch_up(group.primary)
        assert follower.last_round.repaired == [0]
        assert follower.verify_ledger() == []

    def test_promotion_salvage_steps_over_rotted_dead_disk(self, cluster):
        group, __ = cluster
        for index in range(4):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        sealed = group.primary.rotate()
        group.sync()
        group.primary.execute("INSERT INTO t VALUES (9, 'late')", [])
        group.fail_primary()
        self._rot_bytes(sealed)
        promoted = group.promote()  # must not crash on the dead disk
        rows = group.primary.database.execute("SELECT * FROM t").rows
        assert len(rows) == 5  # gen 0 came from the pre-rot sync
        assert promoted.alive


class TestPromotionWindowRegression:
    """Overrunning the promotion window is an SLO breach, not an
    excuse to leave the group half-promoted: the roster swap must
    complete first, then the breach is reported."""

    def test_over_window_promotion_still_swaps_the_roster(self, cluster):
        group, __ = cluster
        for index in range(12):
            group.primary.execute("INSERT INTO t VALUES (?, ?)",
                                  [index, f"v{index}"])
        group.fail_primary()
        # Salvaging 12 statements at apply_cost 0.02 takes 0.24 virtual
        # seconds — over a 0.1s window.
        group.promotion_window = 0.1
        with pytest.raises(FederationError, match="over the"):
            group.promote()
        assert group.primary.name == "bravo"
        assert group.primary.alive
        assert [f.name for f in group.followers] == ["charlie"]
        assert group.last_promotion > group.promotion_window
        # The promoted primary is fully operational despite the breach.
        group.primary.execute("INSERT INTO t VALUES (99, 'z')", [])
        group.sync()


class TestLocalOnlySegmentsRegression:
    """A sealed generation only the follower holds (a demoted zombie's
    tail) is divergence and must be reported, not silently ignored."""

    def test_local_only_segment_reported(self, cluster):
        group, __ = cluster
        group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
        group.primary.rotate()
        group.sync()
        follower = group.followers[0]
        # Fabricate a local-only sealed generation far past the
        # primary's history — the shape a diverged tail leaves behind.
        stray = follower.wal_path + ".000007"
        with open(follower.wal_path + ".000000", encoding="utf-8") as src:
            payload = src.read()
        with open(stray, "w", encoding="utf-8") as handle:
            handle.write(payload)
        follower.catch_up(group.primary)
        report = follower.last_round
        assert report.local_only == [7]
        # The stray file is evidence, not repair material: left in place.
        assert os.path.exists(stray)


class TestAPrimaryVerifiesWhatNoFollowerHolds:
    """``sync`` has a live primary check the generations no follower
    holds, and only those: with every generation held, or purged under
    the image, it does no work."""

    def test_held_generations_cost_the_primary_nothing(self, monkeypatch):
        verified = []
        monkeypatch.setattr(PrimaryNode, "verify",
                            lambda node, generations: verified.append(
                                set(generations)))
        with tempfile.TemporaryDirectory() as root:
            group, *__ = sim.build(root)
            late = group.followers.pop()
            group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
            group.primary.rotate()
            group.primary.execute("INSERT INTO t VALUES (2, 'b')", [])
            group.sync()
            assert verified == []
            # Purged generations are not counted: a follower healed
            # through the image holds the rest.
            group.primary.checkpoint(purge=True)
            group.primary.execute("INSERT INTO t VALUES (3, 'c')", [])
            group.followers.append(late)
            group.sync()
            assert late.image_generation == 2 and 0 not in late.applied
            assert verified == []
            group.followers = []
            group.sync()
            assert verified == [{2}]

    def test_a_lone_primary_recuts_its_rotted_seal(self):
        with tempfile.TemporaryDirectory() as root:
            group, __, auditor, *__ = sim.build(root)
            group.followers = []
            group.primary.execute("INSERT INTO t VALUES (1, 'a')", [])
            group.primary.rotate()
            sealed = group.primary.wal_path + ".000000"
            with open(sealed, "r+b") as handle:
                handle.seek(os.path.getsize(sealed) - 3)
                handle.write(b"#")
            group.sync()
            assert os.path.exists(sealed + ".quarantined")
            assert group.primary.image_generation == 1
            assert auditor.certify(group.primary).ok

"""A follower verifies only WAL bytes it has not verified, and is
shipped only those — and both are indistinguishable from verifying
every shipment whole.

``FollowerNode.apply_shipment`` remembers, per generation, the prefix it
has verified (length, SHA-256, record count) and resumes parsing after
it when the next shipment opens with exactly those bytes; ``_request``
asks to be shipped only what lies past it.  The oracle is the same
schedule driven by :func:`repro.sim.group.run` with followers that ask
for whole files and forget every prefix before each apply (a monkeypatch
here, no switch in ``src/``).  Over schedules of writes, rounds,
rotations, checkpoints, torn crashes, failovers (epoch restamps) and
damage — byte flips and cuts in the primary's WAL or image and flips in
flight — both runs must answer alike: step outcomes, ledgers, rejection
counts and texts (record index and offset included), every node's file
bytes and database.
"""

import contextlib
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.db import Database
from repro.db import storage
from repro.db.recovery import databases_equal
from repro.db.storage import WriteAheadLog
from repro.errors import FederationError
from repro.federation import FollowerNode, Shipment, disk_shipments
from repro.federation.replication import payload_digest
from repro.sim import group as sim
from repro.sources import VirtualClock
from tests.concurrency.scheduler import harness_seed
from tests.federation.test_partition_properties import LOAD, MASKS, OFFSETS

TORN = '{"sql": "INSERT INTO t VALUES'

#: Damage the primary's WAL or image at the source, or a shipment in
#: flight, often in the newest bytes (those a follower has not
#: verified); a follower's own files are left alone (scrub judges
#: those).
WHERE = st.one_of(OFFSETS, st.integers(-200, -1))
DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.just("alpha"),
              st.sampled_from(("wal", "image")), WHERE, MASKS),
    st.tuples(st.just("flip"), st.sampled_from(sim.NODES[1:]),
              st.just("shipment"), WHERE, MASKS),
    st.tuples(st.just("cut"), st.just("alpha"),
              st.sampled_from(("wal", "image")), WHERE),
)
#: Half the steps write or sync, so rounds meet verified prefixes.
STEPS = st.sampled_from([st.just(("write",)), st.just(("sync",)), LOAD,
                         DAMAGE]).flatmap(lambda steps: steps)
SCHEDULES = st.lists(STEPS, min_size=10, max_size=40)


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _whole(patch):
    """Followers that ask for whole files and parse every one whole."""
    apply = FollowerNode.apply_shipment

    def apply_whole(node, shipment):
        node._verified.clear()
        return apply(node, shipment)

    patch.setattr(FollowerNode, "_request", lambda node: {})
    patch.setattr(FollowerNode, "apply_shipment", apply_whole)


def _answers(record, root):
    """Everything a run answered, its directory named ``<root>``, and
    its nodes' databases."""
    def text(outcome):
        return f"{type(outcome).__name__}: {outcome}".replace(root, "<root>")

    nodes = [record.group.primary, *record.group.followers]
    return ([(step, text(outcome)) for step, outcome in record.steps],
            text(record.heal_error), record.promotions,
            [(node.name, getattr(node, "applied", None),
              getattr(node, "rejected_shipments", None),
              text(getattr(node, "last_rejection", None)))
             for node in nodes],
            {str(path.relative_to(root)): path.read_bytes()
             for path in sorted(Path(root).rglob("*")) if path.is_file()}), \
        [node.database for node in nodes]


def _same_as_whole_parse(schedule, drop_rate):
    answers = []
    with tempfile.TemporaryDirectory() as scratch, \
            pytest.MonkeyPatch.context() as patch:
        for name in ("incremental", "whole"):
            root = os.path.join(scratch, name)   # kept until compared
            patch.setattr(sim, "tempfile", SimpleNamespace(
                TemporaryDirectory=lambda: contextlib.nullcontext(root)))
            if name == "whole":
                _whole(patch)
            answers.append(_answers(sim.run(schedule, drop_rate=drop_rate),
                                    root))
    (mine, my_databases), (theirs, their_databases) = answers
    assert mine == theirs
    assert all(map(databases_equal, my_databases, their_databases))


#: Damage in the bytes a round ships past a verified prefix: in flight,
#: and at the source; a source cut back to the verified prefix; and rot
#: inside the prefix that damage in flight undoes (nothing new ships).
PAST_THE_PREFIX = [[("write",), ("sync",), ("write",), (*damage, -5, 0x01),
                    ("sync",)]
                   for damage in (("flip", "bravo", "shipment"),
                                  ("flip", "alpha", "wal"))] + [
    [("write",)] * 3 + [("sync",), ("write",), ("cut", "alpha", "wal", -74)],
    [("write",)] * 7 + [("sync",), ("flip", "alpha", "wal", 0, 32),
                        ("flip", "bravo", "shipment", 0, 32)]]


class TestIncrementalEqualsWholeParse:
    @example(schedule=PAST_THE_PREFIX[0], drop_rate=0.0)
    @example(schedule=PAST_THE_PREFIX[1], drop_rate=0.0)
    @example(schedule=PAST_THE_PREFIX[2], drop_rate=0.0)
    @example(schedule=PAST_THE_PREFIX[3], drop_rate=0.0)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(schedule=SCHEDULES, drop_rate=st.sampled_from((0.0, 0.05)))
    def test_same_answers_as_a_follower_that_parses_whole(self, schedule,
                                                          drop_rate):
        _same_as_whole_parse(schedule, drop_rate)

    @seed(f"incremental-sweep {harness_seed()}")
    @settings(max_examples=12, deadline=None, database=None)
    @given(schedule=SCHEDULES, drop_rate=st.sampled_from((0.0, 0.05)))
    def test_seeded_sweep_parses_alike(self, schedule, drop_rate):
        """Fresh schedules per ``REPRO_TEST_SEED``."""
        _same_as_whole_parse(schedule, drop_rate)


class TestOnlyNewLinesAreClassified:
    N, M = 40, 7

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every line ``classify_wal`` classifies, by line number."""
        lines = []
        classify = storage.classify_wal

        def counting(data, start=0, first_index=1):
            for item in classify(data, start, first_index):
                lines.append(item[0])
                yield item

        monkeypatch.setattr(storage, "classify_wal", counting)
        return lines

    @pytest.fixture
    def grown(self, tmp_path):
        """A follower that applied N records, and the same segment
        re-shipped after M more."""
        os.makedirs(tmp_path / "primary")
        primary = _database()
        wal = WriteAheadLog(str(tmp_path / "primary" / "wal.jsonl"), primary)
        wal.attach()
        follower = FollowerNode("bravo", str(tmp_path / "bravo"),
                                _database(), timeline=VirtualClock())
        for row in range(self.N):
            primary.execute("INSERT INTO t VALUES (?, ?)", [row, "v"])
        (shipment,) = disk_shipments(wal.path)
        assert follower.apply_shipment(shipment) == self.N
        for row in range(self.N, self.N + self.M):
            primary.execute("INSERT INTO t VALUES (?, ?)", [row, "v"])
        (shipment,) = disk_shipments(wal.path)
        wal.close()
        return follower, shipment

    def test_a_grown_segment_classifies_only_its_new_lines(
            self, grown, counted):
        follower, shipment = grown
        assert follower.apply_shipment(shipment) == self.M
        # Line 1 is the header, lines 2..N+1 the records already applied.
        first = self.N + 2
        assert counted == list(range(first, first + self.M))

    def test_a_torn_tail_adds_one_line(self, grown, counted):
        follower, shipment = grown
        payload = shipment.payload + TORN
        torn = Shipment(shipment.generation, payload, False,
                        payload_digest(payload))
        assert follower.apply_shipment(torn) == self.M
        assert len(counted) == self.M + 1

    def test_a_restamped_header_is_parsed_whole(self, grown, counted):
        follower, shipment = grown
        payload = shipment.payload.replace('"epoch": null', '"epoch": 2', 1)
        restamped = Shipment(shipment.generation, payload, False,
                             payload_digest(payload))
        with pytest.raises(FederationError) as excinfo:
            follower.apply_shipment(restamped)   # the header CRC fails
        assert "bit_rot" in str(excinfo.value)
        assert counted[0] == 1

"""A follower verifies only WAL bytes it has not verified, and is
shipped only those — and both are indistinguishable from verifying
every shipment whole.

``FollowerNode.apply_shipment`` remembers, per generation, the prefix it
has verified (length, SHA-256, record count) and resumes parsing after
it when the next shipment opens with exactly those bytes.  The oracle is
the same follower made to forget that prefix before every apply (a
monkeypatch here, no switch in ``src/``): over random interleavings of
appends, flushes, torn tails, ships, epoch restamps, rotations, purges
and single-byte flips anywhere in a payload — the verified prefix
included — both must answer alike: ledger, applied counts, local file
bytes, rejections and their text (record index and offset included).
A third follower is fed the same history as the answers to its own
verified-prefix requests (suffixes past what it verified): it must end
with the same ledger, database and files, byte for byte.
"""

import hashlib
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db import storage
from repro.db.recovery import databases_equal
from repro.db.storage import WriteAheadLog
from repro.errors import FederationError
from repro.federation import FollowerNode, Shipment, disk_shipments
from repro.federation.replication import payload_digest
from repro.sources import VirtualClock

TORN = '{"sql": "INSERT INTO t VALUES'


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _forget_before_every_apply(patch, node):
    """Turn *node* into the reference: every apply parses whole."""
    apply = node.apply_shipment

    def apply_whole(shipment):
        node._verified.clear()
        return apply(shipment)

    patch.setattr(node, "apply_shipment", apply_whole)


def _answer(shipments, request):
    """*shipments* as the answer to *request*: a payload opening with
    the requested prefix ships from its end, any other whole (damaged
    payloads included, so the three followers see the same bytes)."""
    answer = []
    for shipment in shipments:
        data = shipment.payload.encode("utf-8")
        length, digest = request.get(shipment.generation, (0, None))
        if hashlib.sha256(data[:length]).hexdigest() == digest:
            shipment = replace(shipment, start=length,
                               payload=data[length:].decode("utf-8"))
        answer.append(shipment)
    return answer


def _files(directory):
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())}


def _deliver(node, shipment):
    try:
        return ("applied", node.apply_shipment(shipment))
    except FederationError as error:
        return ("refused", str(error), error.generation, error.index)


def _flip(payload, where, mask):
    where %= len(payload)
    return (payload[:where] + chr(ord(payload[where]) ^ mask)
            + payload[where + 1:])


events = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 4)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("ship")),
    st.tuples(st.just("torn"), st.integers(1, len(TORN))),
    st.tuples(st.just("epoch"), st.integers(1, 9)),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("purge")),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(0, 2**20),
              st.sampled_from([1, 2, 4, 0x20]), st.booleans()),
)


class TestIncrementalEqualsWholeParse:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(script=st.lists(events, min_size=10, max_size=40))
    def test_same_answers_as_a_follower_that_parses_whole(self, script):
        with tempfile.TemporaryDirectory() as root, \
                pytest.MonkeyPatch.context() as patch:
            os.makedirs(os.path.join(root, "primary"))
            primary = _database()
            wal = WriteAheadLog(os.path.join(root, "primary", "wal.jsonl"),
                                primary, flush_every_n=1000)
            wal.attach()
            # One name, three directories: rejection texts name the node.
            nodes = [FollowerNode("bravo", os.path.join(root, directory),
                                  _database(), timeline=VirtualClock())
                     for directory in ("incremental", "reference",
                                       "suffixes")]
            _forget_before_every_apply(patch, nodes[1])
            rows = 0
            for event in script:
                kind = event[0]
                if kind == "append":
                    for __ in range(event[1]):
                        primary.execute("INSERT INTO t VALUES (?, ?)",
                                        [rows, f"v{rows}"])
                        rows += 1
                    continue
                if kind == "flush":
                    wal.flush()
                elif kind == "epoch":
                    wal.set_epoch(event[1])
                elif kind == "rotate":
                    wal.rotate()
                elif kind == "purge":
                    wal.purge(before_generation=wal.generation)
                shipments = disk_shipments(wal.path)
                if not shipments or kind in ("flush", "epoch", "rotate",
                                             "purge"):
                    continue
                if kind == "torn":
                    # The primary died mid-append: the active payload
                    # ends in part of a record.
                    last = shipments[-1]
                    payload = last.payload + TORN[:event[1]]
                    shipments[-1] = Shipment(last.generation, payload,
                                             False, payload_digest(payload))
                if kind == "flip":
                    __, which, where, mask, at_source = event
                    chosen = shipments[which % len(shipments)]
                    payload = _flip(chosen.payload, where, mask)
                    # Rot on the primary's disk ships a matching digest;
                    # damage in flight keeps the digest of the original.
                    shipments[which % len(shipments)] = Shipment(
                        chosen.generation, payload, chosen.sealed,
                        payload_digest(payload) if at_source
                        else chosen.digest)
                request = nodes[2]._request()
                answer = _answer(shipments, request)
                if kind == "ship":
                    assert disk_shipments(wal.path, request) == answer
                for shipment, cut in zip(shipments, answer):
                    outcomes = [_deliver(node, shipment)
                                for node in nodes[:2]]
                    assert outcomes[0] == outcomes[1], shipment
                    _deliver(nodes[2], cut)
                incremental, reference, suffixes = nodes
                assert suffixes.applied == incremental.applied
                assert (_files(suffixes.directory)
                        == _files(incremental.directory))
                assert databases_equal(suffixes.database,
                                       incremental.database)
                assert incremental.applied == reference.applied
                assert (incremental.rejected_shipments
                        == reference.rejected_shipments)
                assert incremental.last_rejection == reference.last_rejection
                assert (_files(incremental.directory)
                        == _files(reference.directory))
                assert databases_equal(incremental.database,
                                       reference.database)
            wal.close()


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

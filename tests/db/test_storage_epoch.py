"""Replication epochs in the ``$wal`` segment header (format v3).

Every header names an epoch: a leased primary stamps its own, a log
written without a lease stamps ``null``.  Headers of older format
versions are not trusted — they answer neither epoch nor generation,
and replay refuses them.  The epoch is covered by the header CRC, so a
bit-flipped claim is distrusted rather than believed.
"""

import json

import pytest

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.db.storage import (
    PREDECESSOR,
    WAL_FORMAT,
    StorageError,
    WriteAheadLog,
    checksum_line,
    read_wal_records,
    segment_epoch,
    segment_generation,
)


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _wal(path, database, **kwargs):
    wal = WriteAheadLog(str(path), database, **kwargs)
    wal.attach()
    return wal


def _header(path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "$wal" in record:
                return record
    return None


class TestEpochHeaders:
    def test_leaseless_wal_writes_a_null_epoch(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        wal.close()
        header = _header(wal.path)
        assert list(header) == ["$wal", "generation", "epoch", "crc"]
        assert header["$wal"] == WAL_FORMAT == 3
        assert header["epoch"] is None
        assert segment_epoch(wal.path) is None

    def test_epoch_stamped_as_v3_header(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database, epoch=7)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        wal.close()
        header = _header(wal.path)
        assert header["$wal"] == WAL_FORMAT
        assert header["epoch"] == 7
        assert segment_epoch(wal.path) == 7
        assert segment_generation(wal.path) == wal.generation

    def test_v3_records_replay_like_any_other(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database, epoch=3)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        database.execute("INSERT INTO t VALUES (2, 'b')", [])
        wal.close()
        twin = _database()
        WriteAheadLog(wal.path, twin).replay(twin)
        assert databases_equal(database, twin)

    def test_rotation_carries_the_epoch(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database, epoch=5)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        sealed = wal.rotate()
        database.execute("INSERT INTO t VALUES (2, 'b')", [])
        wal.close()
        assert segment_epoch(sealed) == 5
        assert segment_epoch(wal.path) == 5

    def test_set_epoch_restamps_active_header_in_place(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        database.execute("INSERT INTO t VALUES (2, 'b')", [])
        assert segment_epoch(wal.path) is None
        wal.set_epoch(9)
        assert segment_epoch(wal.path) == 9
        assert segment_generation(wal.path) == wal.generation
        records, torn = read_wal_records(wal.path)
        assert len(records) == 2 and not torn
        # Appends after the restamp land in the same, re-headed file.
        database.execute("INSERT INTO t VALUES (3, 'c')", [])
        wal.close()
        records, __ = read_wal_records(wal.path)
        assert len(records) == 3

    def test_rotation_stamps_the_sealed_record_count(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        database.execute("INSERT INTO t VALUES (2, 'b')", [])
        sealed = wal.rotate()
        assert PREDECESSOR not in _header(sealed)
        assert _header(wal.path)[PREDECESSOR] == 2
        # An optional field: every header reader still trusts the line.
        assert segment_generation(wal.path) == wal.generation == 1
        # A restamp keeps it, and so does a rotation with nothing to seal.
        wal.set_epoch(6)
        assert _header(wal.path)[PREDECESSOR] == 2
        assert wal.rotate() is None
        assert _header(wal.path)[PREDECESSOR] == 2
        assert segment_epoch(wal.path) == 6
        database.execute("INSERT INTO t VALUES (3, 'c')", [])
        wal.close()
        assert len(read_wal_records(wal.path)[0]) == 1

    def test_the_kept_rotation_count_equals_a_parse(self, tmp_path):
        """The count a log keeps while its handle is open, and the parse
        it falls back to otherwise, both stamp what the sealed file
        holds."""
        def sealed_count(wal, sealed):
            stamped = _header(wal.path)[PREDECESSOR]
            assert stamped == len(read_wal_records(sealed)[0])
            return stamped

        database = _database()
        # (a) The log's own appends, across two rotations.
        wal = _wal(tmp_path / "a.jsonl", database)
        for key in range(3):
            database.execute(f"INSERT INTO t VALUES ({key}, 'a')", [])
        assert sealed_count(wal, wal.rotate()) == 3
        database.execute("INSERT INTO t VALUES (3, 'a')", [])
        assert sealed_count(wal, wal.rotate()) == 1
        wal.close()
        # (b) A log opened over records it did not write.
        wal = _wal(tmp_path / "a.jsonl", database)
        database.execute("INSERT INTO t VALUES (4, 'a')", [])
        wal.close()
        wal = _wal(tmp_path / "a.jsonl", database)
        database.execute("INSERT INTO t VALUES (5, 'a')", [])
        assert sealed_count(wal, wal.rotate()) == 2
        # (c) A closed log whose file lost a torn tail behind its back.
        database.execute("INSERT INTO t VALUES (6, 'a')", [])
        database.execute("INSERT INTO t VALUES (7, 'a')", [])
        wal.close()
        with open(wal.path, "rb+") as handle:
            handle.truncate(len(handle.read()) - 5)
        assert sealed_count(wal, wal.rotate()) == 1
        # (d) A damaged middle line present at open is refused.
        database.execute("INSERT INTO t VALUES (8, 'a')", [])
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b'{"sql": "torn\n')
        wal = _wal(wal.path, database)
        database.execute("INSERT INTO t VALUES (9, 'a')", [])
        with pytest.raises(StorageError) as excinfo:
            wal.rotate()
        assert excinfo.value.kind == "corrupt_middle"

    def test_set_epoch_on_blank_file_stamps_first_append(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database)
        wal.set_epoch(4)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        wal.close()
        assert segment_epoch(wal.path) == 4


class TestBackCompat:
    """There is none: one format, and a structured refusal for the
    rest (which still must not claim an epoch)."""

    def test_v1_header_answers_no_epoch(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"$wal": 1, "generation": 3}\n')
        assert segment_epoch(str(path)) is None
        assert segment_generation(str(path)) is None
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(str(path))
        assert excinfo.value.kind == "malformed"

    def test_v2_header_answers_no_epoch(self, tmp_path):
        # Exactly what the previous release wrote, CRC and all.
        path = tmp_path / "wal.jsonl"
        body = json.dumps({"$wal": 2, "generation": 6})
        path.write_text(checksum_line(body) + "\n")
        assert segment_epoch(str(path)) is None
        assert segment_generation(str(path)) is None
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(str(path))
        error = excinfo.value
        assert error.kind == "malformed"
        assert (error.record_index, error.offset) == (1, 0)
        assert "version 2" in str(error) and "version 3" in str(error)

    def test_reopen_continues_generation_from_v3_header(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database, epoch=2)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        wal.rotate()
        database.execute("INSERT INTO t VALUES (2, 'b')", [])
        generation = wal.generation
        wal.close()
        reopened = WriteAheadLog(wal.path, _database())
        assert reopened.generation == generation


class TestRottedEpochHeaders:
    @pytest.fixture
    def stamped(self, tmp_path):
        database = _database()
        wal = _wal(tmp_path / "wal.jsonl", database, epoch=7)
        database.execute("INSERT INTO t VALUES (1, 'a')", [])
        wal.close()
        return wal.path

    def test_flipped_epoch_fails_the_header_crc(self, stamped):
        with open(stamped, encoding="utf-8") as handle:
            payload = handle.read()
        with open(stamped, "w", encoding="utf-8") as handle:
            handle.write(payload.replace('"epoch": 7', '"epoch": 8', 1))
        # The claim is no longer trustworthy: both header reads refuse.
        assert segment_epoch(stamped) is None
        assert segment_generation(stamped) is None

    def test_epoch_key_rotted_away_fails_the_crc(self, stamped):
        with open(stamped, encoding="utf-8") as handle:
            payload = handle.read()
        with open(stamped, "w", encoding="utf-8") as handle:
            handle.write(payload.replace(', "epoch": 7', '', 1))
        assert segment_epoch(stamped) is None

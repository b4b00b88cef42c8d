"""Integrity scrub: verdict taxonomy, damage localization, reporting.

The scrubber's contract differs from replay in one load-bearing way:
replay aborts at the first corrupt record (replaying around a hole
would diverge), but scrub keeps scanning so ONE pass maps ALL the
damage.  These tests pin that, plus the verdict taxonomy (torn tail on
the active segment is a crash artifact, anywhere else it is damage;
a file in a format version this build does not read is refused, never
waved through) and the structured offsets that let an operator — or
anti-entropy — repair surgically.
"""

import json
import os

import pytest

from repro.db import Database
from repro.db.scrub import (
    BIT_ROT,
    DIGEST_MISMATCH,
    MALFORMED,
    OK,
    TORN_TAIL,
    UNREADABLE,
    FileVerdict,
    ScrubReport,
    scrub,
    scrub_image,
    scrub_wal_file,
)
from repro.db.storage import (
    WriteAheadLog,
    checkpoint,
    checksum_line,
    read_image,
    read_wal_records,
    save_database,
)
from repro.errors import StorageError


def _database():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def _flip(path, needle, replacement):
    with open(path) as handle:
        payload = handle.read()
    assert needle in payload
    with open(path, "w") as handle:
        handle.write(payload.replace(needle, replacement, 1))


@pytest.fixture
def state(tmp_path):
    """An image, two sealed segments, and an active tail."""
    image = str(tmp_path / "image.json")
    wal_path = str(tmp_path / "wal.jsonl")
    database = _database()
    log = WriteAheadLog(wal_path, database)
    log.attach()
    database.execute("INSERT INTO t VALUES (0, 'a0')")
    checkpoint(database, image, log)
    for index in range(1, 4):
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [index, f"a{index}"])
    log.rotate()
    for index in range(4, 7):
        database.execute("INSERT INTO t VALUES (?, ?)",
                         [index, f"a{index}"])
    log.rotate()
    database.execute("INSERT INTO t VALUES (7, 'a7')")
    log.close()
    return image, wal_path


class TestCleanScrub:
    def test_clean_state_is_clean(self, state):
        report = scrub(*state)
        assert report.ok and report.damaged == []
        assert report.files_scanned == 4    # image + 2 sealed + active
        assert report.records_verified > 0
        assert all(verdict.bad_offsets == []
                   for verdict in report.verdicts)

    def test_summary_and_lines_render(self, state):
        report = scrub(*state)
        assert "clean" in report.summary()
        for verdict in report.verdicts:
            assert "ok" in verdict.line()

    def test_scrub_without_image_or_wal_is_empty(self):
        report = scrub(None, None)
        assert report.ok and report.files_scanned == 0


class TestDamageLocalization:
    def test_sealed_bit_rot_localized_to_record_and_offset(self, state):
        image, wal_path = state
        sealed = wal_path + ".000001"
        _flip(sealed, "a1", "b1")
        report = scrub(image, wal_path)
        assert len(report.damaged) == 1
        verdict = report.damaged[0]
        assert verdict.path == sealed and verdict.verdict == BIT_ROT
        assert len(verdict.bad_offsets) == 1
        # The localization must agree with what replay refuses on.
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(sealed)
        assert (excinfo.value.record_index, excinfo.value.offset) == \
            verdict.bad_offsets[0]

    def test_scrub_scans_past_damage_replay_stops_at_it(self, state):
        image, wal_path = state
        sealed = wal_path + ".000001"
        _flip(sealed, "a1", "b1")
        _flip(sealed, "a3", "b3")
        verdict = scrub_wal_file(sealed)
        assert len(verdict.bad_offsets) == 2   # one pass maps both
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(sealed)           # replay stops at the first
        assert (excinfo.value.record_index, excinfo.value.offset) == \
            verdict.bad_offsets[0]

    def test_image_digest_mismatch(self, state):
        image, wal_path = state
        _flip(image, "a0", "b0")
        report = scrub(image, wal_path)
        assert [d.verdict for d in report.damaged] == [DIGEST_MISMATCH]
        assert report.damaged[0].kind == "image"

    def test_torn_tail_active_is_not_damage_sealed_is(self, state):
        image, wal_path = state
        for path, is_damage in ((wal_path, False),
                                (wal_path + ".000002", True)):
            with open(path) as handle:
                payload = handle.read()
            with open(path, "w") as handle:
                handle.write(payload[:-10])
            verdict = scrub_wal_file(path, active=(path == wal_path))
            assert verdict.verdict == TORN_TAIL
            assert verdict.damaged is is_damage

    def test_unreadable_file(self, tmp_path):
        verdict = scrub_wal_file(str(tmp_path))   # a directory
        assert verdict.verdict == UNREADABLE and verdict.damaged


class TestOldFormatsAreRefused:
    """There is one WAL format and one image format; a file stamped
    with any other version is ``malformed`` to scrub and to replay
    alike, and the refusal names both versions."""

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_other_wal_versions_are_malformed(self, tmp_path, version):
        wal_path = str(tmp_path / "wal.jsonl")
        database = _database()
        log = WriteAheadLog(wal_path, database)
        log.attach()
        database.execute("INSERT INTO t VALUES (1, 'a')")
        log.close()
        with open(wal_path) as handle:
            lines = handle.readlines()
        lines[0] = checksum_line(json.dumps(
            {"$wal": version, "generation": 0})) + "\n"
        with open(wal_path, "w") as handle:
            handle.writelines(lines)
        verdict = scrub_wal_file(wal_path, active=True)
        assert verdict.verdict == MALFORMED and verdict.damaged
        assert verdict.bad_offsets == [(1, 0)]
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(wal_path)
        error = excinfo.value
        assert error.kind == "malformed" and error.path == wal_path
        assert (error.record_index, error.offset) == (1, 0)
        assert wal_path in str(error)
        assert f"version {version} " in str(error)
        assert "version 3 " in str(error)

    def test_format1_image_is_malformed(self, tmp_path):
        image = str(tmp_path / "image.json")
        save_database(_database(), image)
        with open(image) as handle:
            document = json.load(handle)
        document["format"] = 1
        document.pop("digest")
        with open(image, "w") as handle:
            json.dump(document, handle)
        verdict = scrub_image(image)
        assert verdict.verdict == MALFORMED and verdict.damaged
        with pytest.raises(StorageError) as excinfo:
            read_image(image)
        error = excinfo.value
        assert error.kind == "malformed" and error.path == image
        assert image in str(error)
        assert "format 1" in str(error) and "format 2" in str(error)


class TestNamedPathsAreAccountedFor:
    def test_missing_image_and_wal_are_unreadable(self, tmp_path):
        report = scrub(str(tmp_path / "image.json"),
                       str(tmp_path / "wal.jsonl"))
        assert [(v.kind, v.verdict) for v in report.verdicts] == [
            ("image", UNREADABLE), ("wal_active", UNREADABLE)]
        assert not report.ok

    def test_sealed_segments_without_an_active_file_is_a_crash(
            self, state):
        # A crash between sealing and reopening leaves exactly this.
        image, wal_path = state
        os.remove(wal_path)
        report = scrub(image, wal_path)
        assert report.ok and report.files_scanned == 3


class TestReportShape:
    def test_verdict_severity_keeps_the_worst(self):
        verdict = FileVerdict("x", "wal_sealed", OK)
        assert ScrubReport([verdict]).ok
        verdict.verdict = BIT_ROT
        assert not ScrubReport([verdict]).ok

"""Recovery-matrix tests: crash consistency of image + WAL + checkpoint.

The headline regression: WAL replay used to drive every
replayed statement through ``Database.execute``, whose WAL hook appended
it straight back to the log file being read — doubling the log on every
recovery.  These tests pin the fixed contract: replay never grows the
log, recovery is idempotent across repeated crashes, and every corner
of the crash matrix (torn tail, torn middle, mid-checkpoint crash,
generation skew, missing image) restores the reference state exactly.
"""

import json
import os

import pytest

from repro.adapter import install_genomics
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.db.storage import (
    WAL_FORMAT,
    WriteAheadLog,
    _header_record,
    apply_wal_records,
    checkpoint,
    checksum_line,
    load_database,
    read_wal_records,
    save_database,
    segment_generation,
)
from repro.errors import StorageError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return database


def replay(wal_path, target):
    """Apply every record of the WAL file at *wal_path* to *target*."""
    return apply_wal_records(read_wal_records(wal_path)[0], target)


def genomic_db():
    database = Database()
    install_genomics(database)
    return database


class TestReplaySelfAppendRegression:
    def test_replay_leaves_log_bytes_unchanged(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image)
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.execute("UPDATE t SET v = 'x' WHERE id = 1")
        wal.close()
        size_before = os.path.getsize(wal_path)

        recovered = load_database(image)
        attached = WriteAheadLog(wal_path, recovered)
        attached.attach()  # the sink points at the log being replayed
        applied = replay(wal_path, recovered)
        attached.flush()

        assert applied == 2
        assert os.path.getsize(wal_path) == size_before

    def test_replay_crash_replay_is_idempotent(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image)
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        wal.close()
        size = os.path.getsize(wal_path)

        for _ in range(3):  # recover, "crash", recover again ...
            recovered = load_database(image)
            attached = WriteAheadLog(wal_path, recovered)
            attached.attach()
            replay(wal_path, recovered)
            attached.flush()
            assert os.path.getsize(wal_path) == size
            assert recovered.query(
                "SELECT count(*) FROM t"
            ).scalar() == 3

    def test_suppression_restored_after_replay(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        wal.flush()
        replay(wal_path, target)  # replays elsewhere, sink must survive
        db.execute("INSERT INTO t VALUES (4, 'd')")
        wal.close()
        records, _ = read_wal_records(wal_path)
        assert [r["params"][0] if r["params"] else None
                for r in records] == [None, None]
        assert len(records) == 2


class TestTornRecordTaxonomy:
    def _logged(self, db, tmp_path, count=4):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        for index in range(count):
            db.execute("INSERT INTO t VALUES (?, 'x')", [10 + index])
        wal.close()
        return wal_path

    def test_torn_final_record_dropped(self, db, tmp_path):
        wal_path = self._logged(db, tmp_path)
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"sql": "INSERT INTO t VAL')
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        assert replay(wal_path, target) == 4

    def test_torn_middle_record_is_corruption(self, db, tmp_path):
        wal_path = self._logged(db, tmp_path)
        lines = open(wal_path, encoding="utf-8").readlines()
        lines[2] = lines[2][: len(lines[2]) // 2].rstrip() + "\n"
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        with pytest.raises(StorageError):
            replay(wal_path, target)

    def test_malformed_but_valid_json_record_rejected(self, db, tmp_path):
        wal_path = self._logged(db, tmp_path, count=1)
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"not": "a record"}) + "\n")
        with pytest.raises(StorageError):
            read_wal_records(wal_path)

    def test_strict_mode_rejects_torn_tail(self, db, tmp_path):
        wal_path = self._logged(db, tmp_path)
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"sql": "INSERT INTO t VAL')
        with pytest.raises(StorageError):
            read_wal_records(wal_path, allow_torn_tail=False)


class TestGroupCommit:
    def test_unflushed_records_invisible_flushed_visible(self, db,
                                                         tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db, flush_every_n=3)
        wal.attach()
        db.execute("INSERT INTO t VALUES (10, 'x')")
        db.execute("INSERT INTO t VALUES (11, 'x')")
        on_disk, _ = (read_wal_records(wal_path)
                      if os.path.exists(wal_path) else ([], False))
        assert len(on_disk) < 2  # still inside the group-commit window
        db.execute("INSERT INTO t VALUES (12, 'x')")
        on_disk, _ = read_wal_records(wal_path)
        assert len(on_disk) == 3  # the third append crossed the boundary
        wal.close()

    def test_explicit_flush_drains(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db, flush_every_n=100)
        wal.attach()
        db.execute("INSERT INTO t VALUES (10, 'x')")
        wal.flush()
        records, _ = read_wal_records(wal_path)
        assert len(records) == 1
        wal.close()

    def test_close_drains(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        with WriteAheadLog(wal_path, db, flush_every_n=100) as wal:
            wal.attach()
            db.execute("INSERT INTO t VALUES (10, 'x')")
        records, _ = read_wal_records(wal_path)
        assert len(records) == 1

    def test_fsync_mode_writes_records(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db, fsync=True)
        wal.attach()
        db.execute("INSERT INTO t VALUES (10, 'x')")
        wal.close()
        records, _ = read_wal_records(wal_path)
        assert len(records) == 1


class TestExecutemanyLogging:
    def test_executemany_outside_transaction(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db, flush_every_n=4)
        wal.attach()
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(10, "x"), (11, "y"), (12, "z")])
        wal.close()
        records, _ = read_wal_records(wal_path)
        assert len(records) == 3
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        assert replay(wal_path, target) == 3

    def test_executemany_inside_committed_transaction(self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.begin()
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(10, "x"), (11, "y")])
        db.commit()
        wal.close()
        records, _ = read_wal_records(wal_path)
        # One committed transaction is one record: every statement's
        # text, then all their parameters end to end.
        assert [(record["sql"], record["params"]) for record in records] \
            == [(["INSERT INTO t VALUES (?, ?)"] * 2, [10, "x", 11, "y"])]
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        assert replay(wal_path, target) == 2
        assert target.query("SELECT id, v FROM t").rows == [(10, "x"),
                                                           (11, "y")]

    def test_one_statement_transaction_writes_the_autocommit_line(
            self, db, tmp_path):
        lines = []
        for name, transaction in (("auto", False), ("one", True)):
            wal = WriteAheadLog(str(tmp_path / name), db)
            wal.attach()
            if transaction:
                db.begin()
            db.execute("UPDATE t SET v = ? WHERE id = ?", ["w", 1, "extra"])
            if transaction:
                db.commit()
            wal.close()
            lines.append((tmp_path / name).read_bytes())
        assert lines[0] == lines[1]

    def test_executemany_inside_rolled_back_transaction(self, db,
                                                        tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.begin()
        db.executemany("INSERT INTO t VALUES (?, ?)", [(10, "x")])
        db.rollback()
        wal.close()
        assert not os.path.exists(wal_path) \
            or read_wal_records(wal_path)[0] == []


class TestCheckpointRotation:
    def test_checkpoint_seals_and_purges(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        checkpoint(db, image, wal)
        assert wal.generation == 1
        assert wal.sealed_segments() == []  # covered segment purged
        assert read_wal_records(wal_path)[0] == []

    def test_statements_after_checkpoint_survive(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        checkpoint(db, image, wal)
        db.execute("INSERT INTO t VALUES (4, 'd')")
        wal.close()
        recovered, report = recover(image, wal_path)
        assert recovered.query("SELECT count(*) FROM t").scalar() == 4
        assert report.statements_applied == 1

    def test_crash_between_rotate_and_image(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image, wal_generation=0)
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        wal.rotate()  # checkpoint began ... and the process died here
        db.execute("INSERT INTO t VALUES (4, 'd')")
        wal.close()
        recovered, report = recover(image, wal_path)
        assert recovered.query("SELECT count(*) FROM t").scalar() == 4
        assert report.segments_replayed == 2

    def test_repeated_checkpoints_advance_generation(self, db, tmp_path):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        for index in range(3):
            db.execute("INSERT INTO t VALUES (?, 'c')", [10 + index])
            checkpoint(db, image, wal)
        assert wal.generation == 3
        recovered, report = recover(image, wal_path)
        assert recovered.query("SELECT count(*) FROM t").scalar() == 5
        assert report.statements_applied == 0  # image covers everything


class TestWalHeaderRegressions:
    """``rotate()`` used to truncate with a bare ``open(path, "w")``,
    discarding the ``$wal`` generation header — and left the fresh
    active file after ``os.replace`` headerless too.  A later process
    reopening the log then restarted at generation 0, and recovery
    skew-skipped (i.e. silently dropped) every statement appended after
    the checkpoint.  These tests pin the restamped-header contract."""

    def test_fresh_active_segment_keeps_its_generation_header(
            self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        sealed = wal.rotate()
        assert sealed is not None
        assert segment_generation(wal_path) == wal.generation == 1

    def test_header_only_active_segment_survives_rotation(
            self, db, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write(_header_record(7, None))
        wal = WriteAheadLog(wal_path, db)
        assert wal.generation == 7
        assert wal.rotate() is None  # nothing to seal ...
        assert segment_generation(wal_path) == 7  # ... header restamped

    def test_statements_after_checkpoint_survive_a_reopen(
            self, db, tmp_path):
        """The end-to-end data-loss scenario the bare truncation caused:
        checkpoint purges the sealed segments, the process restarts, a
        headerless active file restarts generation numbering at 0, and
        recovery then skew-skips the post-checkpoint statements."""
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        checkpoint(db, image, wal)  # rotate + image(gen 1) + purge
        wal.close()

        reopened = WriteAheadLog(wal_path, db)
        assert reopened.generation == 1
        db.attach_wal(reopened.append)
        db.execute("INSERT INTO t VALUES (4, 'd')")
        reopened.close()

        recovered, report = recover(image, wal_path)
        assert not report.skew_skipped
        assert recovered.query("SELECT count(*) FROM t").scalar() == 4

    def test_garbled_generation_header_reads_as_none(self, tmp_path):
        """``segment_generation`` used to crash with ValueError /
        TypeError on a garbled ``generation`` field instead of treating
        the header as unreadable (like the JSONDecodeError path)."""
        for garbage in ("junk", None, [3], {"n": 1}):
            path = str(tmp_path / "wal.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(checksum_line(json.dumps(
                    {"$wal": WAL_FORMAT, "generation": garbage,
                     "epoch": None})) + "\n")
            assert segment_generation(path) is None

    def test_recovery_refuses_a_garbled_active_header(self, db, tmp_path):
        """A header that cannot be trusted is a damaged line like any
        other: recovery names it instead of guessing a generation (or
        crashing on one, as it once did)."""
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image, wal_generation=0)
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        wal.close()
        with open(wal_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0] = lines[0].replace('"generation": 0', '"generation": "x"')
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError) as excinfo:
            recover(image, wal_path)
        error = excinfo.value
        assert error.kind == "bit_rot" and error.path == wal_path
        assert (error.record_index, error.offset) == (1, 0)


def test_a_stale_pre_checkpoint_log_is_skipped(db, tmp_path):
    """A pre-checkpoint active log that reappears after the checkpoint
    (restored from a backup, say) holds only what the image holds."""
    image = str(tmp_path / "image.json")
    wal_path = str(tmp_path / "wal.jsonl")
    wal = WriteAheadLog(wal_path, db)
    wal.attach()
    db.execute("INSERT INTO t VALUES (3, 'c')")
    wal.close()
    with open(wal_path, "rb") as handle:
        stale = handle.read()
    checkpoint(db, image, wal)
    with open(wal_path, "wb") as handle:
        handle.write(stale)
    recovered, report = recover(image, wal_path)
    assert report.skew_skipped and report.statements_applied == 0
    assert databases_equal(recovered, db)


class TestRecoveryWithUdts:
    def test_checkpoint_crash_replay_roundtrip_with_udt_columns(
        self, tmp_path
    ):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        database = genomic_db()
        database.execute(
            "CREATE TABLE s (id INTEGER PRIMARY KEY, seq DNA)"
        )
        wal = WriteAheadLog(wal_path, database, flush_every_n=2)
        wal.attach()
        database.execute("INSERT INTO s VALUES (1, ?)",
                         [DnaSequence("ATGGCC")])
        checkpoint(database, image, wal)
        database.execute("INSERT INTO s VALUES (2, ?)",
                         [DnaSequence("TTAACC")])
        database.execute("UPDATE s SET seq = ? WHERE id = 1",
                         [DnaSequence("ATGGCCAAA")])
        wal.close()

        recovered, __ = recover(image, wal_path, database=genomic_db())
        assert databases_equal(recovered, database)
        assert recovered.query(
            "SELECT seq FROM s WHERE id = 1"
        ).scalar() == DnaSequence("ATGGCCAAA")


class TestImageValidation:
    @staticmethod
    def _write_image(path, document):
        """A hand-built image in the current format, digest stamped."""
        from repro.db.storage import IMAGE_FORMAT, image_digest

        document = {"format": IMAGE_FORMAT, **document}
        document["digest"] = image_digest(document)
        path.write_text(json.dumps(document))

    def test_unreadable_image_chains_cause(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError) as excinfo:
            load_database(str(path))
        assert excinfo.value.__cause__ is not None

    def test_truncated_table_spec_is_storage_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        self._write_image(path, {
            "tables": [{"name": "t", "columns": []}],  # keys missing
            "indexes": [],
        })
        with pytest.raises(StorageError, match="table spec"):
            load_database(str(path))

    def test_truncated_column_spec_is_storage_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        self._write_image(path, {
            "tables": [{
                "name": "t", "columns": [{"name": "id"}],
                "primary_key": None, "unique": [], "layout": "row",
                "rows": [],
            }],
            "indexes": [],
        })
        with pytest.raises(StorageError, match="column spec"):
            load_database(str(path))

    def test_missing_top_level_keys_is_storage_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        self._write_image(path, {"tables": []})
        with pytest.raises(StorageError, match="indexes"):
            load_database(str(path))


class TestOpaqueLookupMemo:
    def test_memo_hits_after_first_scan(self):
        database = genomic_db()
        value = DnaSequence("ATG")
        first = database.catalog.opaque_type_for(value)
        assert first is not None and first.name == "DNA"
        assert database.catalog.opaque_type_for(value) is first
        assert type(value) in database.catalog._opaque_by_class

    def test_memo_invalidated_by_new_registration(self):
        from repro.db import OpaqueType

        database = Database()
        assert database.catalog.opaque_type_for(DnaSequence("A")) is None
        database.register_type(OpaqueType(
            "DNA", DnaSequence,
            lambda v: v.to_bytes(), DnaSequence.from_bytes,
        ))
        assert database.catalog.opaque_type_for(
            DnaSequence("A")
        ).name == "DNA"


class TestChecksumIntegrity:
    def _crashed_state(self, db, tmp_path, **wal_options):
        image = str(tmp_path / "image.json")
        wal_path = str(tmp_path / "wal.jsonl")
        save_database(db, image)
        wal = WriteAheadLog(wal_path, db, **wal_options)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'cc')")
        db.execute("INSERT INTO t VALUES (4, 'dd')")
        wal.close()
        return image, wal_path

    def test_bit_rot_detected_with_structured_context(self, db, tmp_path):
        image, wal_path = self._crashed_state(db, tmp_path)
        with open(wal_path) as handle:
            payload = handle.read()
        with open(wal_path, "w") as handle:
            handle.write(payload.replace("cc", "cd"))
        with pytest.raises(StorageError) as excinfo:
            recover(image, wal_path)
        error = excinfo.value
        assert error.kind == "bit_rot"
        assert error.path == wal_path
        assert error.record_index == 2      # header is line 1
        assert error.offset is not None and error.offset > 0
        # The aborted report rides on the exception, classified.
        assert error.report.corruption_kind == "bit_rot"
        assert error.report.corruption_path == wal_path
        assert "ABORTED" in error.report.summary()

    def test_corrupt_middle_context(self, db, tmp_path):
        __, wal_path = self._crashed_state(db, tmp_path)
        with open(wal_path) as handle:
            lines = handle.readlines()
        lines[1] = lines[1][:10] + "\n"      # torn, but not the tail
        with open(wal_path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError) as excinfo:
            read_wal_records(wal_path)
        assert excinfo.value.kind == "corrupt_middle"
        assert excinfo.value.record_index == 2

    def test_image_digest_mismatch_context(self, db, tmp_path):
        from repro.db.storage import read_image

        image, __ = self._crashed_state(db, tmp_path)
        with open(image) as handle:
            payload = handle.read()
        with open(image, "w") as handle:
            handle.write(payload.replace('"a"', '"z"'))
        with pytest.raises(StorageError) as excinfo:
            read_image(image)
        assert excinfo.value.kind == "digest_mismatch"
        assert excinfo.value.path == image

    def test_truncation_cannot_fake_a_valid_crc(self, db, tmp_path):
        # The crc field is spliced in LAST, so a torn record can never
        # parse as checksummed JSON: tearing is always torn_tail /
        # corrupt_middle, and bit_rot always means rotted bytes.
        __, wal_path = self._crashed_state(db, tmp_path)
        with open(wal_path) as handle:
            final = handle.readlines()[-1].rstrip("\n")
        for cut in range(1, len(final) - 1):
            try:
                record = json.loads(final[:-cut])
            except json.JSONDecodeError:
                continue
            assert "crc" not in record


class TestDirectoryFsyncDurability:
    """The rename-durability bugfix: ``os.replace`` alone is atomic but
    not durable — a crash right after it can roll the rename back.
    ``save_database`` and sealing rotations must flush the directory."""

    def _record_fsyncs(self, monkeypatch):
        import repro.db.storage as storage

        flushed = []
        original = storage.fsync_directory
        monkeypatch.setattr(
            storage, "fsync_directory",
            lambda path: (flushed.append(path), original(path))[1])
        return flushed

    def test_save_database_flushes_the_directory(self, db, tmp_path,
                                                 monkeypatch):
        flushed = self._record_fsyncs(monkeypatch)
        image = str(tmp_path / "image.json")
        save_database(db, image)
        assert image in flushed

    def test_sealing_rotation_flushes_with_fsync_on(self, db, tmp_path,
                                                    monkeypatch):
        flushed = self._record_fsyncs(monkeypatch)
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db, fsync=True)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        sealed = wal.rotate()
        wal.close()
        assert sealed in flushed

    def test_rotation_without_fsync_skips_the_flush(self, db, tmp_path,
                                                    monkeypatch):
        flushed = self._record_fsyncs(monkeypatch)
        wal_path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(wal_path, db)
        wal.attach()
        db.execute("INSERT INTO t VALUES (3, 'c')")
        sealed = wal.rotate()
        wal.close()
        assert sealed is not None and sealed not in flushed

    def test_fsync_directory_tolerates_unsyncable_directories(self):
        from repro.db.storage import fsync_directory

        fsync_directory("/definitely/not/a/real/path/file.json")

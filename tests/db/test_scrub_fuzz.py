"""Scrub's verdict agrees with what replay actually refuses.

The hand-picked scrub scenarios (``repro.sim.matrix``) damage files in
carefully chosen spots.  Here damage lands in *seeded
arbitrary* spots — a byte flipped anywhere, a cut at any offset — as a
step of the schedule driver (:mod:`repro.sim.group`), which checks the
law the taxonomy exists for after every flip or cut:

    **scrub's verdict must agree with what replay actually refuses.**

For a sealed WAL segment, ``FileVerdict.damaged`` must hold exactly
when strict replay (``read_wal_records(allow_torn_tail=False)``)
raises.  For the active segment, the torn-tail allowance is part of
the contract on *both* sides.  For an image, ``scrub_image`` must
agree with ``read_image``.  A disagreement is a violation on the run.
The seeded cases below aim the driver's damage at each kind of file;
``tests/federation/test_partition_properties.py`` draws the same steps
at random, at every node and in flight.

Bit flips cannot reach *structural* damage — a ``crc`` field that is
retyped, dropped or renamed, a header or image stamped with another
format version, a whole file rewritten without checksums — so
``TestStructuralDamage`` builds those by hand and holds them to the
same law, plus one more: scrub's first bad ``(record_index, offset)``
is exactly where replay and recovery stop.
"""

import json
import random
import re

import pytest

from repro.adapter import install_genomics
from repro.core.types import DnaSequence
from repro.db import Database
from repro.db.recovery import recover
from repro.db.scrub import scrub, scrub_image, scrub_wal_file
from repro.db.storage import (
    StorageError,
    WriteAheadLog,
    checkpoint,
    image_digest,
    list_sealed_segments,
    load_database,
    read_image,
    read_wal_records,
)
from repro.sim import group as sim

#: Seeded cases per target file; each case draws its own damage.
CASES = 12

#: The primary's files: twelve writes fill the active file; a rotation
#: seals them as generation 0 (over 900 bytes) before the new active
#: file's header; a checkpoint also writes an image.
ACTIVE = [("write",)] * 12
SEALED = ACTIVE + [("rotate",)]
IMAGE = ACTIVE + [("checkpoint",)]


def _damaged(state, case, salt, step):
    """The outcome of ``step(rng)`` on the primary after *state*: the
    error replay meets, or ``"ok"``; the law must hold."""
    rng = random.Random(repr(("scrub-fuzz", case, salt)))
    record = sim.run(state + [step(rng)])
    assert not record.disagreements, record.disagreements
    return record.steps[-1][1]


def _flip(target, size):
    return lambda rng: ("flip", "alpha", target, rng.randrange(size),
                        1 << rng.randrange(8))


def _cut(target, size):
    return lambda rng: ("cut", "alpha", target, rng.randrange(size))


def _genomic_database():
    database = Database()
    install_genomics(database)
    return database


@pytest.fixture()
def state(tmp_path):
    """A ``DNA``-column table in an image (rows 0–7), two sealed
    segments it does not cover (8–15, 16–23) and an active one."""
    image = str(tmp_path / "image.json")
    wal_path = str(tmp_path / "wal.jsonl")
    database = _genomic_database()
    log = WriteAheadLog(wal_path, database)
    log.attach()
    database.execute("CREATE TABLE genes (id INTEGER PRIMARY KEY, "
                     "name TEXT, seq DNA)")
    for index in range(30):
        if index == 8:
            checkpoint(database, image, log)
        elif index in (16, 24):
            log.rotate()
        database.execute("INSERT INTO genes VALUES (?, ?, ?)",
                         [index, f"g{index:04d}",
                          DnaSequence("ACGT"[index % 4] * 12)])
    log.close()
    return image, wal_path


class TestCleanStateHasZeroFalsePositives:
    def test_untouched_files_scrub_clean(self):
        record = sim.run(IMAGE + ACTIVE + [("rotate",), ("sync",),
                                           ("scrub", "bravo"),
                                           ("scrub", "charlie")])
        assert all(outcome == "ok" for __, outcome in record.steps)
        assert not record.disagreements   # the heal's scrub found nothing
        assert record.verdict.ok, record.verdict.violations

    def test_clean_replay_accepts_everything(self):
        """A zero mask flips nothing: scrub and replay both read it."""
        for state, target in ((SEALED, "wal"), (IMAGE, "image")):
            for case in range(CASES // 2):
                assert _damaged(state, case, "clean", lambda rng: (
                    "flip", "alpha", target, rng.randrange(2**16), 0)) == "ok"


@pytest.mark.parametrize("case", range(CASES))
class TestSealedSegmentAgreement:
    def test_random_byte_flip(self, case):
        _damaged(SEALED, case, "sealed-flip", _flip("wal", 900))

    def test_random_truncation(self, case):
        _damaged(SEALED, case, "sealed-cut", _cut("wal", 900))


@pytest.mark.parametrize("case", range(CASES))
class TestActiveSegmentAgreement:
    def test_random_byte_flip(self, case):
        _damaged(ACTIVE, case, "active-flip", _flip("wal", 2**16))

    def test_random_truncation_is_a_crash_artifact(self, case):
        assert _damaged(ACTIVE, case, "active-cut", _cut("wal", 2**16)) \
            == "ok"


@pytest.mark.parametrize("case", range(CASES))
class TestImageAgreement:
    def test_random_byte_flip(self, case):
        _damaged(IMAGE, case, "image-flip", _flip("image", 2**16))

    def test_random_truncation(self, case):
        _damaged(IMAGE, case, "image-cut", _cut("image", 2**16))


class TestVerdictsNameTheDamage:
    def test_damaged_verdicts_carry_a_taxonomy_kind(self):
        """Across many seeded flips, every damaged file is refused with
        a known taxonomy label (never a bare 'damaged')."""
        known = {"torn_tail", "malformed", "corrupt_middle", "bit_rot",
                 "digest_mismatch", "unreadable"}
        seen = {outcome.kind for case in range(CASES)
                for outcome in [_damaged(SEALED, case, "taxonomy",
                                         _flip("wal", 900))]
                if outcome != "ok"}
        assert seen and seen <= known, seen


_CRC = re.compile(r', "crc": (\d+)}$')


def _retype_crc(replacement):
    """Rewrite one line's ``crc`` value; *replacement* sees the digits."""
    return lambda line: _CRC.sub(
        lambda match: f', "crc": {replacement(match.group(1))}}}', line)


#: name -> (line number to damage, how); line 1 is the header.
_LINE_DAMAGE = {
    "crc-as-string": (3, _retype_crc(lambda digits: f'"{digits}"')),
    "crc-as-float": (3, _retype_crc(lambda digits: f"{digits}.5")),
    "crc-null": (3, _retype_crc(lambda digits: "null")),
    "crc-key-removed": (3, lambda line: _CRC.sub("}", line)),
    "crc-key-renamed-payload-edited": (
        3, lambda line: line.replace('"crc"', '"cro"')
                            .replace("genes", "genez", 1)),
    "header-version-1": (1, lambda line: line.replace('"$wal": 3',
                                                      '"$wal": 1')),
    "header-version-2": (1, lambda line: line.replace('"$wal": 3',
                                                      '"$wal": 2')),
    "header-version-99": (1, lambda line: line.replace('"$wal": 3',
                                                       '"$wal": 99')),
    "header-crc-stripped": (1, lambda line: _CRC.sub("}", line)),
}


def _rewrite_lines(path, damage):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    damaged = damage(lines)
    assert damaged != lines, "the damage did not change the file"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(damaged) + "\n")


def _strip_every_checksum(lines):
    """What a pre-checksum writer would have produced: no ``crc``
    anywhere and a version-1 header."""
    return [_CRC.sub("}", line).replace('"$wal": 3', '"$wal": 1')
            for line in lines]


class TestStructuralDamage:
    def _assert_all_three_agree(self, image, wal_path, target, number):
        verdict = scrub_wal_file(target)
        assert verdict.damaged, (verdict.verdict, verdict.detail)
        with pytest.raises(StorageError) as replayed:
            read_wal_records(target, allow_torn_tail=False)
        with pytest.raises(StorageError) as recovered:
            recover(image, wal_path, database=_genomic_database())
        report = scrub(image, wal_path)
        assert [found.path for found in report.damaged] == [target]
        first_bad = verdict.bad_offsets[0]
        assert first_bad[0] == number
        for error in (replayed.value, recovered.value):
            assert error.path == target
            assert (error.record_index, error.offset) == first_bad
            assert error.kind in ("bit_rot", "malformed")
        assert recovered.value.kind == replayed.value.kind
        return verdict, replayed.value

    @pytest.mark.parametrize("name", sorted(_LINE_DAMAGE))
    def test_damaged_line_is_refused_where_scrub_points(self, state,
                                                        name):
        image, wal_path = state
        __, target = list_sealed_segments(wal_path)[0]
        number, damage = _LINE_DAMAGE[name]

        def apply(lines):
            return (lines[:number - 1] + [damage(lines[number - 1])]
                    + lines[number:])

        _rewrite_lines(target, apply)
        verdict, error = self._assert_all_three_agree(
            image, wal_path, target, number)
        assert len(verdict.bad_offsets) == 1
        expected = "malformed" if name.startswith("header-version") \
            else "bit_rot"
        assert verdict.verdict == error.kind == expected
        if expected == "malformed":
            assert target in str(error) and "version 3" in str(error)

    def test_whole_file_checksum_strip_is_not_a_clean_legacy_log(
            self, state):
        image, wal_path = state
        __, target = list_sealed_segments(wal_path)[0]
        _rewrite_lines(target, _strip_every_checksum)
        verdict, error = self._assert_all_three_agree(
            image, wal_path, target, 1)
        assert error.kind == "malformed" and "version 1" in str(error)
        # Scrub goes on past the header: every record is bit rot.
        assert verdict.records_checked == 0
        assert len(verdict.bad_offsets) > 1

    def test_active_segment_gets_no_structural_allowance(self, state):
        """The torn-tail allowance is for unparseable bytes only: a
        final record that parses but carries no CRC is not a crash
        artifact on either side."""
        __, wal_path = state
        _rewrite_lines(wal_path, lambda lines: lines[:-1]
                       + [_CRC.sub("}", lines[-1])])
        verdict = scrub_wal_file(wal_path, active=True)
        assert verdict.damaged and verdict.verdict == "bit_rot"
        with pytest.raises(StorageError):
            read_wal_records(wal_path, allow_torn_tail=True)

    @staticmethod
    def _rewrite_image(path, damage, *, restamp):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        damage(document)
        if restamp:
            document["digest"] = image_digest(document)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    @pytest.mark.parametrize("damage, restamp, needle", [
        pytest.param(lambda image: (image.update(format=1),
                                    image.pop("digest")),
                     False, "format 1", id="format-1"),
        pytest.param(lambda image: image.pop("digest"),
                     False, "no digest", id="no-digest"),
        pytest.param(lambda image: image["tables"][0].pop("layout"),
                     True, "layout", id="table-without-layout"),
    ])
    def test_damaged_image_is_refused(self, state, damage, restamp,
                                      needle):
        image, __ = state
        self._rewrite_image(image, damage, restamp=restamp)
        verdict = scrub_image(image)
        assert verdict.damaged and verdict.verdict == "malformed"
        with pytest.raises(StorageError):
            read_image(image)
        with pytest.raises(StorageError) as excinfo:
            load_database(image, _genomic_database())
        error = excinfo.value
        assert error.kind == "malformed" and error.path == image
        assert image in str(error) and needle in str(error)

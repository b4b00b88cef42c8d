"""Randomized corruption fuzzing of the scrub taxonomy.

The hand-picked scrub scenarios (``repro.db.scrub.self_test``) damage
files in carefully chosen spots.  This fuzzer damages them in *seeded
arbitrary* spots — a byte flipped anywhere, a truncation at any offset
— and checks the property the taxonomy exists for:

    **scrub's verdict must agree with what replay actually refuses.**

For a sealed WAL segment, ``FileVerdict.damaged`` must hold exactly
when strict replay (``read_wal_records(allow_torn_tail=False)``)
raises.  For the active segment, the torn-tail allowance is part of
the contract on *both* sides.  For an image, ``scrub_image`` must
agree with ``read_image``.  And an untouched checkpointed state must
scrub perfectly clean — zero false positives, every time.

Bit flips cannot reach *structural* damage — a ``crc`` field that is
retyped, dropped or renamed, a header or image stamped with another
format version, a whole file rewritten without checksums — so
``TestStructuralDamage`` builds those by hand and holds them to the
same law, plus one more: scrub's first bad ``(record_index, offset)``
is exactly where replay and recovery stop.
"""

import json
import os
import random
import re

import pytest

from repro.db.recovery import _genomic_database, recover
from repro.db.scrub import (
    _build_checkpointed_state,
    scrub,
    scrub_image,
    scrub_wal_file,
)
from repro.db.storage import (
    StorageError,
    image_digest,
    list_sealed_segments,
    load_database,
    read_image,
    read_wal_records,
)
from tests.concurrency.scheduler import harness_seed

#: Seeded fuzz cases per target file; each case draws its own damage.
CASES = 12


def _rng(case: int, salt: str) -> random.Random:
    return random.Random(("scrub-fuzz", harness_seed(), case,
                          salt).__repr__())


def _flip_random_byte(path: str, rng: random.Random) -> int:
    """Flip one random bit of one random byte; returns the offset."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    offset = rng.randrange(len(data))
    data[offset] ^= 1 << rng.randrange(8)
    with open(path, "wb") as handle:
        handle.write(data)
    return offset


def _truncate_at_random(path: str, rng: random.Random) -> int:
    """Cut the file at a random offset; returns the new size."""
    size = os.path.getsize(path)
    keep = rng.randrange(size)
    with open(path, "rb") as handle:
        data = handle.read(keep)
    with open(path, "wb") as handle:
        handle.write(data)
    return keep


def _sealed_replay_refuses(path: str) -> bool:
    try:
        read_wal_records(path, allow_torn_tail=False)
        return False
    except StorageError:
        return True


def _active_replay_refuses(path: str) -> bool:
    try:
        read_wal_records(path, allow_torn_tail=True)
        return False
    except StorageError:
        return True


def _image_replay_refuses(path: str) -> bool:
    try:
        read_image(path)
        return False
    except StorageError:
        return True


@pytest.fixture()
def state(tmp_path):
    return _build_checkpointed_state(str(tmp_path))


class TestCleanStateHasZeroFalsePositives:
    def test_untouched_files_scrub_clean(self, state):
        image, wal_path = state
        report = scrub(image, wal_path)
        assert report.ok
        assert report.damaged == []
        assert report.files_scanned == 4     # image + 2 sealed + active
        assert report.records_verified > 0
        assert all(not verdict.bad_offsets
                   for verdict in report.verdicts)

    def test_clean_replay_accepts_everything(self, state):
        image, wal_path = state
        assert not _image_replay_refuses(image)
        assert not _active_replay_refuses(wal_path)
        for __, sealed in list_sealed_segments(wal_path):
            assert not _sealed_replay_refuses(sealed)


class TestSealedSegmentAgreement:
    @pytest.mark.parametrize("case", range(CASES))
    def test_random_byte_flip(self, tmp_path, case):
        __, wal_path = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "sealed-flip")
        segments = list_sealed_segments(wal_path)
        __, target = segments[rng.randrange(len(segments))]
        _flip_random_byte(target, rng)
        verdict = scrub_wal_file(target)
        assert verdict.damaged == _sealed_replay_refuses(target), \
            (verdict.kind, verdict.verdict, verdict.detail)

    @pytest.mark.parametrize("case", range(CASES))
    def test_random_truncation(self, tmp_path, case):
        __, wal_path = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "sealed-cut")
        segments = list_sealed_segments(wal_path)
        __, target = segments[rng.randrange(len(segments))]
        _truncate_at_random(target, rng)
        verdict = scrub_wal_file(target)
        assert verdict.damaged == _sealed_replay_refuses(target), \
            (verdict.kind, verdict.verdict, verdict.detail)


class TestActiveSegmentAgreement:
    @pytest.mark.parametrize("case", range(CASES))
    def test_random_byte_flip(self, tmp_path, case):
        __, wal_path = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "active-flip")
        _flip_random_byte(wal_path, rng)
        verdict = scrub_wal_file(wal_path, active=True)
        # The torn-tail allowance applies on both sides: a trailing
        # crash artifact is dropped by replay and non-damaging to
        # scrub; damage anywhere else refuses on both sides.
        assert verdict.damaged == _active_replay_refuses(wal_path), \
            (verdict.kind, verdict.verdict, verdict.detail)

    @pytest.mark.parametrize("case", range(CASES))
    def test_random_truncation_is_a_crash_artifact(self, tmp_path,
                                                   case):
        __, wal_path = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "active-cut")
        _truncate_at_random(wal_path, rng)
        verdict = scrub_wal_file(wal_path, active=True)
        assert verdict.damaged == _active_replay_refuses(wal_path), \
            (verdict.kind, verdict.verdict, verdict.detail)


class TestImageAgreement:
    @pytest.mark.parametrize("case", range(CASES))
    def test_random_byte_flip(self, tmp_path, case):
        image, __ = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "image-flip")
        _flip_random_byte(image, rng)
        verdict = scrub_image(image)
        assert verdict.damaged == _image_replay_refuses(image), \
            (verdict.kind, verdict.verdict, verdict.detail)

    @pytest.mark.parametrize("case", range(CASES))
    def test_random_truncation(self, tmp_path, case):
        image, __ = _build_checkpointed_state(str(tmp_path))
        rng = _rng(case, "image-cut")
        _truncate_at_random(image, rng)
        verdict = scrub_image(image)
        assert verdict.damaged == _image_replay_refuses(image), \
            (verdict.kind, verdict.verdict, verdict.detail)


class TestVerdictsNameTheDamage:
    def test_damaged_verdicts_carry_a_taxonomy_kind(self, tmp_path):
        """Across many seeded flips, every damaged verdict classifies
        itself with a known taxonomy label (never a bare 'damaged')."""
        known = {"torn_tail", "malformed", "corrupt_middle", "bit_rot",
                 "digest_mismatch", "unreadable"}
        seen = set()
        for case in range(CASES):
            workdir = tmp_path / f"case{case}"
            workdir.mkdir()
            __, wal_path = _build_checkpointed_state(str(workdir))
            rng = _rng(case, "taxonomy")
            __, target = list_sealed_segments(wal_path)[0]
            _flip_random_byte(target, rng)
            verdict = scrub_wal_file(target)
            if verdict.damaged:
                assert verdict.verdict in known, verdict.verdict
                seen.add(verdict.verdict)
        assert seen, "no flip damaged anything — fuzzer is toothless"


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
        assert _active_replay_refuses(wal_path)

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
        assert _image_replay_refuses(image)
        with pytest.raises(StorageError) as excinfo:
            load_database(image, _genomic_database())
        error = excinfo.value
        assert error.kind == "malformed" and error.path == image
        assert image in str(error) and needle in str(error)

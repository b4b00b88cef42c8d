"""The 4-bit codec under every nucleotide sequence (``_pack4`` / ``_unpack4``).

The old per-byte one-liners are kept here as the reference: the C-speed
codec must agree with them on every input, must never touch its
argument, and ``from_bytes`` must refuse a payload whose pad nibble is
not zero (equality and hashing read the packed bytes, so a dirty pad
would make two sequences that print alike compare unequal).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types.sequence import (
    DnaSequence,
    ProteinSequence,
    RnaSequence,
    _pack4,
    _unpack4,
)
from repro.errors import SequenceError


def reference_pack4(codes: bytes) -> bytes:
    codes = bytes(codes)
    if len(codes) % 2:
        codes += b"\x00"
    return bytes(
        (high << 4) | low for high, low in zip(codes[::2], codes[1::2])
    )


def reference_unpack4(packed: bytes, length: int) -> bytes:
    table = [bytes(((byte >> 4) & 0xF, byte & 0xF)) for byte in range(256)]
    return b"".join(table[byte] for byte in packed)[:length]


@pytest.mark.parametrize("length", range(66))
def test_codec_matches_the_reference_at_every_length(length):
    codes = bytes((index * 7 + length) % 16 for index in range(length))
    packed = _pack4(codes)
    assert packed == reference_pack4(codes)
    assert type(packed) is bytes and len(packed) == (length + 1) // 2
    assert _unpack4(packed, length) == reference_unpack4(packed, length)
    assert _unpack4(packed, length) == codes


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300).map(lambda raw: bytes(b & 0xF for b in raw)))
def test_codec_matches_the_reference(codes):
    packed = _pack4(codes)
    assert packed == reference_pack4(codes)
    assert _unpack4(packed, len(codes)) == codes


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=150), st.integers(min_value=0, max_value=310))
def test_unpack_matches_the_reference_on_any_bytes(packed, length):
    # Every byte value, and a length short of, at and past the payload.
    assert _unpack4(packed, length) == reference_unpack4(packed, length)


@pytest.mark.parametrize("bad", [16, 48, 97, 255])
def test_pack_refuses_codes_that_do_not_fit_a_nibble(bad):
    # ord("0") and ord("a") are hex digits: they must not slip through.
    with pytest.raises(ValueError):
        _pack4(bytes([1, bad]))


def test_pack_never_mutates_a_bytearray_argument():
    buffer = bytearray([1, 2, 3])
    sequence = DnaSequence.from_codes(buffer)
    assert buffer == bytearray([1, 2, 3])
    assert sequence == DnaSequence.from_codes(bytes([1, 2, 3]))
    _pack4(buffer)
    assert buffer == bytearray([1, 2, 3])


def test_from_codes_still_takes_any_sequence_of_codes():
    assert DnaSequence.from_codes([1, 2, 3]) == \
        DnaSequence.from_codes(bytes([1, 2, 3]))


@pytest.mark.parametrize("klass, text", [(DnaSequence, "ACG"),
                                         (RnaSequence, "ACGUA")])
def test_from_bytes_refuses_a_dirty_pad_nibble(klass, text):
    clean = klass(text)
    data = clean.to_bytes()
    assert klass.from_bytes(data) == clean
    dirty = data[:-1] + bytes((data[-1] | 0x05,))
    with pytest.raises(SequenceError,
                       match="corrupt sequence serialization payload"):
        klass.from_bytes(dirty)


def test_from_bytes_keeps_every_low_nibble_of_an_even_length():
    # With an even length the last low nibble is data, not padding.
    for text in ("ACGT", "ACGN", "TT"):
        sequence = DnaSequence(text)
        assert DnaSequence.from_bytes(sequence.to_bytes()) == sequence
    protein = ProteinSequence("MKV")  # one byte per residue: no pad at all
    assert ProteinSequence.from_bytes(protein.to_bytes()) == protein

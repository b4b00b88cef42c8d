"""Property suite for the column page codec (``repro.db.columnar.pages``).

Round-trips every page encoding through ``encode_page``/``decode_page``
(nulls in every position, dictionary overflow past 255 distinct strings,
integers beyond int64, empty and all-NULL pages), pins the checksum
taxonomy of PR 7 (a flipped byte is ``bit_rot``; truncation, foreign
bytes and unknown format/encoding tags are ``malformed``), and checks
the zone-map contract: ``zone_excludes`` may only prune a page when no
value on it could satisfy the bounds.
"""

import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ops
from repro.core.types import DnaSequence, ProteinSequence, RnaSequence
from repro.core.types.alphabet import DNA, PROTEIN, RNA
from repro.db.catalog import Catalog
from repro.db.columnar import pages
from repro.db.columnar.spill import ValueCodec
from repro.db.columnar.store import zone_excludes
from repro.db.values import NULL
from repro.errors import StorageError

CODEC = ValueCodec(Catalog())


def page_encoding(data: bytes) -> int:
    """The encoding tag in a page's header (no checksum verification)."""
    return pages._HEADER.unpack_from(data)[2]


def roundtrip(values, type_name):
    data = pages.encode_page(values, type_name, CODEC)
    return data, pages.decode_page(data, CODEC)


def nullable(strategy):
    return st.lists(st.one_of(st.just(NULL), strategy), max_size=40)


ints = st.integers(min_value=-(10 ** 25), max_value=10 ** 25)
floats = st.floats(allow_nan=False)
texts = st.text(max_size=12)
blobs = st.binary(max_size=16)
#: Sequences of every class: empty, odd and even lengths, ambiguity
#: codes, gaps.
sequences = st.one_of(
    st.text(alphabet=DNA.symbols, max_size=33).map(DnaSequence),
    st.text(alphabet=RNA.symbols, max_size=9).map(RnaSequence),
    st.text(alphabet=PROTEIN.symbols, max_size=9).map(ProteinSequence))


# -- round trips ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(nullable(ints))
def test_int_pages_round_trip(values):
    data, decoded = roundtrip(values, "INTEGER")
    assert decoded == values
    assert page_encoding(data) == pages.INT


def test_int_pages_fall_back_to_json_past_int64():
    values = [1, 1 << 100, NULL, -(1 << 90), 0]
    data, decoded = roundtrip(values, "INTEGER")
    assert decoded == values
    assert page_encoding(data) == pages.INT


@settings(max_examples=60, deadline=None)
@given(nullable(floats))
def test_float_pages_round_trip(values):
    data, decoded = roundtrip(values, "REAL")
    assert decoded == values
    assert page_encoding(data) == pages.FLOAT


@settings(max_examples=60, deadline=None)
@given(nullable(st.booleans()))
def test_bool_pages_round_trip(values):
    data, decoded = roundtrip(values, "BOOLEAN")
    assert decoded == values
    assert page_encoding(data) == pages.BOOL


@settings(max_examples=60, deadline=None)
@given(nullable(texts))
def test_text_pages_round_trip(values):
    data, decoded = roundtrip(values, "TEXT")
    assert decoded == values
    assert page_encoding(data) == pages.DICT


def test_dictionary_overflow_stays_lossless():
    # More than 255 distinct strings forces the 2-byte code width.
    distinct = [f"value-{index:04d}" for index in range(300)]
    values = distinct + [NULL] + distinct[::-1]
    data, decoded = roundtrip(values, "TEXT")
    assert decoded == values
    assert page_encoding(data) == pages.DICT


@settings(max_examples=60, deadline=None)
@given(nullable(blobs))
def test_blob_pages_round_trip(values):
    data, decoded = roundtrip(values, "BLOB")
    assert decoded == values
    assert page_encoding(data) == pages.BLOB


@settings(max_examples=60, deadline=None)
@given(nullable(sequences), st.booleans())
def test_seq_pages_round_trip(values, one_alphabet):
    if one_alphabet:
        values = [value for value in values
                  if value is NULL or isinstance(value, DnaSequence)]
    data, decoded = roundtrip(values, "DNA")
    assert decoded == values
    if any(value is not NULL for value in values):
        assert page_encoding(data) == pages.SEQ
        assert pages.seq_page(data).rows() == \
            [value for value in values if value is not NULL]


def test_seq_page_exposes_the_packed_buffer():
    values = [ops.decode("ACGTACGTN"), NULL, ops.decode("GG"),
              ops.decode(""), ops.decode("T")]
    present = [value for value in values if value is not NULL]
    view = pages.seq_page(pages.encode_page(values, "DNA", CODEC))
    assert view.nulls == [False, True, False, False, False]
    assert view.classes == [type(present[0])] and view.index is None
    assert view.lengths == (9, 2, 0, 1)
    # One buffer: every payload verbatim, end to end.
    assert view.packed == b"".join(value._packed for value in present)
    assert view.starts == [0, 5, 6, 6, 7]
    assert view.rows() == present
    # ... un-nibbled once; an odd row's pad nibble lies outside its span.
    codes, starts, ends = view.spans()
    assert len(codes) == 2 * len(view.packed)
    assert [codes[start:end] for start, end in zip(starts, ends)] == \
        [value.codes() for value in present]
    # A non-SEQ page is signalled, not misread.
    assert pages.seq_page(pages.encode_page([1], "INTEGER", CODEC)) is None


def test_a_mixed_alphabet_page_keeps_every_row_its_class():
    values = [ops.decode("ACG"), ops.decode_protein("MKV*"), NULL,
              ops.decode_rna("ACGUN"), ops.decode_protein(""),
              ops.decode("TT")]
    data, decoded = roundtrip(values, "DNA")
    assert decoded == values
    assert [type(value) for value in decoded] == \
        [type(value) for value in values]
    view = pages.seq_page(data)
    assert [klass.alphabet.name for klass in view.classes] == \
        ["dna", "protein", "rna"]
    assert view.index == bytes([0, 1, 2, 1, 0])
    # One alphabet costs no index, and a row four bytes past its payload.
    one = pages.encode_page(values[:1] * 3, "DNA", CODEC)
    # header, bitmap, table, lengths, payloads, CRC
    assert len(one) == 8 + 1 + (1 + 1 + 3) + 3 * 4 + 3 * 2 + 4


def test_mixed_values_take_the_obj_fallback():
    # A TEXT column holding non-strings can't dictionary-encode; the
    # OBJ fallback must still round-trip exactly (bytes tagged in-band).
    values = ["abc", 42, NULL, 2.5, True, b"\x00\xff"]
    data, decoded = roundtrip(values, "TEXT")
    assert decoded == values
    assert page_encoding(data) == pages.OBJ


class _Ordinal(int):
    """An ``int`` subclass, as an ``IntEnum`` member is."""


def test_the_encoding_is_chosen_from_the_set_of_value_types():
    # Decided from set(map(type, values)), one issubclass per type: what
    # the five per-value isinstance passes decided, on every input.
    def choose(type_name, values):
        return pages.choose_encoding(type_name, set(map(type, values)))

    assert choose("INTEGER", [1, 2, 3]) == pages.INT
    assert choose("INTEGER", [1, True]) == pages.OBJ      # True is no INT
    assert choose("INTEGER", [True]) == pages.OBJ
    assert choose("INTEGER", [1, 2.0]) == pages.OBJ
    assert choose("INTEGER", [_Ordinal(4), 1]) == pages.INT
    assert choose("REAL", [1.5, 2.5]) == pages.FLOAT
    assert choose("REAL", [1.5, 2]) == pages.OBJ
    assert choose("BOOLEAN", [True, False]) == pages.BOOL
    assert choose("BOOLEAN", [True, 1]) == pages.OBJ
    assert choose("TEXT", ["a"]) == pages.DICT
    assert choose("BLOB", [b"a"]) == pages.BLOB
    assert choose("BLOB", [bytearray(b"a")]) == pages.OBJ
    assert choose("DNA", [DnaSequence("ACGT")]) == pages.SEQ
    assert choose("TEXT", [DnaSequence("ACGT")]) == pages.SEQ
    assert choose("DNA", [DnaSequence("ACGT"), "ACGT"]) == pages.OBJ
    for type_name in ("INTEGER", "REAL", "BOOLEAN", "TEXT", "BLOB"):
        assert choose(type_name, []) != pages.OBJ
    assert choose("DNA", []) == pages.OBJ
    # An int subclass packs as the int it is and comes back that value.
    values = [_Ordinal(4), NULL, _Ordinal(-9)]
    data, decoded = roundtrip(values, "INTEGER")
    assert decoded == [4, NULL, -9]
    assert page_encoding(data) == pages.INT
    # True among integers survives as True, not as 1.
    __, decoded = roundtrip([1, True, NULL], "INTEGER")
    assert decoded == [1, True, NULL] and decoded[1] is True


@pytest.mark.parametrize("values, encoding", [
    ([1, NULL, -7], pages.INT), ([0.5, NULL, float("inf")], pages.FLOAT),
    ([True, NULL, False], pages.BOOL), (["a", NULL, ""], pages.DICT),
    ([b"\x00", NULL, b""], pages.BLOB),
    ([DnaSequence("ACGTN"), NULL, RnaSequence("ACGU")], pages.SEQ),
    ([1, 2.5, NULL], pages.OBJ), ([1, True], pages.OBJ),
    ([NULL, NULL], pages.INT), ([], pages.INT),
])
def test_a_page_without_a_declared_type_takes_the_encoding_it_fits(
        values, encoding):
    # What a spilled block is: the values of an expression, no column.
    data = pages.encode_page(values, None, CODEC)
    decoded = pages.decode_page(data, CODEC)
    assert page_encoding(data) == encoding
    assert decoded == values
    assert list(map(type, decoded)) == list(map(type, values))


def test_empty_and_all_null_pages():
    for values in ([], [NULL], [NULL] * 9):
        data, decoded = roundtrip(values, "INTEGER")
        assert decoded == values
        assert pages.zone_map_of(values) == pages.ZONE_EMPTY


# -- checksum taxonomy ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(nullable(ints), st.data())
def test_any_flipped_bit_is_bit_rot(values, data_strategy):
    data = pages.encode_page(values, "INTEGER", CODEC)
    index = data_strategy.draw(
        st.integers(min_value=2, max_value=len(data) - 1))
    bit = data_strategy.draw(st.integers(min_value=0, max_value=7))
    corrupted = bytearray(data)
    corrupted[index] ^= 1 << bit
    with pytest.raises(StorageError) as caught:
        pages.decode_page(bytes(corrupted), CODEC, page_id=7)
    assert caught.value.kind == "bit_rot"


def test_truncation_and_foreign_bytes_are_malformed():
    data = pages.encode_page([1, 2, 3], "INTEGER", CODEC)
    for broken in (data[:6], b"", b"not a page at all"):
        with pytest.raises(StorageError) as caught:
            pages.decode_page(broken, CODEC)
        assert caught.value.kind == "malformed"


def _with_header_byte(data: bytes, index: int, value: int) -> bytes:
    # Rewrite one header byte and restore a valid CRC, so the *format*
    # check (not the checksum) is what rejects the page.
    body = bytearray(data[:-4])
    body[index] = value
    return bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little")


def test_unknown_format_and_encoding_are_malformed():
    data = pages.encode_page([1, 2, 3], "INTEGER", CODEC)
    for index in (2, 3):  # format byte, encoding byte
        with pytest.raises(StorageError) as caught:
            pages.decode_page(_with_header_byte(data, index, 99), CODEC)
        assert caught.value.kind == "malformed"


def _restamped(body: bytes) -> bytes:
    """*body* (a page minus its footer) under a valid CRC."""
    return body + zlib.crc32(body).to_bytes(4, "little")


#: One value list per encoding (INT twice: packed and the JSON fallback;
#: SEQ twice: one alphabet and three).
SHORT_PAGES = {
    pages.INT: ("INTEGER", [7, NULL, -3] * 6),
    "int-json": ("INTEGER", [1 << 100, NULL, 5] * 6),
    pages.FLOAT: ("REAL", [0.5, NULL, -1.25] * 6),
    pages.BOOL: ("BOOLEAN", [True, NULL, False] * 12),
    pages.DICT: ("TEXT", ["human", NULL, "mouse"] * 6),
    pages.BLOB: ("BLOB", [b"abcd", NULL, b"xy"] * 6),
    pages.SEQ: ("DNA", [ops.decode("ACGTACGT"), NULL] * 6),
    "seq-mixed": ("DNA", [ops.decode("ACGTACG"), NULL, ops.decode_rna("UU"),
                          ops.decode_protein("MKV")] * 3),
    pages.OBJ: ("TEXT", ["abc", 42, NULL, 2.5] * 4),
}


@pytest.mark.parametrize("encoding", SHORT_PAGES, ids=str)
def test_a_short_body_under_a_valid_crc_is_malformed(encoding):
    # Three bytes cut from the body and the CRC restamped: the checksum
    # passes, so only the declared counts and lengths can catch it.  It
    # must be a StorageError naming the page and the encoding — never a
    # bare struct.error, and never a silently shorter value list.
    type_name, values = SHORT_PAGES[encoding]
    data = pages.encode_page(values, type_name, CODEC)
    tag = page_encoding(data)
    assert tag == {"int-json": pages.INT,
                   "seq-mixed": pages.SEQ}.get(encoding, encoding)
    assert pages.decode_page(data, CODEC) == values
    short = _restamped(data[:-4][:-3])
    readers = [lambda: pages.decode_page(short, CODEC, page_id=41)]
    if tag == pages.SEQ:
        readers.append(lambda: pages.seq_page(short, page_id=41))
    for read in readers:
        with pytest.raises(StorageError) as caught:
            read()
        assert caught.value.kind == "malformed"
        assert "41" in str(caught.value)
        assert pages.ENCODING_NAMES[tag] in str(caught.value)


@pytest.mark.parametrize("encoding", SHORT_PAGES, ids=str)
def test_trailing_bytes_under_a_valid_crc_are_malformed(encoding):
    type_name, values = SHORT_PAGES[encoding]
    data = pages.encode_page(values, type_name, CODEC)
    with pytest.raises(StorageError) as caught:
        pages.decode_page(_restamped(data[:-4] + b"\x00\x00"), CODEC)
    assert caught.value.kind == "malformed"


@pytest.mark.parametrize("encoding", [pages.SEQ, "seq-mixed"], ids=str)
def test_no_cut_and_no_lie_in_a_seq_body_escapes_as_a_bare_error(encoding):
    # The SEQ body is read through counts and lengths it states itself:
    # whatever is cut from it, and whichever of its bytes lies — a table
    # size, a name, an alphabet index, a length — the readers either
    # raise StorageError(malformed) or still return one row per row,
    # never struct.error / IndexError / a shorter list.
    type_name, values = SHORT_PAGES[encoding]
    data = pages.encode_page(values, type_name, CODEC)
    body_at = 8 + (len(values) + 7) // 8
    body = data[body_at:-4]
    present = sum(value is not NULL for value in values)
    bodies = [body[:size] for size in range(len(body))]
    for at in range(len(body) - len(pages.seq_page(data).packed)):
        for value in (0, body[at] ^ 1, body[at] + 1, 0xFF):
            bodies.append(body[:at] + bytes((value,)) + body[at + 1:])
    refused = 0
    for broken in bodies:
        page = _restamped(data[:body_at] + broken)
        for read in (lambda: pages.decode_page(page, CODEC, page_id=5),
                     lambda: pages.seq_page(page, page_id=5).rows()):
            try:
                rows = read()
            except StorageError as exc:
                assert exc.kind == "malformed" and "5 (SEQ)" in str(exc)
                refused += 1
            else:
                assert sum(row is not NULL for row in rows) == present
    assert refused > len(body)  # every cut, and most lies


def test_a_format_1_page_has_no_reader():
    # Pages never outlive the process that sealed them, so format 2
    # replaced format 1 outright.
    data = pages.encode_page([ops.decode("ACGT")], "DNA", CODEC)
    for read in (lambda page: pages.decode_page(page, CODEC),
                 pages.seq_page):
        with pytest.raises(StorageError, match="unknown format 1") as caught:
            read(_with_header_byte(data, 2, 1))
        assert caught.value.kind == "malformed"


def test_a_dictionary_code_past_the_dictionary_is_malformed():
    data = pages.encode_page(["a", "b", "a"], "TEXT", CODEC)
    body = bytearray(data[:-4])
    body[-1] = 9  # the last row's code; the dictionary has two entries
    with pytest.raises(StorageError) as caught:
        pages.decode_page(_restamped(bytes(body)), CODEC, page_id=3)
    assert caught.value.kind == "malformed"


# -- the bytes on disk ------------------------------------------------------

#: SHA-256 of ``encode_page`` output.  Format 2 changed the SEQ body and
#: nothing else, so every other digest is still the one computed with the
#: per-value encoders of format 1, and is checked with the format byte
#: set back to 1; ``seq`` pins the format-2 page as written.
PINNED_PAGES = {
    "int": ("INTEGER", [3, NULL, -7, 1 << 40, 0, NULL, -(1 << 63),
                        (1 << 63) - 1, 12, 5, NULL, 9, 1, 2, 3, 4, 5, 6, 7,
                        8, 9],
            "326d1adaa4e206a01f3c2249336348d4d02d39b5e581bbb7aaab3a326e4f147f"),
    "int_json": ("INTEGER", [1, 1 << 100, NULL, -(1 << 90), 0] * 4,
                 "2759d61b40e637be08847bec8239005eacc1f256daec23b3695e632472ebb3a7"),
    "float": ("REAL", [0.5, NULL, -1.25, 1e300, 0.0, -0.0, NULL,
                       3.141592653589793] * 3,
              "7bf449a6806b394cc23f4c849c672178164fbc86818dac826cea16df8340322d"),
    "bool": ("BOOLEAN", [True, False, NULL, True, True, NULL, False] * 5,
             "4e2304df8cee930e382e13fef022bead96f63e42ecfab3e962ece380425b89d9"),
    "dict": ("TEXT", ["human", "mouse", NULL, "human", "", "zebrafish",
                      "mouse", "\u00e9"] * 3,
             "fa2ad4fa696211861dc9c778db47819a33cf836d3ccee8a6283ea90ee29a6dbc"),
    "dict_wide": ("TEXT", [f"v{index:03d}" for index in range(300)]
                  + [NULL, "v007"],
                  "1d1c13b0a7bb189a24df6032e596695b2c782f3870254213881033e5d1616b19"),
    "blob": ("BLOB", [b"\x00\xff", b"", NULL, b"abc" * 5, b"z"] * 4,
             "349f235ff0f7fe1c51f4454e39b30f03bda707be77b04788b82ea3fd081d4314"),
    "seq": ("DNA", [ops.decode("ACGTACGTN"), NULL, ops.decode("GG"),
                    ops.decode("ACG"), ops.decode("T" * 33)] * 4,
            "2729915e2403da13fb5173ee4af7b10631415f309ece223fa486f01308ee8ac5"),
    "obj": ("TEXT", ["abc", 42, NULL, 2.5, True, b"\x00\xff"] * 4,
            "0f4a8da51003f9a3b1e89e324a15da24aa826931fce752d82367af230fac74bb"),
    "dense": ("INTEGER", list(range(256)),
              "dfdea63363274adc8b2bc3edd755c4dff1ba807ff641d534fa6a392ceb17facb"),
    "empty": ("INTEGER", [],
              "f20c40f189214841fe1b7d22bc222bfbffd064b19d3bffa542b088e7f45dd332"),
    "all_null": ("REAL", [NULL] * 9,
                 "142dd95583bf255b9db3e49a3759e509e2105803d4b8f833369d89dda027a107"),
}


@pytest.mark.parametrize("name", PINNED_PAGES)
def test_encoded_page_bytes_are_pinned(name):
    type_name, values, digest = PINNED_PAGES[name]
    data = pages.encode_page(values, type_name, CODEC)
    pinned = data if name == "seq" else _with_header_byte(data, 2, 1)
    assert hashlib.sha256(pinned).hexdigest() == digest
    assert pages.decode_page(data, CODEC) == values
    assert pages.PAGE_FORMAT == 2 == data[2]


# -- zone maps --------------------------------------------------------------


def test_zone_map_categories():
    assert pages.zone_map_of([3, 1, 2]) == (1, 3)
    assert pages.zone_map_of([2.5, NULL, -1.0]) == (-1.0, 2.5)
    assert pages.zone_map_of(["b", "a"]) == ("a", "b")
    assert pages.zone_map_of([NULL, NULL]) == pages.ZONE_EMPTY
    assert pages.zone_map_of([]) == pages.ZONE_EMPTY
    assert pages.zone_map_of([True, False]) is None
    assert pages.zone_map_of([1, "a"]) is None
    assert pages.zone_map_of([b"x"]) is None


bound = st.one_of(st.none(), st.just(NULL),
                  st.integers(min_value=-50, max_value=50),
                  st.text(max_size=2), st.booleans())
scalar = st.one_of(st.just(NULL),
                   st.integers(min_value=-50, max_value=50),
                   st.floats(min_value=-50, max_value=50,
                             allow_nan=False),
                   st.text(max_size=2), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(scalar, max_size=15), bound, bound,
       st.booleans(), st.booleans())
def test_zone_excludes_never_prunes_a_match(values, low, high,
                                            include_low, include_high):
    zone = pages.zone_map_of(values)
    if not zone_excludes(zone, low, include_low, high, include_high):
        return

    def satisfies(value):
        if value is NULL:
            return False
        if low is NULL or high is NULL:
            return False  # comparisons with NULL are never true
        if low is not None:
            if value < low or (value == low and not include_low):
                return False
        if high is not None:
            if value > high or (value == high and not include_high):
                return False
        return True

    assert not any(satisfies(value) for value in values)

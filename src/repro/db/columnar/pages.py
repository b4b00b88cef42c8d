"""Column pages: fixed-capacity packed segments of one table column.

The paper (section 4.3) demands that genomic values "not be realized as
complicated structures in main memory but be embedded into compact
storage areas which can be efficiently transferred between main memory
and disk".  A :class:`~repro.db.columnar.store.ColumnStore` realizes
that for whole tables: every ``page_rows`` inserted rows seal into one
**column page per column** — a self-describing byte string that is the
unit of caching, eviction, disk spill and vectorized evaluation.

Encodings (chosen per page from the column type and the actual values):

==========  =================================================================
``INT``     non-null values packed as little-endian ``int64`` (arbitrary-
            precision ints fall back to a JSON payload, flagged in-band)
``FLOAT``   non-null values packed as little-endian ``float64``
``BOOL``    a second bitmap next to the null bitmap
``DICT``    dictionary-encoded strings: distinct values in first-occurrence
            order + one 1- or 2-byte code per non-null row (the width grows
            with the dictionary, so overflow is representable, never lossy)
``BLOB``    length-prefixed concatenated byte strings
``SEQ``     packed sequences, columnar inside: an alphabet table (plus a
            one-byte index per row only if the page mixes alphabets), the
            symbol counts as one ``<nI`` array, then every packed payload
            verbatim — the one buffer :class:`SeqPage` hands the kernels
``OBJ``     fallback: any value the engine can serialize (UDTs via their
            :class:`~repro.db.values.OpaqueType`)
==========  =================================================================

Every page carries a null bitmap, a **zone map** (min/max over the
non-null values, when they are totally ordered) and a CRC32 footer in
the same failure taxonomy as the WAL: a page whose checksum does not
match raises :class:`~repro.errors.StorageError` with
``kind="bit_rot"`` instead of silently decoding garbage, and one whose
checksum holds but whose body is not exactly what its counts and
lengths declare raises ``kind="malformed"``.

Pages move between values and bytes a whole array at a time (one
``struct`` call per page, not per value; bitmaps through one big
integer), and a page without NULLs skips the bitmap scatter: sealing it
makes no per-value pass to find NULLs, and an INT, FLOAT, BOOL or DICT
one decodes to a :class:`~repro.db.values.OneKind` column.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import accumulate
from typing import Any, Sequence

from repro.core.types.sequence import PackedSequence, sequence_class_for
from repro.db.values import NULL, OneKind
from repro.errors import SequenceError, StorageError

#: Default number of rows per sealed page (one row group).
PAGE_ROWS = 256

#: On-page format version.  2 made the SEQ body columnar inside; there is
#: no reader for 1, because no page outlives the process that sealed it.
PAGE_FORMAT = 2

#: Encoding tags (one byte on the wire).
INT, FLOAT, BOOL, DICT, BLOB, SEQ, OBJ = 1, 2, 3, 4, 5, 6, 7

#: What error messages call each encoding.
ENCODING_NAMES = {INT: "INT", FLOAT: "FLOAT", BOOL: "BOOL", DICT: "DICT",
                  BLOB: "BLOB", SEQ: "SEQ", OBJ: "OBJ"}

_MAGIC = b"CP"
_HEADER = struct.Struct("<2sBBI")  # magic, format, encoding, row count
_U32 = struct.Struct("<I")

#: Zone-map sentinel for a page with no non-null values: any comparison
#: predicate is provably false over it, so scans may skip it outright.
ZONE_EMPTY = "empty"

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bitmap(flags: Sequence[bool]) -> bytes:
    """Flag ``i`` as bit ``i % 8`` of byte ``i // 8``: the flags, last
    first, are the binary digits of one little-endian integer."""
    if not flags:
        return b""
    digits = bytes(flags)[::-1].translate(_BIT_DIGITS)
    return int(digits, 2).to_bytes((len(flags) + 7) // 8, "little")


def _unpack_bitmap(data: bytes, count: int) -> list[bool]:
    digits = format(int.from_bytes(data, "little"), f"0{count}b")
    return list(map("1".__eq__, digits[::-1][:count]))


def zone_map_of(values: Sequence[Any]) -> "tuple[Any, Any] | str | None":
    """The (min, max) zone map over *values*, ignoring NULLs:
    :data:`ZONE_EMPTY` when every value is NULL (no comparison predicate
    can hold over such a page), ``None`` when the values are not of one
    totally ordered scalar type (no pruning possible)."""
    present = [value for value in values if value is not NULL]
    kinds = set(map(type, present))
    if not present:
        return ZONE_EMPTY
    if kinds <= {int, float} or kinds == {str}:
        return min(present), max(present)
    return None


class _BodyMismatch(ValueError):
    """A page body is not what its own counts and lengths declare."""


def _exactly(body: bytes, size: int) -> None:
    if len(body) != size:
        raise _BodyMismatch(
            f"holds a {len(body)}-byte body where it declares {size}")


def _counted(values: list, count: int) -> list:
    if len(values) != count:
        raise _BodyMismatch(
            f"holds {len(values)} values where it declares {count}")
    return values


# -- body codecs (non-null values only; the null bitmap restores positions)

def _encode_int(values: list[Any]) -> bytes:
    try:
        return b"\x00" + struct.pack(f"<{len(values)}q", *values)
    except struct.error:  # past int64: JSON, flagged in-band
        payload = json.dumps(values).encode("utf-8")
        return b"\x01" + _U32.pack(len(payload)) + payload


def _decode_int(body: bytes, count: int) -> list[Any]:
    if body[:1] == b"\x00":
        _exactly(body, 1 + 8 * count)
        return OneKind(struct.unpack_from(f"<{count}q", body, 1), float)
    if body[:1] != b"\x01":
        raise _BodyMismatch("has no INT body flag")
    (size,) = _U32.unpack_from(body, 1)
    _exactly(body, 5 + size)
    return _counted(json.loads(body[5:]), count)


def _decode_float(body: bytes, count: int) -> list[float]:
    _exactly(body, 8 * count)
    return OneKind(struct.unpack(f"<{count}d", body), float)


def _encode_seq(values: list[PackedSequence]) -> bytes:
    names = [value.alphabet.name for value in values]
    table = list(dict.fromkeys(names))
    parts = [bytes((len(table),))]
    for name in table:
        parts.append(bytes((len(name),)) + name.encode("ascii"))
    if len(table) > 1:
        parts.append(bytes(map(table.index, names)))
    parts.append(struct.pack(f"<{len(values)}I", *map(len, values)))
    parts.extend(value._packed for value in values)
    return b"".join(parts)


class SeqPage:
    """A SEQ body parsed, not decoded: what a kernel reads.  Non-null row
    *i* is ``lengths[i]`` symbols of ``classes[index[i]]`` (``index`` is
    None on a one-alphabet page: all are ``classes[0]``) packed at
    ``packed[starts[i]:starts[i + 1]]``; ``nulls`` flags the page's NULL
    positions and is None when it has none."""

    __slots__ = ("classes", "index", "lengths", "starts", "packed", "nulls",
                 "_spans")

    def __init__(self, body: bytes, count: int,
                 nulls: "list[bool] | None" = None) -> None:
        self.nulls, at = nulls, 1
        self._spans = None
        self.classes = classes = []
        for _ in range(body[0]):
            end = at + 1 + body[at]
            classes.append(sequence_class_for(str(body[at + 1:end], "ascii")))
            at = end
        mixed = len(classes) > 1
        self.index = index = body[at:at + count] if mixed else None
        at += count * mixed
        self.lengths = lengths = struct.unpack_from(f"<{count}I", body, at)
        at += 4 * count
        # Payload sizes follow from length and alphabet and are not
        # stored: a length can disagree with the total, and nothing else.
        if mixed:
            sizes = [(n + 1) >> 1 if classes[k]._nibble else n
                     for k, n in zip(index, lengths)]
        else:
            sizes = ([(n + 1) >> 1 for n in lengths] if classes[0]._nibble
                     else lengths)
        self.starts = list(accumulate(sizes, initial=0))
        _exactly(body, at + self.starts[-1])
        self.packed = body[at:]

    def rows(self) -> list[PackedSequence]:
        """The non-null rows, each adopting its slice of the buffer."""
        classes, packed, starts = self.classes, self.packed, self.starts
        return [classes[k]._from_packed(length, packed[start:end])
                for k, length, start, end
                in zip(self.index or bytes(len(self.lengths)), self.lengths,
                       starts, starts[1:])]

    def spans(self) -> "tuple[bytes, list[int], list[int]]":
        """``(codes, starts, ends)`` of a one-alphabet page: the buffer as
        one code per byte, un-nibbled in one go, row *i* at
        ``codes[starts[i]:ends[i]]`` — an odd row's pad nibble lies
        outside every row's bounds.  Computed once per page."""
        if self._spans is None:
            klass, starts = self.classes[0], self.starts[:-1]
            if klass._nibble:
                starts = [start + start for start in starts]
            self._spans = (klass._unpack(self.packed), starts,
                           list(map(int.__add__, starts, self.lengths)))
        return self._spans


def _encode_dict(values: list[str]) -> bytes:
    codes: dict[str, int] = {}
    encoded = [codes.setdefault(value, len(codes)) for value in values]
    parts = [_U32.pack(len(codes))]
    for value in codes:  # first-occurrence order
        entry = value.encode("utf-8")
        parts.append(_U32.pack(len(entry)) + entry)
    if len(codes) <= 0xFF:
        parts.append(b"\x01" + bytes(encoded))
    else:
        parts.append(b"\x02" + struct.pack(f"<{len(encoded)}H", *encoded))
    return b"".join(parts)


def _decode_dict(body: bytes, count: int) -> list[str]:
    (entry_count,) = _U32.unpack_from(body, 0)
    offset = 4
    entries = []
    for _ in range(entry_count):
        (size,) = _U32.unpack_from(body, offset)
        offset += 4
        entries.append(str(body[offset:offset + size], "utf-8"))
        offset += size
    width = body[offset]
    offset += 1
    if width not in (1, 2):
        raise _BodyMismatch(f"has dictionary codes {width} bytes wide")
    _exactly(body, offset + width * count)
    codes = (body[offset:] if width == 1
             else struct.unpack_from(f"<{count}H", body, offset))
    return OneKind(map(entries.__getitem__, codes), str)


def _encode_blob(values: list[bytes]) -> bytes:
    return b"".join((struct.pack(f"<{len(values)}I", *map(len, values)),
                     *values))


def _decode_blob(body: bytes, count: int) -> list[bytes]:
    sizes = struct.unpack_from(f"<{count}I", body)
    ends = list(accumulate(sizes, initial=4 * count))
    _exactly(body, ends[-1])
    return [body[start:end] for start, end in zip(ends, ends[1:])]


_ENCODERS = {INT: _encode_int, DICT: _encode_dict, BLOB: _encode_blob,
             SEQ: _encode_seq}


#: Column type -> the encoding of its pages, given that every non-null
#: value is of the Python type beside it.
_TYPED = {"INTEGER": (INT, int), "REAL": (FLOAT, float),
          "BOOLEAN": (BOOL, bool), "TEXT": (DICT, str), "BLOB": (BLOB, bytes)}


def choose_encoding(type_name: "str | None", kinds: "set[type]") -> int:
    """Pick the page encoding for one column's sealed values from the
    set *kinds* of their types.  Values without a declared type
    (*type_name* None: a block of a spilled run) take the first encoding
    they fit."""
    for name, (encoding, base) in _TYPED.items():
        if type_name in (None, name) and all(
                issubclass(kind, base)
                and not (base is int and issubclass(kind, bool))
                for kind in kinds):
            return encoding
    if kinds and all(issubclass(kind, PackedSequence) for kind in kinds):
        return SEQ
    return OBJ


def encode_page(values: Sequence[Any], type_name: "str | None",
                codec) -> bytes:
    """Seal one column's *values* into a checksummed page byte string."""
    kinds = set(map(type, values))
    dense = type(NULL) not in kinds  # then no pass over the values at all
    nonnull = (values if dense
               else [value for value in values if value is not NULL])
    encoding = choose_encoding(type_name, kinds - {type(NULL)})
    if encoding == BOOL:
        body = _pack_bitmap(values if dense
                            else [value is True for value in values])
    elif encoding == FLOAT:
        body = struct.pack(f"<{len(nonnull)}d", *nonnull)
    elif encoding == OBJ:
        payload = json.dumps(
            [codec.encode_value(value) for value in nonnull]
        ).encode("utf-8")
        body = _U32.pack(len(payload)) + payload
    else:
        body = _ENCODERS[encoding](nonnull)
    page = (_HEADER.pack(_MAGIC, PAGE_FORMAT, encoding, len(values))
            + _pack_bitmap(bytes(len(values)) if dense
                           else [value is NULL for value in values]) + body)
    return page + _U32.pack(zlib.crc32(page))


def _malformed(page_id: "int | None", encoding: int,
               why: str) -> StorageError:
    name = ENCODING_NAMES.get(encoding, encoding)
    return StorageError(f"column page {page_id!r} ({name}) {why}",
                        kind="malformed")


def verify(data: bytes, page_id: "int | str | None" = None) -> None:
    """Raise StorageError unless *data* is a page whose CRC32 holds."""
    if len(data) < _HEADER.size + 4 or data[:2] != _MAGIC:
        raise StorageError(
            f"column page {page_id!r} is not a page (truncated or foreign "
            f"bytes)", kind="malformed")
    (stored,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) != stored:
        raise StorageError(
            f"column page {page_id!r} failed its CRC32 check",
            kind="bit_rot")


def _open(data: bytes, page_id: "int | None") -> tuple:
    """Verify a page and split it into ``(encoding, row count, null
    flags, body)`` — the flags are ``None`` when no row is NULL."""
    verify(data, page_id)
    _, fmt, encoding, count = _HEADER.unpack_from(data)
    if fmt != PAGE_FORMAT:
        raise StorageError(
            f"column page {page_id!r} has unknown format {fmt}",
            kind="malformed")
    body_at = _HEADER.size + (count + 7) // 8
    if body_at > len(data) - 4:
        raise _malformed(page_id, encoding,
                         f"ends inside the null bitmap of its {count} rows")
    bitmap = data[_HEADER.size:body_at]
    nulls = _unpack_bitmap(bitmap, count) if any(bitmap) else None
    return encoding, count, nulls, data[body_at:-4]


def _placed(nonnull: list, nulls: "list[bool] | None") -> list:
    """The page's positional values: NULL wherever the bitmap says."""
    if nulls is None:
        return nonnull
    values = iter(nonnull)
    return [NULL if null else next(values) for null in nulls]


_DECODERS = {INT: _decode_int, FLOAT: _decode_float, DICT: _decode_dict,
             BLOB: _decode_blob,
             SEQ: lambda body, count: SeqPage(body, count).rows()}

#: What a CRC-valid body that contradicts itself raises while it is read:
#: a :class:`_BodyMismatch`, a payload that is not JSON or not UTF-8
#: (``ValueError``), a count or length lying past the end (``struct.error``,
#: ``IndexError``), a code past its table, an alphabet nobody knows.
_STRUCTURAL = (ValueError, struct.error, IndexError, SequenceError)


def decode_page(data: bytes, codec, *,
                page_id: "int | str | None" = None) -> list[Any]:
    """Verify and decode one page back into its positional value list."""
    encoding, count, nulls, body = _open(data, page_id)
    present = count - sum(nulls) if nulls else count
    try:
        if encoding == BOOL:
            _exactly(body, (count + 7) // 8)
            flags = _unpack_bitmap(body, count)
            return OneKind(flags, bool) if nulls is None else [
                NULL if null else flag for null, flag in zip(nulls, flags)]
        if encoding == OBJ:
            (size,) = _U32.unpack_from(body, 0)
            _exactly(body, 4 + size)
            nonnull = [codec.decode_value(item)
                       for item in _counted(json.loads(body[4:]), present)]
        elif encoding in _DECODERS:
            nonnull = _DECODERS[encoding](body, present)
        else:
            raise _BodyMismatch("has an unknown encoding")
    except _STRUCTURAL as exc:
        raise _malformed(page_id, encoding, str(exc)) from None
    return _placed(nonnull, nulls)


def seq_page(data: bytes, *,
             page_id: "int | None" = None) -> "SeqPage | None":
    """A verified SEQ page as its :class:`SeqPage`; ``None`` when the page
    is not SEQ-encoded (the caller takes the decoded-value path)."""
    encoding, count, nulls, body = _open(data, page_id)
    if encoding != SEQ:
        return None
    try:
        return SeqPage(body, count - sum(nulls) if nulls else count, nulls)
    except _STRUCTURAL as exc:
        raise _malformed(page_id, encoding, str(exc)) from None

"""Persistence: database images and a write-ahead log.

Section 4.3 requires GDT representations that "be embedded into compact
storage areas which can be efficiently transferred between main memory
and disk".  At the engine level that means:

- **images** (:func:`save_database` / :func:`load_database`): the whole
  database as one JSON document; opaque UDT values are stored as the hex
  of their own compact serializers (the engine never interprets them);
- **WAL** (:class:`WriteAheadLog`): every mutating statement appended as
  one JSON line through a persistent handle with buffered **group
  commit** (``flush_every_n`` / explicit :meth:`~WriteAheadLog.flush` /
  optional ``fsync``), replayable after a crash;
- **checkpoints** (:func:`checkpoint`): write an image and *rotate* the
  log — the active segment is sealed under its generation number, the
  image records the generation it covers, and only then are covered
  segments purged.  A crash at any point between those steps loses
  nothing: recovery (:mod:`repro.db.recovery`) applies the image plus
  every segment the image does not cover.

Because UDTs and UDFs are *code*, images record only type **names**; a
loader must re-register the same types and functions first (the adapter
does this in one call), then :func:`load_database` re-attaches values.

The on-disk formats — one of each, and no reader for any other:

==========  ==========================================================
WAL header  ``{"$wal": 3, "generation": N, "epoch": E-or-null,
            "crc": C}`` — the first line of every segment (plus
            :data:`PREDECESSOR` where :meth:`~WriteAheadLog.rotate`
            began the segment)
WAL record  ``{"sql": ..., "params": [...], "crc": C}`` — every other
            line; a committed transaction of several statements is
            one record: their texts, then their parameters end to end
image       ``{"format": 2, "indexes": [...], "tables": [...],
            "digest": D}`` (plus ``wal_generation`` after a
            checkpoint); sorted keys; table specs name their ``layout``
==========  ==========================================================

``C`` is the CRC32 of the line's own bytes before ``, "crc": `` (plus
the closing brace) and is mandatory: a line without an integer ``crc``
that matches is ``bit_rot``, so a flipped bit that still parses as
JSON never replays silently.  ``D`` is the SHA-256 of the image's
canonical serialization without the ``digest`` field, equally
mandatory.  A file stamped with any other ``$wal`` / ``format``
version is refused as ``malformed``, naming the version found and the
version this build reads.

:func:`classify_wal` is the single parser of WAL lines: it walks a
file's bytes once and labels every line ``ok`` / ``header`` or with
the :class:`~repro.errors.StorageError` kind it would raise —

- ``torn_tail``: an unparseable **final** line, i.e. a crash
  mid-append; replay drops it from the active segment;
- ``corrupt_middle``: an unparseable line **followed by other lines**
  cannot be a crashed append — skipping it would replay a history with
  a hole in the middle;
- ``malformed``: valid JSON that is not a WAL record, or a header of
  another format version;
- ``bit_rot``: the CRC does not match, is missing, or the bytes do not
  even decode (writers emit ASCII-only JSON, so an invalid sequence can
  only be media damage, never a crash artifact).

Replay (:func:`read_wal_records` / :func:`parse_wal_payload`) stops at
the first damaged line and raises it with the file, 1-based record
index and byte offset; :mod:`repro.db.scrub` collects all of them.
Both consume the same classification, so they cannot disagree.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from typing import Any, Sequence

from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.db.sql import ast
from repro.db.values import NULL, OpaqueType
from repro.errors import StorageError, TransactionError
from repro.obs.metrics import count as _metric

#: The keys every image table/column/index spec must carry; a truncated
#: or hand-edited image fails with StorageError, never a bare KeyError.
_TABLE_KEYS = ("name", "columns", "primary_key", "unique", "layout", "rows")
_COLUMN_KEYS = ("name", "type", "not_null", "default")
_INDEX_KEYS = ("name", "table", "column", "using", "parameters")
#: The exact cell classes an image or WAL record holds as they are.
_JSON_SCALARS = frozenset((bool, int, float, str, type(NULL)))

_SEGMENT_SUFFIX = re.compile(r"\.(\d{6})$")

#: The on-disk format versions this build writes and reads.  There is
#: deliberately no reader for older ones and no upgrader: no file in an
#: older format exists outside this repository's history.
WAL_FORMAT = 3
IMAGE_FORMAT = 2

#: What :func:`classify_wal` calls a line: ``ok`` (a verified
#: statement record), ``header`` (a verified ``$wal`` header), or the
#: :class:`StorageError` ``kind`` that replaying it raises.
OK = "ok"
HEADER = "header"
TORN_TAIL = "torn_tail"
CORRUPT_MIDDLE = "corrupt_middle"
MALFORMED = "malformed"
BIT_ROT = "bit_rot"

_CRC_MARK = b', "crc": '

#: The optional header field naming how many records generation N - 1
#: sealed with (stamped by :meth:`WriteAheadLog.rotate`).
PREDECESSOR = "predecessor_records"


def checksum_line(body: str) -> str:
    """Append a ``crc`` field to one serialized JSON-object line.

    ``body`` must be a ``json.dumps`` of a dict (so it ends in ``}``);
    the CRC32 covers exactly the bytes of *body*, which the verifier
    recovers by cutting the line at its last ``, "crc": ``.
    """
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{body[:-1]}, "crc": {crc}}}'


def record_checksum_body(record: dict) -> str:
    """The canonical serialization of one statement record — the bytes
    its CRC covers, and the yardstick for "same statement" when two
    histories are compared."""
    return json.dumps({"sql": record["sql"], "params": record["params"]})


def fsync_directory(path: str) -> None:
    """fsync the directory holding *path*, making a rename durable.

    ``os.replace`` is atomic but not durable until the parent
    directory's entry is flushed; a crash right after the rename can
    roll it back.  Platforms that refuse to fsync a directory are
    silently tolerated — the call is best-effort hardening.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _require_keys(spec: Any, keys: Sequence[str], what: str,
                  path: str) -> None:
    if not isinstance(spec, dict) or any(key not in spec for key in keys):
        missing = ([key for key in keys if key not in spec]
                   if isinstance(spec, dict) else list(keys))
        raise StorageError(
            f"malformed image {path!r}: {what} is missing {missing!r} "
            f"(truncated or foreign file?)",
            path=path, kind="malformed",
        )


def _encode_value(value: Any, database: Database) -> Any:
    """JSON-encode one cell value, tagging bytes and UDT payloads."""
    if value is NULL or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": bytes(value).hex()}
    opaque = database.catalog.opaque_type_for(value)
    if opaque is not None:
        return {"$udt": opaque.name, "data": opaque.serialize(value).hex()}
    raise StorageError(
        f"cannot serialize value of type {type(value).__name__}; "
        f"register an OpaqueType for it first"
    )


def _decode_value(encoded: Any, database: Database) -> Any:
    if isinstance(encoded, dict):
        if "$bytes" in encoded:
            return bytes.fromhex(encoded["$bytes"])
        if "$udt" in encoded:
            opaque = database.catalog.opaque_type(encoded["$udt"])
            return opaque.deserialize(bytes.fromhex(encoded["data"]))
        raise StorageError(f"unknown tagged value {encoded!r}")
    return encoded


def _encode_row(values: Sequence[Any], database: Database) -> list:
    """Encode a row's cells (or a statement's parameters) for JSON."""
    return [value if type(value) in _JSON_SCALARS
            else _encode_value(value, database) for value in values]


def build_image(database: Database,
                wal_generation: int | None = None) -> dict[str, Any]:
    """The image of *database* as a JSON-ready dict (what gets saved),
    every key in sorted order: its plain dump is canonical."""
    image: dict[str, Any] = {"format": IMAGE_FORMAT, "indexes": [],
                             "tables": []}
    for table_name in database.catalog.table_names:
        table = database.catalog.table(table_name)
        schema = table.schema
        image["tables"].append({
            "columns": [
                {
                    "default": _encode_value(column.default, database),
                    "name": column.name,
                    "not_null": column.not_null,
                    "type": column.sql_type.name,
                }
                for column in schema.columns
            ],
            "layout": table.layout,
            "name": schema.name,
            "primary_key": schema.primary_key,
            "rows": [_encode_row(row, database) for _, row in table.rows()],
            "unique": list(schema.unique),
        })
    for definition in database.index_definitions:
        image["indexes"].append({
            "column": definition.column,
            "name": definition.name,
            "parameters": dict(sorted(definition.parameters.items())),
            "table": definition.table,
            "using": definition.using,
        })
    if wal_generation is not None:
        image["wal_generation"] = wal_generation
    return image


def image_digest(image: dict[str, Any]) -> str:
    """SHA-256 over the canonical serialization of an image document,
    excluding its own ``digest`` field."""
    body = {key: value for key, value in image.items() if key != "digest"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def save_database(database: Database, path: str,
                  wal_generation: int | None = None) -> None:
    """Write the full database image (schema + data + index defs) to disk.

    The write is atomic (temp file + rename) and durable: the temp file
    is fsynced before the rename and the parent directory after it, so
    a crash at any point leaves either the previous image or the new
    one — never half of each, and never a rename the disk forgot.
    The image is dumped once; its SHA-256 (:func:`image_digest`,
    verified on every load) is appended as a last field.  ``wal_generation``
    records which WAL generation this image covers; recovery skips
    older sealed segments.  It is refused inside a transaction.
    """
    if database.in_transaction:
        raise TransactionError("cannot save an image inside a transaction")
    body = json.dumps(build_image(database, wal_generation),
                      sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(memoryview(body)[:-1])
        handle.write(f', "digest": "{digest}"}}'.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    fsync_directory(path)
    _metric("storage", "images_saved")


def read_image(path: str) -> dict[str, Any]:
    """Read, format-check and digest-verify an image document without
    restoring it."""
    try:
        with open(path, encoding="utf-8") as handle:
            image = json.load(handle)
    except UnicodeDecodeError as exc:
        raise StorageError(
            f"database image {path!r} holds undecodable bytes at "
            f"offset {exc.start}: {exc.reason}",
            path=path, offset=exc.start, kind="bit_rot",
        ) from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(
            f"cannot read database image {path!r}: {exc}",
            path=path, kind="malformed",
        ) from exc
    found = image.get("format") if isinstance(image, dict) else None
    if found != IMAGE_FORMAT:
        raise StorageError(
            f"database image {path!r} is format {found!r}; this build "
            f"reads format {IMAGE_FORMAT} only",
            path=path, kind="malformed",
        )
    stored = image.get("digest")
    if not isinstance(stored, str):
        raise StorageError(
            f"image {path!r} carries no digest", path=path,
            kind="malformed",
        )
    actual = image_digest(image)
    if actual != stored:
        raise StorageError(
            f"image {path!r} failed its whole-file digest check "
            f"(stored {stored[:12]}…, actual {actual[:12]}…): the "
            f"bytes under this image changed since it was written",
            path=path, kind="digest_mismatch",
        )
    _metric("storage", "images_verified")
    _require_keys(image, ("tables", "indexes"), "image", path)
    for table_spec in image["tables"]:
        _require_keys(table_spec, _TABLE_KEYS, "table spec", path)
        for column_spec in table_spec["columns"]:
            _require_keys(column_spec, _COLUMN_KEYS,
                          f"column spec of table {table_spec['name']!r}",
                          path)
    for index_spec in image["indexes"]:
        _require_keys(index_spec, _INDEX_KEYS, "index spec", path)
    return image


def restore_image(image: dict[str, Any],
                  database: Database | None = None) -> Database:
    """Rebuild a database from an image document :func:`read_image`
    has already verified and shape-checked."""
    database = database or Database()
    for table_spec in image["tables"]:
        columns = []
        for column_spec in table_spec["columns"]:
            columns.append(Column(
                column_spec["name"],
                database.catalog.resolve_type(column_spec["type"]),
                not_null=column_spec["not_null"],
                default=_decode_value(column_spec["default"], database),
            ))
        schema = TableSchema(
            table_spec["name"], columns,
            table_spec["primary_key"], tuple(table_spec["unique"]),
        )
        table = database.create_table(schema, layout=table_spec["layout"])
        for encoded_row in table_spec["rows"]:
            table.insert([
                _decode_value(value, database) for value in encoded_row
            ])

    for index_spec in image["indexes"]:
        statement = ast.CreateIndex(
            index_spec["name"], index_spec["table"], index_spec["column"],
            index_spec["using"], dict(index_spec["parameters"]),
        )
        database._dispatch(statement, ())
    return database


def load_database(path: str, database: Database | None = None) -> Database:
    """Rebuild a database from an image.

    Pass a *database* that already has the needed UDTs and UDFs
    registered; a fresh one is created otherwise (then only built-in
    column types can be restored).
    """
    return restore_image(read_image(path), database)


def list_sealed_segments(wal_path: str) -> list[tuple[int, str]]:
    """Sealed ``<wal>.NNNNNN`` segment files next to a WAL,
    ``(generation, path)`` in ascending generation order."""
    directory, base = os.path.split(wal_path)
    directory = directory or "."
    segments: list[tuple[int, str]] = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return []
    for entry in entries:
        if not entry.startswith(base + "."):
            continue
        match = _SEGMENT_SUFFIX.search(entry)
        if match and entry == f"{base}.{match.group(1)}":
            segments.append((int(match.group(1)),
                             os.path.join(directory, entry)))
    segments.sort()
    return segments


def header_record(generation: int, epoch: int | None,
                  predecessor: int | None = None) -> str:
    """The checksummed ``$wal`` header line that opens a WAL file."""
    header = {"$wal": WAL_FORMAT, "generation": generation, "epoch": epoch}
    if predecessor is not None:
        header[PREDECESSOR] = predecessor
    return checksum_line(json.dumps(header)) + "\n"


def classify_wal(data: bytes, start: int = 0, first_index: int = 1):
    """Walk one WAL file's bytes once and classify every non-blank line.

    Yields ``(record_index, offset, kind, record, why)`` per line: the
    1-based line number, the byte offset where the line starts, its
    kind (:data:`OK`, :data:`HEADER`, or a damage kind — see the module
    docstring), the parsed record (``None`` when it did not parse) and,
    for damaged lines, what is wrong.  This is the only parser of WAL
    lines, so replay, scrub and the header readers agree by
    construction.  An undamaged line costs one JSON parse and one
    CRC32 over the bytes as written; nothing else is computed for it.

    *start* resumes the walk at the byte offset of line *first_index*
    (a line boundary the caller has already verified): offsets and line
    numbers stay those of the whole file, and only the file's last line
    can be a torn tail.
    """
    loads = json.loads
    crc32 = zlib.crc32
    crc_at = len(_CRC_MARK)
    lines = data[start:].split(b"\n")
    last = len(lines)
    while last and not lines[last - 1].strip():
        last -= 1
    last += first_index - 1
    offset = start
    for index, raw in enumerate(lines, first_index):
        start = offset
        offset += len(raw) + 1
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            yield (index, start, BIT_ROT, None,
                   f"holds undecodable bytes ({exc.reason})")
            continue
        except ValueError:
            if index == last:
                yield index, start, TORN_TAIL, None, "is torn"
            else:
                yield (index, start, CORRUPT_MIDDLE, None,
                       "is torn but followed by other records; the log "
                       "is corrupt, refusing to replay around the hole")
            continue
        header = isinstance(record, dict) and "$wal" in record
        mark = raw.rfind(_CRC_MARK)
        digits = raw[mark + crc_at:-1]
        if header and record["$wal"] != WAL_FORMAT:
            yield (index, start, MALFORMED, record,
                   f"is a version {record['$wal']!r} header; this "
                   f"build reads WAL version {WAL_FORMAT} only")
        elif not header and (not isinstance(record, dict)
                             or "sql" not in record
                             or "params" not in record):
            yield (index, start, MALFORMED, record,
                   f"is not a WAL record: {record!r}")
        elif (mark == -1 or not digits.isdigit()
              or crc32(b"}", crc32(raw[:mark])) != int(digits)):
            yield (index, start, BIT_ROT, record,
                   "fails its CRC32 check: the bytes rotted since they "
                   "were written (the line still parses, so without the "
                   "checksum it would have replayed silently)")
        elif not header:
            yield index, start, OK, record, ""
        elif (isinstance(record.get("generation"), int)
              and "epoch" in record
              and isinstance(record["epoch"], (int, type(None)))):
            yield index, start, HEADER, record, ""
        else:
            yield (index, start, MALFORMED, record,
                   f"is a header without a generation and an epoch: "
                   f"{record!r}")


def _read_header(path: str) -> dict | None:
    """The ``$wal`` header that opens *path*, or ``None`` when the file
    has no trustworthy one (missing, damaged, or another version)."""
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                if raw.strip():
                    __, __, kind, record, __ = next(classify_wal(raw))
                    return record if kind == HEADER else None
    except OSError:
        pass
    return None


def segment_generation(path: str) -> int | None:
    """The generation stamped in a WAL file's header line, or ``None``."""
    header = _read_header(path)
    return None if header is None else header["generation"]


def _replay(data: bytes, path: str, allow_torn_tail: bool,
            start: int = 0, first_index: int = 1,
            ) -> tuple[list[dict], bool]:
    """The fail-fast consumer of :func:`classify_wal`: the statement
    records up to the first damaged line, which is raised."""
    records: list[dict] = []
    for index, offset, kind, record, why in classify_wal(
            data, start, first_index):
        if kind == OK:
            records.append(record)
        elif kind == TORN_TAIL and allow_torn_tail:
            return records, True
        elif kind != HEADER:
            raise StorageError(
                f"WAL record at {path}:{index} {why}",
                path=path, record_index=index, offset=offset, kind=kind,
            )
    return records, False


def read_wal_records(path: str, *,
                     allow_torn_tail: bool = True) -> tuple[list[dict], bool]:
    """Parse one WAL file into statement records (headers dropped).

    Returns ``(records, torn_tail)``.  The first damaged line raises
    :class:`StorageError` with structured context (``path`` /
    ``record_index`` / ``offset`` / ``kind`` — the kinds are
    :func:`classify_wal`'s).  Only a torn **final** line is survivable:
    it is a crashed append, dropped when ``allow_torn_tail`` is true
    (the active segment) and raised when it is false (a sealed one).
    """
    with open(path, "rb") as handle:
        return _replay(handle.read(), path, allow_torn_tail)


def parse_wal_payload(payload: "str | bytes", *, path: str = "<payload>",
                      allow_torn_tail: bool = True, start: int = 0,
                      first_index: int = 1) -> tuple[list[dict], bool]:
    """:func:`read_wal_records` over an in-memory payload.

    Replication verifies shipments through this before a byte touches
    the follower's disk; *path* only labels the errors.  *start* /
    *first_index* skip a prefix already verified (:func:`classify_wal`):
    only the records after it are returned."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return _replay(payload, path, allow_torn_tail, start, first_index)


def apply_wal_records(records: Sequence[dict], target: Database) -> int:
    """Re-execute parsed WAL records (:meth:`Database.redo`) with the
    target's WAL sink muted; returns how many statements ran."""
    applied = 0
    with target.suppress_wal():
        for record in records:
            applied += target.redo(record["sql"], [
                _decode_value(value, target) for value in record["params"]])
    return applied


class WriteAheadLog:
    """A JSON-lines statement log with group commit and rotation.

    Attach with :meth:`attach`; every mutating statement outside a
    transaction, and every committed transaction, is appended as one
    record with its parameters.  Appends go through one persistent
    handle; ``flush_every_n`` batches them into group commits (an
    explicit :meth:`flush` or :meth:`close` always drains, ``fsync=True``
    additionally forces the records to stable storage on each flush).
    Every record (and the header) carries a CRC32 over its own
    serialization, verified on replay.  *epoch* is the replication
    epoch stamped into every header this log writes (``None``: written
    without a lease).

    :meth:`replay` re-executes the log against a database restored from
    the last checkpoint image, with the target's WAL sink suppressed so
    replay never re-appends to the log it is reading.
    """

    def __init__(self, path: str, database: Database, *,
                 flush_every_n: int = 1, fsync: bool = False,
                 epoch: int | None = None) -> None:
        self.path = path
        self._database = database
        self.flush_every_n = max(1, int(flush_every_n))
        self.fsync = fsync
        self.epoch = epoch
        self._handle = None
        self._pending = 0
        #: Records behind the header this log wrote (``None``: unknown).
        self._records: int | None = None
        self._generation = self._initial_generation()

    # -- lifecycle -------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The generation of the active (appendable) segment."""
        return self._generation

    def _initial_generation(self) -> int:
        if os.path.exists(self.path):
            header = segment_generation(self.path)
            if header is not None:
                return header
        sealed = self.sealed_segments()
        if sealed:
            return sealed[-1][0] + 1
        return 0

    def attach(self) -> None:
        self._database.attach_wal(self.append)

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def flush(self) -> None:
        """Drain buffered records to the OS (and to disk with ``fsync``)."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            _metric("storage", "wal_flushes")
        self._pending = 0

    def close(self) -> None:
        """Flush and release the handle, and forget the record count."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None
        self._records = None

    # -- appending -------------------------------------------------------------

    def _file_is_blank(self) -> bool:
        return (not os.path.exists(self.path)
                or os.path.getsize(self.path) == 0)

    def _end_last_line(self) -> None:
        """Cut a torn final line (an append a crash cut short) or end a
        whole one, so the next record is not glued onto it."""
        if self._file_is_blank():
            return
        with open(self.path, "rb+") as handle:
            data = handle.read()
            start = data.rfind(b"\n") + 1
            tail = next(classify_wal(data[start:]), (0, 0, TORN_TAIL))
            if tail[2] == TORN_TAIL:
                handle.truncate(start)  # no-op after a whole last line
            else:
                handle.write(b"\n")

    def append(self, sql: "str | list", parameters: Sequence[Any]) -> None:
        """Log one mutating statement or committed transaction (the
        attached sink entry point)."""
        record = {"sql": sql,
                  "params": _encode_row(parameters, self._database)}
        line = checksum_line(json.dumps(record)) + "\n"
        _metric("storage", "wal_appends")
        if self._handle is None:
            self._end_last_line()
            blank = self._file_is_blank()
            self._handle = open(self.path, "a", encoding="utf-8")
            if blank:
                self._handle.write(
                    header_record(self._generation, self.epoch))
                self._records = 0
        self._handle.write(line)
        if self._records is not None:
            self._records += 1
        self._pending += 1
        if self._pending >= self.flush_every_n:
            self.flush()

    # -- segments ---------------------------------------------------------------

    def sealed_segments(self) -> list[tuple[int, str]]:
        """Sealed segment files next to the log, ``(generation, path)``
        in ascending generation order."""
        return list_sealed_segments(self.path)

    def rotate(self) -> str | None:
        """Seal the active segment and start a fresh one.

        Returns the sealed segment's path, or ``None`` when the active
        log holds no records (nothing to seal).  Statements appended
        after rotation land in the new segment, so a checkpoint image
        written *after* :meth:`rotate` can never swallow them.  The new
        header names the sealed record count (:data:`PREDECESSOR`): a
        follower that never sees a purged segment can tell it is short.
        That count is kept by the open handle; a file this log did not
        write, or closed since, is parsed (and a damaged line refused).
        """
        records = None if self._handle is None else self._records
        self.close()
        if records is None:
            self._end_last_line()
            if self._file_is_blank():
                open(self.path, "a", encoding="utf-8").close()
                return None
            records = len(read_wal_records(self.path)[0])
        sealed_path, predecessor = None, records
        if not records:
            # Header-only (or blank-line) file: nothing to seal — but
            # truncating must restamp the header, or a reopened log
            # would fall back to generation 0 and recovery would
            # skew-skip everything appended since the last checkpoint.
            predecessor = (_read_header(self.path) or {}).get(PREDECESSOR)
        else:
            sealed_path = f"{self.path}.{self._generation:06d}"
            os.replace(self.path, sealed_path)
            if self.fsync:
                # The seal rename must survive a crash just like the
                # records behind it: flush the directory entry too.
                fsync_directory(sealed_path)
            self._generation += 1
            _metric("storage", "wal_rotations")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(header_record(self._generation, self.epoch,
                                        predecessor))
        self._records = 0
        return sealed_path

    def set_epoch(self, epoch: int | None) -> None:
        """Adopt a replication epoch and restamp the active header.

        Called when a node wins (or loses) a lease mid-segment: future
        headers carry *epoch*, and the active file's existing header is
        rewritten in place so the segment a new primary is already
        appending to names the epoch it was written under.  Only a
        verified header is replaced (its :data:`PREDECESSOR` count is
        kept); damaged lines stay where they are for recovery to refuse.
        """
        self.epoch = epoch
        if self._file_is_blank():
            return
        self.close()
        with open(self.path, "rb") as handle:
            data = handle.read()
        headers = {index: record for index, __, kind, record, __
                   in classify_wal(data) if kind == HEADER}
        body = [line for index, line in enumerate(data.split(b"\n"), 1)
                if index not in headers]
        predecessor = next(iter(headers.values()), {}).get(PREDECESSOR)
        with open(self.path, "wb") as handle:
            handle.write(header_record(self._generation, epoch,
                                        predecessor).encode("utf-8"))
            handle.write(b"\n".join(body))
        if self.fsync:
            fsync_directory(self.path)

    def purge(self, before_generation: int | None = None) -> list[str]:
        """Delete sealed segments older than *before_generation*
        (default: everything the current image generation covers)."""
        horizon = (self._generation if before_generation is None
                   else before_generation)
        removed = []
        for generation, path in self.sealed_segments():
            if generation < horizon:
                os.remove(path)
                removed.append(path)
        return removed


def checkpoint(database: Database, image_path: str,
               wal: WriteAheadLog | None = None) -> None:
    """Write an image and (if given) rotate-then-purge the WAL.

    The order is crash-safe: (1) the active segment is sealed under its
    generation, so statements logged while the image is being written go
    to the *next* segment; (2) the image records the new generation;
    (3) only segments the image covers are purged.  A crash after any
    single step leaves a state :func:`repro.db.recovery.recover` restores
    exactly — nothing is blindly truncated.
    """
    if wal is None:
        save_database(database, image_path)
        return
    wal.rotate()
    save_database(database, image_path, wal_generation=wal.generation)
    wal.purge(before_generation=wal.generation)

"""Exception hierarchy for the Genomics Algebra reproduction.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subsystems narrow it:
the algebra raises :class:`AlgebraError` subclasses, the database engine
:class:`DatabaseError` subclasses, and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Genomic data types and operations
# ---------------------------------------------------------------------------

class SequenceError(ReproError):
    """Invalid sequence content or operation on a sequence."""


class AlphabetError(SequenceError):
    """A symbol does not belong to the alphabet of a sequence."""


class TranslationError(ReproError):
    """Translation (or transcription / splicing) cannot proceed."""


class FeatureError(ReproError):
    """Invalid feature or annotation (e.g. location out of bounds)."""


# ---------------------------------------------------------------------------
# Algebra kernel
# ---------------------------------------------------------------------------

class AlgebraError(ReproError):
    """Base class for many-sorted algebra errors."""


class UnknownSortError(AlgebraError):
    """A sort name is not declared in the signature."""


class UnknownOperatorError(AlgebraError):
    """An operator name is not declared in the signature."""


class SortMismatchError(AlgebraError):
    """A term is not well-sorted (argument sorts do not match the operator)."""


class EvaluationError(AlgebraError):
    """Evaluating a term failed (missing carrier function or runtime error)."""


# ---------------------------------------------------------------------------
# Ontology
# ---------------------------------------------------------------------------

class OntologyError(ReproError):
    """Invalid ontology structure (duplicate terms, cycles, bad references)."""


# ---------------------------------------------------------------------------
# Database engine
# ---------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for database-engine errors."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed."""


class CatalogError(DatabaseError):
    """Unknown or duplicate table / column / index / type / function."""


class TypeCheckError(DatabaseError):
    """A value or expression does not match the expected column/SQL type."""


class ConstraintError(DatabaseError):
    """A constraint (NOT NULL, PRIMARY KEY, UNIQUE) was violated."""


class TransactionError(DatabaseError):
    """Invalid transaction state (e.g. commit without begin)."""


class StorageError(DatabaseError):
    """Persistence failed (corrupt image, bad WAL record).

    Mirrors :class:`SourceError`'s structured context: ``path`` names
    the damaged file, ``record_index`` the 1-based line of the bad WAL
    record (``None`` for whole-file damage), ``offset`` the byte offset
    where the damage starts, and ``kind`` classifies it —
    ``torn_tail`` (crashed append, recoverable), ``corrupt_middle``
    (unparseable record followed by valid ones), ``bit_rot`` (parseable
    record whose CRC32 does not match), ``digest_mismatch`` (image
    whole-file digest failed), or ``malformed`` (structurally wrong
    record/spec).  Scrub and recovery reports localize damage from
    these fields instead of parsing message strings.
    """

    def __init__(
        self,
        message: str,
        *,
        path: "str | None" = None,
        record_index: "int | None" = None,
        offset: "int | None" = None,
        kind: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.record_index = record_index
        self.offset = offset
        self.kind = kind


# ---------------------------------------------------------------------------
# ETL / sources / warehouse / mediator / languages
# ---------------------------------------------------------------------------

class WrapperError(ReproError):
    """A source wrapper could not parse a record."""


class SourceError(ReproError):
    """A (simulated) external repository refused or failed an operation.

    Carries structured context — which source, which operation, which
    attempt — so retry loops, circuit breakers, and quarantine reports
    can be asserted on without parsing message strings.  When the error
    happens inside a traced query, ``trace_id`` names the trace whose
    JSONL spans tell the full story of the failed attempts.
    """

    def __init__(
        self,
        message: str,
        *,
        source: "str | None" = None,
        operation: "str | None" = None,
        attempt: "int | None" = None,
        trace_id: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.source = source
        self.operation = operation
        self.attempt = attempt
        self.trace_id = trace_id


class SettingError(ReproError, ValueError):
    """A component was handed a setting it cannot honour.

    ``what`` names the rejected setting (``window``, ``direction``,
    ``advance``, ``lease_timeout``), ``where`` the component that
    refused it (a fault schedule's key, a channel, a clock), and
    ``value`` what was offered.  Also a :class:`ValueError`, which is
    what these sites raised before they had a structured type.
    """

    def __init__(
        self,
        message: str,
        *,
        what: "str | None" = None,
        where: "str | None" = None,
        value: "object | None" = None,
    ) -> None:
        super().__init__(message)
        self.what = what
        self.where = where
        self.value = value


class ClockTrackError(ReproError, RuntimeError):
    """A virtual-clock track was closed out of order.

    Tracks close strictly LIFO per thread; ``thread`` names the thread
    that tried, ``track`` the track it handed in, and ``open_tracks``
    how many tracks that thread still had open — on a pooled worker
    thread anything but a balanced stack would leak into the next job.
    """

    def __init__(
        self,
        message: str,
        *,
        thread: "str | None" = None,
        track: "object | None" = None,
        open_tracks: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.thread = thread
        self.track = track
        self.open_tracks = open_tracks


class IntegrationError(ReproError):
    """The warehouse integrator could not reconcile or load data."""


class MediatorError(ReproError):
    """The query-driven mediator could not decompose or answer a query."""


class FederationError(MediatorError):
    """Invalid shard topology, routing, or replication state.

    A refusal about one write names it: ``node`` is the node refused (a
    promotion candidate, or a follower asked to apply over a hole) and
    ``epoch`` / ``generation`` / ``index`` the position of the first
    replicated write it does not hold; ``records`` is how many records
    that generation holds, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        node: "str | None" = None,
        epoch: "int | None" = None,
        generation: "int | None" = None,
        index: "int | None" = None,
        records: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.epoch = epoch
        self.generation = generation
        self.index = index
        self.records = records


class LeaseError(FederationError):
    """A write lease could not authorize the operation.

    Split-brain safety hinges on never *silently* accepting a write
    without a live lease, so the refusal carries structured context:
    ``holder`` names the lease holder, ``epoch`` the lease's epoch,
    ``current_epoch`` the membership service's epoch when they differ,
    ``expires_at`` / ``now`` the virtual instants that decided the
    outcome, and ``kind`` classifies it — ``expired`` (the holder's
    lease ran out and renewal failed), ``stale_epoch`` (a newer epoch
    was issued to someone else; the holder is a zombie), or
    ``lease_live`` (an election was refused because another holder's
    lease has not expired yet).
    """

    def __init__(
        self,
        message: str,
        *,
        holder: "str | None" = None,
        epoch: "int | None" = None,
        current_epoch: "int | None" = None,
        expires_at: "float | None" = None,
        now: "float | None" = None,
        kind: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.holder = holder
        self.epoch = epoch
        self.current_epoch = current_epoch
        self.expires_at = expires_at
        self.now = now
        self.kind = kind


class ChannelError(FederationError):
    """A replication-channel round-trip was lost in transit.

    ``kind`` is ``dropped`` (seeded message loss) or ``partitioned``
    (an injected partition window covered the call); ``direction``
    tells one-way partitions apart — ``request`` means the call never
    reached the remote side, ``response`` means the remote side did the
    work but the answer was lost on the way back.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: "str | None" = None,
        direction: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.direction = direction


class OverloadError(MediatorError):
    """The serving layer shed a query to protect the federation.

    ``reason`` is one of the shed reasons the admission machinery
    reports (``queue_full`` / ``deadline`` / ``brownout``), so callers
    can distinguish "come back later" from "lower your deadline".
    """

    def __init__(
        self,
        message: str,
        *,
        reason: "str | None" = None,
        priority: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.priority = priority


class BiqlError(ReproError):
    """A BiQL query could not be parsed or translated."""


class GenAlgXmlError(ReproError):
    """GenAlgXML import/export failed."""

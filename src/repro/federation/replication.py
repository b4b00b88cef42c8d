"""WAL-shipped read replicas with deterministic, fenced failover.

A shard's primary runs an ordinary :class:`~repro.db.storage.
WriteAheadLog`; replication is nothing more than **shipping that log**:

- the primary's :meth:`PrimaryNode.ship` packages every sealed segment
  plus the active segment as :class:`Shipment` payloads (whole files,
  stamped with their generation — the ``$wal`` header the storage layer
  maintains is the replication protocol's sequence number);
- a :class:`FollowerNode` writes each shipment to its own directory and
  replays it through the same :func:`~repro.db.storage.read_wal_records`
  / :func:`~repro.db.storage.apply_wal_records` path crash recovery
  uses, keeping a per-generation ledger of how many records it has
  applied so re-shipping a grown segment applies only the suffix —
  **at-most-once** per statement, by construction — and parsing only
  bytes it has not verified before; a generation whose header says its
  predecessor sealed more records than the ledger holds is refused;
- a torn tail in the active shipment (the primary crashed mid-append)
  is dropped exactly as recovery drops it; when the completed record is
  shipped later it has never been counted, so it applies once;
- the follower's :meth:`FollowerNode.staleness_bound` mirrors the
  cache's semantics: virtual time since the last complete catch-up, an
  explicit honesty label for every read it serves.

Replication is only as trustworthy as the bytes it ships, so the
protocol is **end-to-end verified**:

- every :class:`Shipment` carries a SHA-256 digest of its payload;
  :meth:`FollowerNode.apply_shipment` recomputes it before writing a
  byte — corruption in flight is rejected, counted, and never applied;
- the per-record WAL CRCs (:mod:`repro.db.storage`) are verified again
  at apply time, so a record that rotted on the *primary's* disk stops
  at the first follower instead of spreading;
- **anti-entropy** (:meth:`FollowerNode.anti_entropy`) exchanges
  per-generation digests of the sealed segments with the primary; a
  diverged or bit-rotted local copy is quarantined
  (``*.quarantined``) and re-fetched from the primary (read-repair),
  with the apply ledger deduplicating so nothing applies twice; sealed
  generations only this follower holds (a demoted zombie's tail) are
  reported as ``local_only`` divergence, never silently ignored;
- :meth:`FollowerNode.verify_ledger` scrubs the local segment files,
  and :meth:`ReplicationGroup.promote` refuses to elect a follower
  whose ledger fails it — a corrupt replica can lag, but it can never
  become the source of truth.

And the protocol is **split-brain safe** — liveness flags are not
trusted, epochs are:

- a :class:`~repro.federation.membership.MembershipService` (when
  wired) grants the primary a :class:`~repro.federation.membership.
  Lease`; :meth:`PrimaryNode.execute` refuses to *acknowledge* a write
  on an expired lease (one renewal attempt through the channel, then a
  structured :class:`~repro.errors.LeaseError` — never silent
  acceptance), and ``ack_cost`` models the window where a statement is
  logged but the lease dies before the acknowledgment;
- every shipment a leased primary sends carries its **epoch** (the
  sender's leadership claim), and the ``$wal`` header it writes records
  the epoch on disk; :meth:`FollowerNode.apply_shipment` *fences* any
  shipment claiming an older epoch than the follower has observed
  (``shipments_fenced``) — a partitioned zombie's suffix stops at the
  first follower instead of forking history;
- all round-trips run through a :class:`~repro.federation.channel.
  ReplicationChannel`, so a seeded :class:`~repro.federation.channel.
  FaultyChannel` can drop, delay, duplicate, reorder, and partition
  them; :meth:`FollowerNode.catch_up` sorts shipments by generation and
  refuses to apply over a gap, which makes reordering and duplication
  harmless;
- when the partition heals, :meth:`PrimaryNode.demote` compares the
  zombie's history with the successor's, quarantines the diverged
  files (``*.diverged``), and emits a :class:`DivergenceReport` naming
  every statement that was acknowledged but lost — surfaced to the
  operator, because an acknowledged-and-lost write is a broken promise
  that must be owned, not buried.

:class:`ReplicationGroup` adds failover
(:meth:`~ReplicationGroup.promote`): the most-caught-up follower whose
ledger verifies *and* holds every write the group has seen replicated
is stood up as a new :class:`PrimaryNode` under a bumped epoch.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.db.database import Database
from repro.db.storage import (
    HEADER,
    PREDECESSOR,
    WriteAheadLog,
    apply_wal_records,
    classify_wal,
    list_sealed_segments,
    parse_wal_payload,
    read_wal_records,
    record_checksum_body,
    save_database,
    segment_generation,
)
from repro.errors import ChannelError, FederationError, LeaseError, StorageError
from repro.federation.channel import ReplicationChannel
from repro.obs.metrics import count as _metric, gauge as _gauge
from repro.obs.trace import span as _span

_ACTIVE_NAME = "wal.jsonl"


def payload_digest(payload: str) -> str:
    """SHA-256 over a shipment payload (the whole WAL file's text)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_digest(path: str) -> "str | None":
    """SHA-256 of one on-disk WAL file, or ``None`` if unreadable.

    Reads **bytes**: a bit-rotted byte that is invalid UTF-8 makes the
    file undigestable (``None`` — it will surface as a mismatch), not
    a crash."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    try:
        return payload_digest(raw.decode("utf-8"))
    except UnicodeDecodeError:
        return None


def _read_wal_text(path: str, *, on_bit_rot: str = "raise") -> "str | None":
    """Read one WAL file as text, classifying invalid UTF-8 as bit rot.

    ``on_bit_rot="raise"`` raises a structured :class:`StorageError`
    (``kind="bit_rot"``); ``"skip"`` returns ``None`` so salvage loops
    can step over a rotting file instead of dying on it."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        if on_bit_rot == "skip":
            _metric("federation", "shipments_skipped_bit_rot")
            return None
        raise StorageError(
            f"WAL file {path!r} is not valid UTF-8 at byte {exc.start} "
            f"(bit rot)", path=path, offset=exc.start,
            kind="bit_rot") from exc


@dataclass(frozen=True)
class Shipment:
    """One WAL file in flight: its generation, full payload, whether it
    is sealed (immutable) or the still-growing active log, the SHA-256
    digest of the payload as the sender read it (always verified on
    arrival), and the sender's **epoch claim** (``None`` means no
    leadership claim — disk salvage — and is never fenced)."""

    generation: int
    payload: str
    sealed: bool
    digest: str
    epoch: "int | None" = None

    def __repr__(self) -> str:
        kind = "sealed" if self.sealed else "active"
        claim = "" if self.epoch is None else f", epoch={self.epoch}"
        return (f"Shipment(gen={self.generation}, {kind}, "
                f"{len(self.payload)}B{claim})")


@dataclass
class AntiEntropyReport:
    """What one anti-entropy round against the primary found and fixed.

    ``checked`` counts the generations compared; ``mismatched`` the
    generations whose local digest disagreed with the primary's;
    ``quarantined`` the local files set aside as ``*.quarantined``;
    ``repaired`` the generations re-fetched clean from the primary;
    ``local_only`` the sealed generations **only this follower** holds
    — a demoted zombie's diverged tail, reported as divergence."""

    follower: str
    checked: int = 0
    mismatched: list[int] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    repaired: list[int] = field(default_factory=list)
    local_only: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatched and not self.local_only

    def summary(self) -> str:
        if self.clean:
            return (f"{self.follower}: {self.checked} sealed "
                    f"generation(s) verified, no divergence")
        parts = [f"{self.follower}: {self.checked} checked"]
        if self.mismatched:
            parts.append(f"generations {self.mismatched} diverged, "
                         f"{len(self.repaired)} repaired from primary")
        if self.local_only:
            parts.append(f"local-only generations {self.local_only} "
                         f"(not on the primary)")
        return ", ".join(parts)


@dataclass(frozen=True)
class DivergedStatement:
    """One statement a demoted primary holds that the successor's
    history does not: where it sat, what it said, and whether the
    client was *told* it committed (``acknowledged``)."""

    generation: int
    index: int
    sql: str
    acknowledged: bool

    def __repr__(self) -> str:
        ack = "acked" if self.acknowledged else "unacked"
        return (f"DivergedStatement(gen={self.generation}, "
                f"idx={self.index}, {ack}, {self.sql[:40]!r})")


@dataclass
class DivergenceReport:
    """A demoted primary's honest accounting of its forked suffix.

    ``statements`` lists every record present locally but absent from
    (or different in) the successor's history; the acknowledged subset
    (:attr:`acknowledged_lost`) is the broken-promise set — writes a
    client was told committed that the surviving history does not
    contain.  ``quarantined`` names the ``*.diverged`` files set aside
    so the evidence outlives the demotion."""

    node: str
    epoch: int
    successor: str
    successor_epoch: int
    statements: list[DivergedStatement] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def acknowledged_lost(self) -> list[DivergedStatement]:
        return [entry for entry in self.statements if entry.acknowledged]

    @property
    def clean(self) -> bool:
        return not self.statements

    def summary(self) -> str:
        if self.clean:
            return (f"{self.node} (epoch {self.epoch}) demoted under "
                    f"{self.successor} (epoch {self.successor_epoch}): "
                    f"no divergence")
        return (f"{self.node} (epoch {self.epoch}) demoted under "
                f"{self.successor} (epoch {self.successor_epoch}): "
                f"{len(self.statements)} diverged statement(s), "
                f"{len(self.acknowledged_lost)} of them acknowledged, "
                f"{len(self.quarantined)} file(s) quarantined")


def disk_shipments(wal_path: str, *,
                   on_bit_rot: str = "raise") -> list[Shipment]:
    """Everything a (possibly dead) node's WAL directory can still ship.

    Reads sealed ``wal.jsonl.NNNNNN`` files in generation order, then
    the active file — whose generation comes from its ``$wal`` header
    (``None`` falls back to one past the newest sealed segment, the
    same inference :class:`WriteAheadLog` makes on reopen).  Files are
    read as bytes; invalid UTF-8 is classified as ``bit_rot`` (raised
    structured, or skipped with ``on_bit_rot="skip"`` — a rotting dead
    disk must not abort the salvage of its healthy segments).  Salvage
    shipments carry **no epoch claim**: the disk is history, not a
    leadership assertion, so followers never fence it."""
    shipments: list[Shipment] = []
    sealed = list_sealed_segments(wal_path)
    for generation, path in sealed:
        payload = _read_wal_text(path, on_bit_rot=on_bit_rot)
        if payload is None:
            continue
        shipments.append(
            Shipment(generation, payload, True, payload_digest(payload)))
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        generation = segment_generation(wal_path)
        if generation is None:
            generation = sealed and max(pair[0] for pair in sealed) + 1 or 0
        payload = _read_wal_text(wal_path, on_bit_rot=on_bit_rot)
        if payload is not None:
            shipments.append(
                Shipment(generation, payload, False,
                         payload_digest(payload)))
    return shipments


def disk_history(wal_path: str, label: str) -> dict[int, tuple[list, bool]]:
    """generation → ``(records, sealed)`` for every file next to
    *wal_path* that still parses (the active file may end in a torn
    tail); a rotted or corrupt file is left out, not raised."""
    history: dict[int, tuple[list, bool]] = {}
    for shipment in disk_shipments(wal_path, on_bit_rot="skip"):
        try:
            records, __ = parse_wal_payload(
                shipment.payload,
                path=f"<{label} gen {shipment.generation}>",
                allow_torn_tail=not shipment.sealed)
        except StorageError:
            continue
        history[shipment.generation] = (records, shipment.sealed)
    return history


def sealed_digests(wal_path: str) -> dict[int, str]:
    """Per-generation SHA-256 digests of the sealed segments next to
    ``wal_path`` — the anti-entropy exchange currency.  Unreadable
    files are omitted (they will show up as a mismatch instead)."""
    digests: dict[int, str] = {}
    for generation, path in list_sealed_segments(wal_path):
        digest = file_digest(path)
        if digest is not None:
            digests[generation] = digest
    return digests


class PrimaryNode:
    """A shard primary: a database, its WAL, and a shipping dock.

    All writes go through :meth:`execute`, which the attached WAL logs;
    :meth:`ship` packages the log for followers.  :meth:`crash` models
    a process death — the object refuses further writes but its files
    stay on disk for :func:`disk_shipments` to salvage.

    With a *membership* service the primary holds a lease: it adopts a
    live lease already in its name (a promotion that elected first) or
    stands for election, stamps its epoch into every ``$wal`` header
    and shipment, and **refuses to acknowledge** writes the lease
    cannot cover.  Without membership the node is leaseless and
    epochless, and the write path pays nothing for either."""

    def __init__(self, name: str, directory: str, database: Database, *,
                 timeline, flush_every_n: int = 1, membership=None,
                 channel: "ReplicationChannel | None" = None,
                 auditor=None, ack_cost: float = 0.0) -> None:
        os.makedirs(directory, exist_ok=True)
        self.name = name
        self.directory = directory
        self.database = database
        self.timeline = timeline
        self.membership = membership
        self.channel = channel if channel is not None \
            else ReplicationChannel()
        self.auditor = auditor
        self.ack_cost = ack_cost
        self.lease = None
        self.epoch: int | None = None
        if membership is not None:
            lease = membership.lease
            if (lease is not None and lease.holder == name
                    and lease.live(timeline.now())):
                self.lease = lease
            else:
                self.lease = membership.elect(name)
            self.epoch = self.lease.epoch
        self.wal_path = os.path.join(directory, _ACTIVE_NAME)
        self.wal = WriteAheadLog(self.wal_path, database,
                                 flush_every_n=flush_every_n,
                                 epoch=self.epoch)
        self.wal.attach()
        if self.epoch is not None:
            # Continuing a shipped WAL: restamp the active header so
            # the segment being appended to names this leadership term.
            self.wal.set_epoch(self.epoch)
        self.alive = True
        self.demoted = False
        self.divergence: DivergenceReport | None = None
        self.observed_epoch: int | None = None
        self.writes_refused = 0
        #: ``(generation, index)`` of every statement acknowledged to a
        #: client — the promises :meth:`demote` checks against history.
        self.acked: set[tuple[int, int]] = set()
        self._record_counts: dict[int, int] = {}
        if self.lease is not None or auditor is not None:
            self._seed_record_counts()

    def _seed_record_counts(self) -> None:
        files = list_sealed_segments(self.wal_path)
        if os.path.exists(self.wal_path):
            files.append((self.wal.generation, self.wal_path))
        for generation, path in files:
            try:
                records, __ = read_wal_records(path, allow_torn_tail=True)
            except StorageError:
                continue
            self._record_counts[generation] = len(records)

    # -- the write path ----------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence = ()) -> None:
        """Apply and *acknowledge* one write.

        A primary with neither a lease nor an auditor wired has
        nothing to check or record and executes directly.  Leased
        primaries check the lease before touching the database (expired
        ⇒ one renewal attempt through the channel, then a structured
        :class:`LeaseError` — the write is **refused**, never silently
        accepted), and again after the ``ack_cost`` window — a lease
        that dies mid-flight leaves the statement logged locally but
        unacknowledged, which is exactly what :meth:`demote` will later
        report about it."""
        if self.demoted:
            raise FederationError(
                f"primary {self.name!r} was demoted at epoch "
                f"{self.epoch}; it no longer accepts writes")
        if not self.alive:
            raise FederationError(
                f"primary {self.name!r} is down; promote a follower")
        if self.lease is None and self.auditor is None:
            self.database.execute(sql, list(parameters))
            return
        if self.lease is not None:
            now = self.timeline.now()
            if not self.lease.live(now):
                self._renew_or_refuse(now)
        generation = self.wal.generation
        index = self._record_counts.get(generation, 0)
        self.database.execute(sql, list(parameters))
        self._record_counts[generation] = index + 1
        if self.lease is not None and self.ack_cost:
            self.timeline.advance(self.ack_cost)
            now = self.timeline.now()
            if not self.lease.live(now):
                self._renew_or_refuse(now, in_flight=True)
        self.acked.add((generation, index))
        if self.auditor is not None:
            self.auditor.record_ack(
                self.name, self.epoch, generation, index, sql)

    def _renew_or_refuse(self, now: float, *,
                         in_flight: bool = False) -> None:
        """One renewal round-trip; on failure, refuse with the truth."""
        lease = self.lease
        try:
            self.lease = self.channel.renew(self.membership, lease)
            return
        except LeaseError as exc:
            if exc.kind == "stale_epoch" and exc.current_epoch is not None:
                # The refusal itself is information: someone was
                # elected behind our back.  Remember the higher epoch
                # so demotion can act on it.
                self.observed_epoch = exc.current_epoch
            cause: Exception = exc
        except ChannelError as exc:
            cause = exc
        self.writes_refused += 1
        _metric("federation", "writes_refused_lease")
        suffix = ("; the statement is logged locally but UNACKNOWLEDGED"
                  if in_flight else "")
        raise LeaseError(
            f"primary {self.name!r} refuses to acknowledge: lease for "
            f"epoch {lease.epoch} expired at {lease.expires_at:.2f} "
            f"(now {now:.2f}) and renewal failed: {cause}{suffix}",
            holder=self.name, epoch=lease.epoch,
            current_epoch=self.observed_epoch,
            expires_at=lease.expires_at, now=now,
            kind="expired") from cause

    # -- segments and shipping ---------------------------------------------------

    def _require_alive(self) -> None:
        if not self.alive:
            raise FederationError(f"primary {self.name!r} is down")

    def rotate(self) -> str | None:
        self._require_alive()
        return self.wal.rotate()

    def checkpoint(self, image_path: str) -> None:
        self.wal.rotate()
        save_database(self.database, image_path,
                      wal_generation=self.wal.generation)

    def ship(self) -> list[Shipment]:
        """Flush, then package every segment for followers (sealed
        first, active last), stamped with this primary's epoch claim."""
        self._require_alive()
        self.wal.flush()
        _metric("federation", "wal_ship_rounds")
        shipments = disk_shipments(self.wal_path)
        if self.epoch is None:
            return shipments
        return [replace(shipment, epoch=self.epoch)
                for shipment in shipments]

    def segment_digests(self) -> dict[int, str]:
        """Per-generation digests of the sealed segments — what a
        follower compares against during anti-entropy."""
        self._require_alive()
        return sealed_digests(self.wal_path)

    def fetch_segment(self, generation: int) -> Shipment:
        """Re-ship one sealed segment for read-repair."""
        self._require_alive()
        path = f"{self.wal_path}.{generation:06d}"
        try:
            payload = _read_wal_text(path)
        except OSError as exc:
            raise FederationError(
                f"primary {self.name!r} has no sealed generation "
                f"{generation}: {exc}") from exc
        return Shipment(generation, payload, True,
                        payload_digest(payload), self.epoch)

    def crash(self) -> None:
        """Die.  Files survive; the handle and the object do not."""
        self.wal.close()
        self.alive = False

    # -- demotion ----------------------------------------------------------------

    def demote(self, successor: "PrimaryNode", *, database: Database,
               channel: "ReplicationChannel | None" = None,
               ) -> "tuple[FollowerNode, DivergenceReport]":
        """Step down under *successor* and own up to the divergence.

        Called when a partitioned zombie heals and observes a higher
        epoch.  The node stops accepting writes, compares its history
        with the successor's generation by generation (canonical record
        bodies, so CRC re-stamping cannot mask a real difference),
        moves every diverged file aside as ``*.diverged``, and returns
        a fresh :class:`FollowerNode` over *database* (an empty twin —
        the diverged local state must not leak into the replica) plus
        the :class:`DivergenceReport`.  Statements that were
        acknowledged and then lost are named individually: the report
        is the surface where that broken promise becomes visible."""
        if self.epoch is None or successor.epoch is None \
                or successor.epoch <= self.epoch:
            raise FederationError(
                f"refusing to demote {self.name!r}: successor "
                f"{successor.name!r} claims epoch {successor.epoch}, "
                f"not newer than ours ({self.epoch})")
        self.wal.close()
        self.alive = False
        self.demoted = True
        self.observed_epoch = successor.epoch
        theirs = disk_history(successor.wal_path, "successor")
        report = DivergenceReport(
            node=self.name, epoch=self.epoch,
            successor=successor.name, successor_epoch=successor.epoch)
        for generation, (records, sealed) in disk_history(
                self.wal_path, "local").items():
            survived = theirs.get(generation, ([], True))[0]
            diverged_here = False
            for index, record in enumerate(records):
                if (index < len(survived)
                        and record_checksum_body(record)
                        == record_checksum_body(survived[index])):
                    continue
                diverged_here = True
                report.statements.append(DivergedStatement(
                    generation=generation, index=index,
                    sql=str(record.get("sql", "")),
                    acknowledged=(generation, index) in self.acked))
            if diverged_here:
                path = (f"{self.wal_path}.{generation:06d}"
                        if sealed else self.wal_path)
                quarantine = f"{path}.diverged"
                os.replace(path, quarantine)
                report.quarantined.append(quarantine)
                _metric("federation", "segments_diverged")
        self.divergence = report
        _metric("federation", "demotions")
        if self.auditor is not None:
            self.auditor.record_divergence(report)
        follower = FollowerNode(
            self.name, self.directory, database,
            timeline=self.timeline, channel=channel, auditor=self.auditor)
        follower.observe_epoch(successor.epoch)
        return follower, report

    def __repr__(self) -> str:
        state = ("demoted" if self.demoted
                 else "up" if self.alive else "down")
        claim = "" if self.epoch is None else f", epoch={self.epoch}"
        return (f"PrimaryNode({self.name!r}, {state}, "
                f"gen={self.wal.generation}{claim})")


class FollowerNode:
    """A read replica fed by WAL shipments.

    ``applied`` is the per-generation ledger: how many *complete*
    records of each shipped generation have been replayed into the
    local database (a record is one statement or one committed
    transaction, applied whole).  A re-shipped (grown) segment applies only
    ``records[applied[gen]:]``; a torn tail is never counted, so its
    completed form later applies exactly once.

    ``epoch`` is the highest leadership epoch this follower has
    observed; a shipment claiming an older epoch is **fenced**
    (``shipments_fenced``) — the one-way door that stops a partitioned
    zombie's history from reaching replicas that already follow its
    successor."""

    def __init__(self, name: str, directory: str, database: Database, *,
                 timeline, apply_cost: float = 0.02,
                 channel: "ReplicationChannel | None" = None,
                 auditor=None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.name = name
        self.directory = directory
        self.database = database
        self.timeline = timeline
        self.apply_cost = apply_cost
        self.channel = channel if channel is not None \
            else ReplicationChannel()
        self.auditor = auditor
        self.wal_path = os.path.join(directory, _ACTIVE_NAME)
        self.applied: dict[int, int] = {}
        self.statements_applied = 0  # the ledger counts records
        #: generation → the prefix of its payload already verified:
        #: ``(length, newlines, digest, records)``, complete lines only.
        self._verified: dict[int, tuple[int, int, str, int]] = {}
        self.last_catchup = timeline.now()
        self.rejected_shipments = 0
        self.last_rejection: str | None = None
        self.epoch: int | None = None
        self.shipments_fenced = 0
        self.last_fence: str | None = None

    def observe_epoch(self, epoch: "int | None") -> None:
        """Adopt *epoch* if it is higher than anything seen so far."""
        if epoch is not None and (self.epoch is None or epoch > self.epoch):
            self.epoch = epoch

    def apply_shipment(self, shipment: Shipment) -> int:
        """Verify, persist, and replay one shipment; returns statements
        applied.

        The **fence** comes first: a shipment claiming an older epoch
        than this follower has observed is from a deposed leader and is
        refused before any other check — its bytes may be perfectly
        intact, which is exactly the problem.  (Claimless shipments,
        ``epoch=None``, are disk salvage and pass.)

        Integrity is then checked **before** a byte touches disk: the
        shipment digest must match its payload, and the payload must
        replay cleanly through :func:`read_wal_records` (per-record
        CRCs included) — a corrupt shipment is rejected whole, counted
        in ``rejected_shipments``, and the previous local copy of that
        generation survives untouched.  A payload opening with exactly
        the prefix this generation last verified (same SHA-256, ledger
        still at its record count) is parsed from there on, any other
        whole.  A generation new to a follower that has applied
        something is refused when its header says the one before sealed
        more records than this follower applied (a purged segment)."""
        generation = shipment.generation
        if (shipment.epoch is not None and self.epoch is not None
                and shipment.epoch < self.epoch):
            self.shipments_fenced += 1
            self.last_fence = (
                f"generation {shipment.generation}: sender claims epoch "
                f"{shipment.epoch} but the group is at {self.epoch}")
            _metric("federation", "shipments_fenced")
            raise FederationError(
                f"follower {self.name!r} fenced stale-epoch shipment: "
                f"{self.last_fence}")
        self.observe_epoch(shipment.epoch)
        data = shipment.payload.encode("utf-8")
        done = self.applied.get(generation, 0)
        length, lines, digest, base = self._verified.get(
            generation, (0, 0, None, 0))
        view = memoryview(data)
        hasher = hashlib.sha256(view[:length])
        resume = base == done and hasher.hexdigest() == digest
        hasher.update(view[length:])
        if not resume:
            length, lines, base = 0, 0, 0
        if hasher.hexdigest() != shipment.digest:
            self._reject(shipment, "digest mismatch in flight")
        try:
            records, torn = parse_wal_payload(
                data, path=f"<shipment gen {generation}>",
                allow_torn_tail=not shipment.sealed,
                start=length, first_index=lines + 1)
        except StorageError as exc:
            self._reject(shipment, f"{exc.kind or 'corrupt'} payload: {exc}")
        if self.applied and generation not in self.applied:
            self._refuse_hole(shipment, data)
        total = base + len(records)
        if done > total:
            self._reject(
                shipment,
                f"diverged: ledger says {done} records applied but the "
                f"shipment carries only {total}")
        path = (f"{self.wal_path}.{generation:06d}"
                if shipment.sealed else self.wal_path)
        with open(path, "wb") as handle:
            handle.write(data)
        fresh = records[done - base:]
        applied = apply_wal_records(fresh, self.database)
        self.applied[generation] = done + len(fresh)
        self.statements_applied += applied
        if torn or not data.endswith(b"\n"):
            self._verified.pop(generation, None)
        else:
            self._verified[generation] = (
                len(data), lines + data.count(b"\n", length),
                shipment.digest, total)
        if applied and self.apply_cost:
            self.timeline.advance(self.apply_cost * applied)
        _metric("federation", "replica_statements", applied)
        if self.auditor is not None:
            for offset in range(len(fresh)):
                self.auditor.record_apply(
                    self.name, shipment.epoch, shipment.generation,
                    done + offset)
        return applied

    def _refuse_hole(self, shipment: Shipment, data: bytes) -> None:
        """Reject *shipment* if its header says the generation before it
        sealed more records than this follower's ledger holds."""
        __, __, kind, header, __ = next(classify_wal(data), (0, 0, "", {}, ""))
        held = header.get(PREDECESSOR) if kind == HEADER else None
        previous = shipment.generation - 1
        applied = self.applied.get(previous, 0)
        if isinstance(held, int) and applied < held:
            self._reject(
                shipment,
                f"generation {previous} sealed {held} records but this "
                f"follower applied {applied}; refusing to apply over the "
                f"hole", generation=previous, index=applied, records=held)

    def _reject(self, shipment: Shipment, reason: str, **where) -> None:
        self.rejected_shipments += 1
        self.last_rejection = (
            f"generation {shipment.generation}: {reason}")
        _metric("federation", "shipments_rejected")
        raise FederationError(
            f"follower {self.name!r} rejected shipment "
            f"{self.last_rejection}", node=self.name, **where)

    def catch_up(self, primary: PrimaryNode) -> int:
        """Pull and apply everything the primary can ship.

        The round runs through this follower's channel, so it can be
        dropped, delayed, or partitioned (:class:`ChannelError` — the
        round is simply lost and staleness keeps growing) and the batch
        can arrive duplicated or reordered: shipments are sorted by
        generation before applying, and a batch with a missing
        predecessor stops at the gap (later generations must not apply
        over a hole the network ate).

        The staleness clock resets only on a **complete** round-trip: a
        rejected or fenced shipment stops the round and leaves
        ``last_catchup`` untouched, so the staleness bound keeps
        telling the truth about a replica that is falling behind
        because its feed is corrupt — or deposed."""
        applied = 0
        with _span("replica.catch_up", follower=self.name,
                   primary=primary.name):
            try:
                shipments = self.channel.ship(primary)
            except ChannelError:
                return applied
            for shipment in sorted(shipments,
                                   key=lambda item: item.generation):
                if (self.applied
                        and shipment.generation > max(self.applied) + 1):
                    return applied
                try:
                    applied += self.apply_shipment(shipment)
                except FederationError:
                    return applied
        self.last_catchup = self.timeline.now()
        _gauge("federation", f"replica_{self.name}_staleness", 0.0)
        return applied

    def segment_digests(self) -> dict[int, str]:
        """Digests of the *local* sealed segments (anti-entropy)."""
        return sealed_digests(self.wal_path)

    def anti_entropy(self, primary: PrimaryNode) -> "AntiEntropyReport":
        """Compare sealed-segment digests with the primary and repair.

        For every generation the primary has sealed: a missing local
        copy is left for :meth:`catch_up`; a digest mismatch (bit rot
        or divergence) quarantines the local file as
        ``<name>.quarantined`` and re-fetches the segment from the
        primary (a repair fetch that fails — partition, bit rot on the
        primary — leaves the generation quarantined-but-unrepaired
        rather than aborting the round).  Sealed generations that exist
        **only locally** are reported in ``local_only``: the primary
        cannot repair what it never had, but a silent extra history is
        divergence and must be surfaced.  The apply ledger deduplicates
        the replay, so repair never double-applies a statement."""
        report = AntiEntropyReport(follower=self.name)
        with _span("replica.anti_entropy", follower=self.name,
                   primary=primary.name):
            local = self.segment_digests()
            local_generations = {generation for generation, __
                                 in list_sealed_segments(self.wal_path)}
            remote = self.channel.segment_digests(primary)
            for generation, digest in sorted(remote.items()):
                report.checked += 1
                mine = local.get(generation)
                if mine is None:
                    path = f"{self.wal_path}.{generation:06d}"
                    if not os.path.exists(path):
                        continue  # never shipped; catch_up's job
                if mine == digest:
                    continue
                report.mismatched.append(generation)
                path = f"{self.wal_path}.{generation:06d}"
                quarantine = f"{path}.quarantined"
                os.replace(path, quarantine)
                report.quarantined.append(quarantine)
                _metric("federation", "segments_quarantined")
                try:
                    self.apply_shipment(
                        self.channel.fetch_segment(primary, generation))
                except (FederationError, StorageError):
                    continue
                report.repaired.append(generation)
                _metric("federation", "segments_repaired")
            for generation in sorted(local_generations - set(remote)):
                report.checked += 1
                report.local_only.append(generation)
                _metric("federation", "segments_local_only")
        return report

    def verify_ledger(self) -> list[StorageError]:
        """Scrub the local segment files; returns every defect found.

        Sealed segments must parse completely with valid CRCs; the
        active file may end in a torn tail (a crashed shipment) but
        must otherwise verify.  An empty list means this follower is
        fit for promotion."""
        defects: list[StorageError] = []
        for __, path in list_sealed_segments(self.wal_path):
            try:
                read_wal_records(path, allow_torn_tail=False)
            except StorageError as exc:
                defects.append(exc)
        if os.path.exists(self.wal_path):
            try:
                read_wal_records(self.wal_path, allow_torn_tail=True)
            except StorageError as exc:
                defects.append(exc)
        return defects

    def staleness_bound(self) -> float:
        """Virtual time since the last complete catch-up — the honest
        upper bound on how stale a read served here can be (mirrors
        ``CachedMediator.staleness_bound``)."""
        return self.timeline.now() - self.last_catchup

    def applied_total(self) -> int:
        return sum(self.applied.values())

    def __repr__(self) -> str:
        return (f"FollowerNode({self.name!r}, "
                f"{self.statements_applied} stmts applied)")


class ReplicationGroup:
    """One primary, its followers, and the failover procedure."""

    def __init__(self, primary: PrimaryNode,
                 followers: Sequence[FollowerNode], *,
                 promotion_window: float = 5.0, membership=None) -> None:
        names = [primary.name] + [follower.name for follower in followers]
        if len(set(names)) != len(names):
            raise FederationError(f"duplicate node names: {names!r}")
        self.primary = primary
        self.followers = list(followers)
        self.promotion_window = promotion_window
        self.membership = membership if membership is not None \
            else getattr(primary, "membership", None)
        self.last_promotion: float | None = None
        #: Candidates refused at the last promotion (corrupt ledgers,
        #: or ledgers short of a replicated write).
        self.refused: list[str] = []
        #: generation → ``(records, epoch)``: the most records of each
        #: generation any follower ledger held when seen (at ``sync``,
        #: at each promotion, winners included) and the epoch that
        #: follower had observed — what a candidate must reach.
        self.replicated: dict[int, tuple[int, "int | None"]] = {}

    def _learn(self, followers: Sequence[FollowerNode]) -> None:
        """Raise the replicated high-water to *followers*' ledgers."""
        for follower in followers:
            for generation, records in follower.applied.items():
                if records > self.replicated.get(generation, (0, None))[0]:
                    self.replicated[generation] = (records, follower.epoch)

    def sync(self) -> int:
        """Every follower catches up; returns total statements applied."""
        applied = sum(follower.catch_up(self.primary)
                      for follower in self.followers)
        self._learn(self.followers)
        return applied

    def fail_primary(self) -> None:
        self.primary.crash()

    def promote(self) -> PrimaryNode:
        """Fail over: stand up the most-caught-up follower as primary.

        Deterministic choice — highest ledger total, roster order on
        ties — **among followers fit to be the source of truth**: a
        candidate whose segments fail :meth:`FollowerNode.verify_ledger`
        is refused (a bit-rotted replica), and so is one whose ledger,
        after the salvage below, is short of ``replicated`` (crowning it
        would lose an acknowledged-and-replicated write).  The next
        candidate is tried; when none is fit nobody is crowned, no
        epoch is spent, and the :class:`FederationError` names the
        first missing write (``epoch`` / ``generation`` / ``index``)
        and the candidate (``node``).

        A *cleanly dead* primary (``crash()``) is drained from disk:
        a candidate salvages whatever the corpse's directory still holds
        (its ledger skips everything it already applied; a shipment
        that fails its integrity checks — including bit-rotted bytes —
        is skipped, so a rotting dead disk cannot poison the new
        primary).  A **zombie** — still alive behind a partition — is
        promoted over only once the membership service says its lease
        has expired, and its disk is *not* touched: the partition that
        made the failover necessary also makes the disk unreachable,
        and the zombie will account for its own suffix when it heals
        and demotes.

        The epoch is bumped through the membership service (when
        wired), remaining followers adopt it immediately so the old
        primary's shipments fence from the first post-failover round,
        and the winner reopens the shipped WAL as its own: the ``$wal``
        header makes the new :class:`WriteAheadLog` continue the old
        generation sequence instead of restarting at zero.

        If the promotion overruns ``promotion_window`` the roster swap
        still completes — a half-promoted group with a corpse for a
        primary is strictly worse than a slow failover — and the SLO
        breach is reported *after* the group is consistent."""
        zombie = self.primary.alive
        if zombie and (self.membership is None
                       or not self.membership.lease_expired()):
            raise FederationError(
                f"primary {self.primary.name!r} is still up"
                + ("" if self.membership is None
                   else " and its lease is still live"))
        if not self.followers:
            raise FederationError("no follower to promote")
        started = self.followers[0].timeline.now()
        with _span("replica.promote", dead=self.primary.name):
            candidate = None
            self.refused = []
            behind: dict = {}
            self._learn(self.followers)
            order = sorted(
                range(len(self.followers)),
                key=lambda i: (-self.followers[i].applied_total(), i))
            for index in order:
                contender = self.followers[index]
                defects = contender.verify_ledger()
                if defects:
                    self.refused.append(
                        f"{contender.name}: {defects[0].kind or 'corrupt'} "
                        f"in {defects[0].path}")
                    _metric("federation", "promotions_refused_corrupt")
                    continue
                # Final drain straight from the dead primary's directory
                # — unless it is a zombie, whose disk the partition hides.
                salvaged = 0
                if not zombie:
                    for shipment in disk_shipments(self.primary.wal_path,
                                                   on_bit_rot="skip"):
                        try:
                            salvaged += contender.apply_shipment(shipment)
                        except FederationError:
                            _metric("federation", "salvage_skipped")
                missing = [
                    (epoch, generation, contender.applied.get(generation, 0))
                    for generation, (records, epoch)
                    in sorted(self.replicated.items())
                    if contender.applied.get(generation, 0) < records]
                if not missing:
                    candidate = contender
                    break
                epoch, generation, position = missing[0]
                self.refused.append(
                    f"{contender.name}: does not hold the replicated "
                    f"write at epoch {epoch} gen {generation} index "
                    f"{position}")
                behind = behind or dict(node=contender.name, epoch=epoch,
                                        generation=generation,
                                        index=position)
                _metric("federation", "promotions_refused_behind")
            if candidate is None:
                raise FederationError(
                    "no follower passed ledger verification; refused: "
                    + "; ".join(self.refused), **behind)
            self._learn([candidate])
            candidate.last_catchup = candidate.timeline.now()
            if self.membership is not None:
                self.membership.elect(candidate.name)
            promoted = PrimaryNode(
                candidate.name, candidate.directory, candidate.database,
                timeline=candidate.timeline, membership=self.membership,
                channel=candidate.channel, auditor=candidate.auditor)
            for follower in self.followers:
                if follower is not candidate:
                    follower.observe_epoch(promoted.epoch)
            elapsed = candidate.timeline.now() - started
        self.last_promotion = elapsed
        self.followers = [follower for follower in self.followers
                          if follower is not candidate]
        self.primary = promoted
        _metric("federation", "promotions")
        _gauge("federation", "promotion_elapsed", elapsed)
        _gauge("federation", "promotion_salvaged", salvaged)
        if elapsed > self.promotion_window:
            raise FederationError(
                f"promotion took {elapsed:.2f} virtual seconds, over the "
                f"{self.promotion_window:.2f}s window")
        return promoted

    def __repr__(self) -> str:
        return (f"ReplicationGroup(primary={self.primary.name!r}, "
                f"{len(self.followers)} followers)")

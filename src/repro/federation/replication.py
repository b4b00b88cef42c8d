"""WAL-shipped read replicas with deterministic, fenced failover.

A shard's primary runs an ordinary :class:`~repro.db.storage.
WriteAheadLog`; replication is **shipping that log**, in one exchange:

- a :class:`FollowerNode` sends its verified-prefix table (generation
  → length and SHA-256 of the complete lines it has verified) and
  :func:`disk_shipments` answers one :class:`Shipment` per WAL file:
  from the end of that prefix when the file opens with exactly those
  bytes, whole otherwise, always with the whole file's digest — a
  follower is shipped only what it has not verified;
- before a byte touches its disk the follower checks the epoch fence,
  the digest (damage in flight), the per-record CRCs (rot on the
  primary's disk stops at the first follower) and, for a generation
  new to its ledger, the header's predecessor count (a purged segment
  is a hole); a per-generation ledger of applied records makes every
  statement apply **at most once**, and a torn active tail is dropped
  exactly as recovery drops it;
- repair rides the same round: a sealed local copy that diverged from
  the primary's, or that :meth:`FollowerNode.verify_ledger` found
  damaged, ships whole and is quarantined (``*.quarantined``) before
  the fresh copy lands; sealed generations only the follower holds are
  reported (:class:`RoundReport` on ``follower.last_round``);
- :meth:`FollowerNode.staleness_bound` is virtual time since the last
  complete round, and :meth:`ReplicationGroup.promote` refuses a
  follower whose ledger fails verification.

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
- the round runs through a :class:`~repro.federation.channel.
  ReplicationChannel`, so a seeded :class:`~repro.federation.channel.
  FaultyChannel` can drop, delay, duplicate, reorder, and partition
  it; :meth:`FollowerNode.catch_up` sorts shipments by generation and
  refuses to apply over a gap, and a duplicated suffix applies nothing;
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
import shutil
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Shipment:
    """One WAL file in flight: its generation, its payload from byte
    ``start`` on (``0``: the whole file), whether it is sealed
    (immutable) or the still-growing active log, the SHA-256 digest of
    the **whole** file as the sender read it (always verified on
    arrival), and the sender's **epoch claim** (``None`` means no
    leadership claim — disk salvage — and is never fenced)."""

    generation: int
    payload: str
    sealed: bool
    digest: str
    epoch: "int | None" = None
    start: int = 0

    def __repr__(self) -> str:
        kind = "sealed" if self.sealed else "active"
        claim = "" if self.epoch is None else f", epoch={self.epoch}"
        where = f"@{self.start}" if self.start else ""
        return (f"Shipment(gen={self.generation}, {kind}, "
                f"{len(self.payload)}B{where}{claim})")


@dataclass
class RoundReport:
    """What one catch-up round repaired, and what it could not.

    ``repaired`` the sealed generations whose local copy diverged from
    the primary's (or failed :meth:`FollowerNode.verify_ledger`) and
    was replaced by the primary's file; ``quarantined`` the local files
    set aside as ``*.quarantined``; ``local_only`` the sealed
    generations **only this follower** holds — a demoted zombie's tail,
    or segments the primary purged — reported, never deleted;
    ``refused`` the error that stopped the round, if one did."""

    follower: str
    repaired: list[int] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    local_only: list[int] = field(default_factory=list)
    refused: "FederationError | None" = None

    @property
    def clean(self) -> bool:
        return not self.repaired and not self.local_only

    def summary(self) -> str:
        parts = []
        if self.repaired:
            parts.append(f"generations {self.repaired} diverged, "
                         f"repaired from the primary")
        if self.local_only:
            parts.append(f"local-only generations {self.local_only} "
                         f"(not on the primary)")
        return f"{self.follower}: " + (", ".join(parts) or "no divergence")


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


def disk_shipments(wal_path: str, request: "dict | None" = None, *,
                   epoch: "int | None" = None,
                   on_bit_rot: str = "raise") -> list[Shipment]:
    """The answer a WAL directory gives a follower's *request*.

    One :class:`Shipment` per file: sealed ``wal.jsonl.NNNNNN`` in
    generation order, then the active file (generation from its
    ``$wal`` header, else one past the newest sealed segment, as
    :class:`WriteAheadLog` infers on reopen).  *request* maps
    generation → ``(length, sha256)``: a file opening with exactly
    those bytes ships from ``start=length`` on, any other whole; the
    digest is the whole file's.  Invalid UTF-8 is ``bit_rot``, raised
    structured or skipped (``on_bit_rot="skip"``: a rotting dead disk
    must not abort the salvage of its healthy segments).  Salvage
    passes no *epoch*: the disk is history, not a leadership claim, so
    followers never fence it."""
    request = request or {}
    files = [(generation, path, True)
             for generation, path in list_sealed_segments(wal_path)]
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        generation = segment_generation(wal_path)
        if generation is None:
            generation = files and files[-1][0] + 1 or 0
        files.append((generation, wal_path, False))
    shipments: list[Shipment] = []
    for generation, path, sealed in files:
        with open(path, "rb") as handle:
            raw = handle.read()
        length, digest = request.get(generation, (0, None))
        hasher = hashlib.sha256(memoryview(raw)[:length])
        start = length if hasher.hexdigest() == digest else 0
        hasher.update(memoryview(raw)[length:])
        try:
            payload = raw[start:].decode("utf-8")
        except UnicodeDecodeError as exc:
            if on_bit_rot == "skip":
                _metric("federation", "shipments_skipped_bit_rot")
                continue
            raise StorageError(
                f"WAL file {path!r} is not valid UTF-8 at byte "
                f"{start + exc.start} (bit rot)", path=path,
                offset=start + exc.start, kind="bit_rot") from exc
        shipments.append(Shipment(generation, payload, sealed,
                                  hasher.hexdigest(), epoch, start))
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
    ``wal_path`` (what byte-identical convergence is checked by).
    Unreadable files are omitted (they show up as a mismatch)."""
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
        #: The WAL generations below it live only in this node's image.
        self.image_generation = 0
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
        self._require_alive()
        self.wal.rotate()
        save_database(self.database, image_path,
                      wal_generation=self.wal.generation)
        self.image_generation = self.wal.generation

    def ship(self, request: "dict | None" = None) -> list[Shipment]:
        """Flush, then answer a follower's verified-prefix *request*
        (:func:`disk_shipments`), stamped with this primary's epoch."""
        self._require_alive()
        self.wal.flush()
        _metric("federation", "wal_ship_rounds")
        return disk_shipments(self.wal_path, request, epoch=self.epoch)

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
            survived, kept_sealed = theirs.get(generation, ([], None))
            # A seal the successor lacks, or a header-only file of a
            # generation it lacks, would shadow the rejoined follower's.
            diverged_here = (sealed and not (
                kept_sealed and len(survived) == len(records))) or (
                not records and kept_sealed is None)
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
    successor.  ``last_round`` is the :class:`RoundReport` of the last
    round that got an answer."""

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
        #: generation → the prefix of it already verified, complete
        #: lines only: ``(length, newlines, sha256 state, records,
        #: path)``, *path* being the local file that holds those bytes.
        self._verified: dict[int, tuple] = {}
        #: generations :meth:`verify_ledger` found damaged.
        self._suspect: set[int] = set()
        #: the generation the local active file holds.
        self._active = segment_generation(self.wal_path)
        self.last_round = RoundReport(name)
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

    def _request(self) -> dict[int, tuple[int, str]]:
        """The verified-prefix table a round sends: generation →
        ``(length, sha256)`` of each prefix whole on disk, not suspect."""
        return {generation: (length, hasher.hexdigest())
                for generation, (length, __, hasher, ___, path)
                in self._verified.items()
                if generation not in self._suspect and os.path.isfile(path)
                and os.path.getsize(path) == length}

    def apply_shipment(self, shipment: Shipment) -> int:
        """Verify, persist, and replay one shipment; returns statements
        applied.

        The **fence** comes first: a shipment claiming an older epoch
        than this follower has observed is from a deposed leader and is
        refused before any other check — its bytes may be perfectly
        intact, which is exactly the problem.  (Claimless shipments,
        ``epoch=None``, are disk salvage and pass.)

        Integrity is then checked **before** a byte touches disk: the
        digest (of the verified prefix plus the payload) and every
        record's CRC — a corrupt shipment is rejected whole, counted in
        ``rejected_shipments``, and the local copy survives untouched.
        A whole payload (``start == 0``) opening with exactly the prefix
        this generation last verified is parsed from there on, any other
        whole; a payload from ``start > 0`` must begin where that prefix
        ends (one ending inside it is a duplicate: nothing happens) and
        is written at that offset.  A generation new to the ledger is
        refused when its header says the one before sealed more records
        than this follower applied (a purged segment).  A sealed local
        copy that diverged from a whole payload, or that
        :meth:`verify_ledger` found damaged, is quarantined first."""
        generation, start = shipment.generation, shipment.start
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
        path = (f"{self.wal_path}.{generation:06d}"
                if shipment.sealed else self.wal_path)
        data = shipment.payload.encode("utf-8")
        done = self.applied.get(generation, 0)
        length, lines, prefix, base, held = self._verified.get(
            generation, (0, 0, None, 0, None))
        view = memoryview(data)
        diverged = generation in self._suspect
        if start:
            if held == path and start + len(data) <= length:
                return 0                   # nothing past the verified prefix
            if start != length:
                self._reject(shipment, f"starts at byte {start} but "
                             f"{length} bytes of it are verified here")
            hasher = prefix.copy()
            hasher.update(view)
        else:
            hasher = hashlib.sha256(view[:length])
            resume = (base == done and prefix is not None
                      and hasher.digest() == prefix.digest())
            hasher.update(view[length:])
            if not resume:
                diverged = diverged or prefix is not None
                length, lines, base = 0, 0, 0
        if hasher.hexdigest() != shipment.digest:
            self._reject(shipment, "digest mismatch in flight")
        skip = 0 if start else length
        try:
            records, torn = parse_wal_payload(
                data, path=f"<shipment gen {generation}>",
                allow_torn_tail=not shipment.sealed,
                start=skip, first_index=lines + 1)
        except StorageError as exc:
            self._reject(shipment, f"{exc.kind or 'corrupt'} payload: {exc}")
        if generation not in self.applied:
            self._refuse_hole(shipment, data)
        total = base + len(records)
        if done > total:
            self._reject(
                shipment,
                f"diverged: ledger says {done} records applied but the "
                f"shipment carries only {total}")
        if diverged and shipment.sealed and os.path.exists(path):
            self._quarantine(path, generation)
        self._suspect.discard(generation)
        if start and held != path:
            shutil.copyfile(held, path)  # the prefix, verified as active
        with open(path, "r+b" if start else "wb") as handle:
            handle.seek(start)
            handle.write(data)
            handle.truncate()
        seal = f"{self.wal_path}.{generation:06d}"
        if not shipment.sealed and os.path.exists(seal):
            # The sender holds this generation active, so the local
            # seal is a deposed leader's and would replay ahead of it.
            self._quarantine(seal, generation)
        if not shipment.sealed:        # other prefixes here are overwritten
            self._active = generation
            self._verified = {other: entry for other, entry
                              in self._verified.items()
                              if entry[4] != path or other == generation}
        elif self._active == generation:  # the seal supersedes the copy
            os.remove(self.wal_path)
            self._active = None
        fresh = records[done - base:]
        applied = apply_wal_records(fresh, self.database)
        self.applied[generation] = done + len(fresh)
        self.statements_applied += applied
        if torn or data and not data.endswith(b"\n"):
            self._verified.pop(generation, None)
        else:
            self._verified[generation] = (
                start + len(data), lines + data.count(b"\n", skip),
                hasher, total, path)
        if applied and self.apply_cost:
            self.timeline.advance(self.apply_cost * applied)
        _metric("federation", "replica_statements", applied)
        if self.auditor is not None:
            for offset in range(len(fresh)):
                self.auditor.record_apply(
                    self.name, shipment.epoch, shipment.generation,
                    done + offset)
        return applied

    def _quarantine(self, path: str, generation: int) -> None:
        os.replace(path, f"{path}.quarantined")
        self.last_round.quarantined.append(f"{path}.quarantined")
        self.last_round.repaired.append(generation)
        _metric("federation", "segments_quarantined")

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
        """One round: send the verified-prefix table, apply the answer.

        The round runs through this follower's channel, so it can be
        dropped, delayed, or partitioned (:class:`ChannelError` — the
        round is simply lost and staleness keeps growing) and the
        answer can arrive duplicated or reordered: shipments are sorted
        by generation before applying, and an answer with a missing
        predecessor stops at the gap (later generations must not apply
        over a hole the network ate).  What the round repaired, and the
        sealed generations the primary did not answer for, go on a
        fresh ``last_round``.

        The staleness clock resets only on a **complete** round-trip: a
        rejected or fenced shipment stops the round and leaves
        ``last_catchup`` untouched, so the staleness bound keeps
        telling the truth about a replica that is falling behind
        because its feed is corrupt — or deposed."""
        applied = 0
        with _span("replica.catch_up", follower=self.name,
                   primary=primary.name):
            try:
                shipments = self.channel.ship(primary, self._request())
            except ChannelError:
                return applied
            self.last_round = RoundReport(self.name)
            answered = {shipment.generation for shipment in shipments}
            for generation, __ in list_sealed_segments(self.wal_path):
                if generation not in answered:
                    self.last_round.local_only.append(generation)
                    _metric("federation", "segments_local_only")
            for shipment in sorted(shipments,
                                   key=lambda item: item.generation):
                if (self.applied
                        and shipment.generation > max(self.applied) + 1):
                    return applied
                try:
                    applied += self.apply_shipment(shipment)
                except FederationError as error:
                    self.last_round.refused = error
                    return applied
        self.last_catchup = self.timeline.now()
        return applied

    def verify_ledger(self) -> list[StorageError]:
        """Scrub the local segment files; returns every defect found.

        Sealed segments must parse completely with valid CRCs; the
        active file may end in a torn tail (a crashed shipment) but
        must otherwise verify; every file must open with the bytes this
        follower verified (else ``bit_rot``).  An empty list means it
        is fit for promotion.  A damaged file's generations turn
        suspect: the next round asks for them whole and quarantines a
        sealed copy before the primary's lands.  No file moves here."""
        defects: list[StorageError] = []
        files = list_sealed_segments(self.wal_path)
        if os.path.exists(self.wal_path):
            files.append((None, self.wal_path))
        for generation, path in files:
            held = {other: entry for other, entry in self._verified.items()
                    if entry[4] == path}
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                parse_wal_payload(data, path=path,
                                  allow_torn_tail=generation is None)
                if any(hashlib.sha256(data[:entry[0]]).digest()
                       != entry[2].digest() for entry in held.values()):
                    raise StorageError(f"{path!r} lost verified bytes "
                                       f"(bit rot)", path=path, kind="bit_rot")
            except StorageError as exc:
                defects.append(exc)
                self._suspect |= held.keys() | ({generation} - {None})
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
        a candidate salvages whatever the corpse's directory holds past
        what it has verified (it sends its own request; a shipment that
        fails its integrity checks — including bit-rotted bytes — is
        skipped, so a rotting dead disk cannot poison the new primary).  A **zombie** — still alive behind a partition — is
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
                    for shipment in disk_shipments(
                            self.primary.wal_path, contender._request(),
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

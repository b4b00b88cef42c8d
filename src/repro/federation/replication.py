"""WAL-shipped read replicas with deterministic, fenced failover.

A follower is shipped what lies past its verified prefix and checks
fence, digest, CRCs and predecessor count before a byte lands.
**Repair is one rule** (:meth:`FollowerNode.fill`): each generation
comes from the first source whose copy verifies — the live primary (or
a dead one's directory), the other followers, a checkpoint image (cut
from a live primary's database when its own copy fails).  A primary
promoted over names each acknowledged write lost in a
:class:`DivergenceReport`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.db.database import Database
from repro.db.storage import (
    HEADER,
    PREDECESSOR,
    WriteAheadLog,
    apply_wal_records,
    classify_wal,
    header_record,
    list_sealed_segments,
    parse_wal_payload,
    read_image,
    read_wal_records,
    record_checksum_body,
    restore_image,
    save_database,
    segment_generation,
)
from repro.errors import ChannelError, FederationError, LeaseError, StorageError
from repro.federation.channel import ReplicationChannel
from repro.obs.metrics import count as _metric, gauge as _gauge
from repro.obs.trace import span as _span

_ACTIVE_NAME = "wal.jsonl"
_IMAGE_NAME = "image.json"


def payload_digest(payload: str) -> str:
    """SHA-256 over a shipment payload (the whole WAL file's text)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_digest(path: str) -> "str | None":
    """SHA-256 of one on-disk WAL file; ``None`` if unreadable or not
    UTF-8 (bit rot surfaces as a mismatch, not a crash)."""
    try:
        with open(path, "rb") as handle:
            return payload_digest(handle.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError):
        return None


@dataclass(frozen=True)
class Shipment:
    """One WAL file (or ``image``: the checkpoint image covering what lies
    below *generation*) from byte ``start`` on, with the whole file's
    SHA-256, the sender's epoch and record count (``None``: a disk
    read).  Rot ships as surrogate escapes, for a CRC check to name."""

    generation: int
    payload: str
    sealed: bool
    digest: str
    epoch: "int | None" = None
    start: int = 0
    image: bool = False
    records: "int | None" = None

    def __repr__(self) -> str:
        kind = "image" if self.image else "sealed" if self.sealed else "active"
        claim = "" if self.epoch is None else f", epoch={self.epoch}"
        where = f"@{self.start}" if self.start else ""
        return (f"Shipment(gen={self.generation}, {kind}, "
                f"{len(self.payload)}B{where}{claim})")


@dataclass
class RoundReport:
    """What a round did: sealed generations ``repaired`` (files
    ``quarantined``), ``local_only`` ones, the error that ``refused`` it."""

    follower: str
    repaired: list[int] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    local_only: list[int] = field(default_factory=list)
    refused: "FederationError | None" = None


@dataclass(frozen=True)
class DivergedStatement:
    """One statement a deposed primary holds that its successor does
    not, and whether a client was told it committed."""

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
    """A deposed primary's records its successor lacks (the acknowledged
    ones: broken promises) and the ``*.diverged`` files set aside."""

    node: str
    epoch: int
    successor: str
    successor_epoch: int
    statements: list[DivergedStatement] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def acknowledged_lost(self) -> list[DivergedStatement]:
        return [entry for entry in self.statements if entry.acknowledged]


def disk_shipments(wal_path: str, request: "dict | None" = None, *,
                   epoch: "int | None" = None) -> list[Shipment]:
    """One :class:`Shipment` per WAL file, sealed then active, for a
    *request* of generation → ``(length, sha256)``: a file opening with
    exactly those bytes ships from ``start=length`` on, any other (or
    one mapped to ``None``) whole."""
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
        length, digest = request.get(generation) or (0, None)
        hasher = hashlib.sha256(memoryview(raw)[:length])
        start = length if hasher.hexdigest() == digest else 0
        hasher.update(memoryview(raw)[length:])
        shipments.append(Shipment(
            generation, raw[start:].decode("utf-8", "surrogateescape"),
            sealed, hasher.hexdigest(), epoch, start))
    return shipments


def image_shipments(node, epoch: "int | None" = None) -> list[Shipment]:
    """*node*'s checkpoint image as a shipment (none before its first)."""
    path = os.path.join(node.directory, _IMAGE_NAME)
    if not node.image_generation or not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        raw = handle.read()
    return [Shipment(node.image_generation,
                     raw.decode("utf-8", "surrogateescape"), True,
                     hashlib.sha256(raw).hexdigest(), epoch, image=True)]


def disk_history(wal_path: str, label: str) -> dict[int, tuple[list, bool]]:
    """generation → ``(records, sealed)`` for every file next to
    *wal_path* that parses (the active one may end torn); a rotted or
    corrupt file is left out."""
    history: dict[int, tuple[list, bool]] = {}
    for shipment in disk_shipments(wal_path):
        try:
            records, __ = parse_wal_payload(
                shipment.payload.encode("utf-8", "surrogateescape"),
                path=f"<{label} gen {shipment.generation}>",
                allow_torn_tail=not shipment.sealed)
        except StorageError:
            continue
        history[shipment.generation] = (records, shipment.sealed)
    return history


def sealed_digests(wal_path: str) -> dict[int, str]:
    """generation → SHA-256 of each readable sealed segment next to
    *wal_path* (what byte-identical convergence is checked by)."""
    return {generation: digest
            for generation, path in list_sealed_segments(wal_path)
            if (digest := file_digest(path)) is not None}


class PrimaryNode:
    """A shard primary: a database, its WAL, and a shipping dock.  With
    a *membership* service it holds a lease (adopting a live one in its
    name, else standing for election), stamps its epoch into every
    header and shipment, and **refuses to acknowledge** writes the lease
    cannot cover; without one the write path pays nothing for either."""

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
        self.image_path = os.path.join(directory, _IMAGE_NAME)
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
        #: ``(generation, index)`` → SQL of every statement acknowledged
        #: to a client: the promises :meth:`account` checks.
        self.acked: dict[tuple[int, int], str] = {}
        #: The WAL generations below it live only in this node's image.
        self.image_generation = 0
        self._record_counts: dict[int, int] = {
            generation: len(records) for generation, (records, __)
            in disk_history(self.wal_path, name).items()
        } if self.lease is not None or auditor is not None else {}

    # -- the write path ----------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence = ()) -> None:
        """Apply and *acknowledge* one write, the lease checked before
        (expired ⇒ one renewal, else :class:`LeaseError`) and after the
        ``ack_cost`` window (a statement logged, never acknowledged)."""
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
        self.acked[generation, index] = sql
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
        """Seal the active segment, noting the new header when counting."""
        self._require_alive()
        sealed = self.wal.rotate()
        if (self.lease is not None or self.auditor is not None) \
                and os.path.getsize(self.wal_path):
            self._record_counts.setdefault(self.wal.generation, 0)
        return sealed

    def checkpoint(self, *, purge: bool = False) -> None:
        """Seal the active segment and save the database as
        ``image.json``; *purge* deletes the sealed segments it covers."""
        self.rotate()
        save_database(self.database, self.image_path,
                      wal_generation=self.wal.generation)
        self.image_generation = self.wal.generation
        if purge:
            self.wal.purge(before_generation=self.image_generation)
            self._record_counts = {  # as a restart would count them
                generation: count for generation, count
                in self._record_counts.items()
                if generation >= self.image_generation}

    def ship(self, request: "dict | None" = None) -> list[Shipment]:
        """Answer *request* with epoch and record counts, after repairing
        generations claimed rotted (``None``) or gone, blank or misheaded;
        the image rides along once the log lacks a generation it covers."""
        self._require_alive()
        self.wal.flush()
        _metric("federation", "wal_ship_rounds")
        request = request or {}
        files = dict(list_sealed_segments(self.wal_path))
        files[self.wal.generation] = self.wal_path
        shipments = disk_shipments(self.wal_path, request, epoch=self.epoch)
        claimed = {generation for generation, held in request.items()
                   if held is None} | {
            generation for generation in self._record_counts
            if not (generation in files and os.path.exists(files[generation])
                    and os.path.getsize(files[generation]))} | {
            self.wal.generation for shipment in shipments
            if shipment.generation not in files}
        if claimed and self.verify(claimed):
            shipments = disk_shipments(self.wal_path, request,
                                       epoch=self.epoch)
        shipments = [replace(shipment, records=self._record_counts.get(
            shipment.generation)) for shipment in shipments]
        covered = self.image_generation
        if (set(range(covered)) - {item.generation for item in shipments}
                and all(generation < covered or held is None
                        for generation, held in request.items())):
            shipments += image_shipments(self, self.epoch)
        return shipments

    def verify(self, generations: set[int]) -> bool:
        """Check each of *generations* not gone under the image, and the
        active one; if a file (or the image) fails or lacks records, set
        the damaged aside (``*.quarantined``), start the next generation
        if the active one failed, cut and purge under a new image, and
        return ``True``."""
        self._require_alive()
        self.wal.flush()
        files = dict(list_sealed_segments(self.wal_path))
        files[self.wal.generation] = self.wal_path
        claimed = {generation for generation in generations  # gone: imaged
                   if generation in files
                   or generation >= self.image_generation}
        if not claimed:
            return False
        rotten = []
        if self.image_generation in claimed and self.image_generation:
            try:
                read_image(self.image_path)
            except StorageError:
                rotten.append(self.image_path)
        for generation in claimed | {self.wal.generation}:  # sealed below
            path = files.get(generation, "")
            try:
                active = path == self.wal_path
                records, __ = read_wal_records(path, allow_torn_tail=active)
                if len(records) < self._record_counts.get(generation, 0) or (
                        active and segment_generation(path) != generation):
                    raise StorageError(f"{path!r} lost records")
            except (OSError, StorageError):
                rotten.append(path)
        if not rotten:
            return False
        self.wal.close()
        generation = self.wal.generation
        for path in filter(os.path.exists, rotten):
            os.replace(path, (f"{path}.{generation:06d}"
                              if path == self.wal_path else path)
                       + ".quarantined")
            _metric("federation", "segments_quarantined")
        if self.wal_path in rotten:
            with open(self.wal_path, "w", encoding="utf-8") as handle:
                handle.write(header_record(
                    generation + 1, self.epoch,
                    self._record_counts.get(generation)))
            self.wal = WriteAheadLog(
                self.wal_path, self.database,
                flush_every_n=self.wal.flush_every_n, epoch=self.epoch)
            self.wal.attach()
        self.checkpoint(purge=True)
        return True

    def crash(self) -> None:
        """Die.  Files survive; the handle and the object do not."""
        self.wal.close()
        self.alive = False

    # -- demotion ----------------------------------------------------------------

    def demote(self, successor: "PrimaryNode", *, database: Database,
               channel: "ReplicationChannel | None" = None,
               ) -> "tuple[FollowerNode, DivergenceReport]":
        """Step down under *successor* (a healed zombie): :meth:`account`,
        set diverged files aside as ``*.diverged``, and return a fresh
        :class:`FollowerNode` over *database* with the report."""
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
        report, diverged = self.account(successor)
        for path in diverged:
            os.replace(path, f"{path}.diverged")
            report.quarantined.append(f"{path}.diverged")
            _metric("federation", "segments_diverged")
        _metric("federation", "demotions")
        follower = FollowerNode(
            self.name, self.directory, database,
            timeline=self.timeline, channel=channel, auditor=self.auditor)
        follower.observe_epoch(successor.epoch)
        return follower, report

    def account(self, successor: "PrimaryNode",
                ) -> "tuple[DivergenceReport, list[str]]":
        """Report (:attr:`divergence`, the auditor) and return, with the
        diverged files, the records *successor* lacks and each acked
        statement neither history holds where it was acknowledged."""
        theirs = disk_history(successor.wal_path, "successor")
        mine = disk_history(self.wal_path, "local")
        report = DivergenceReport(self.name, self.epoch, successor.name,
                                  successor.epoch)
        diverged = [path for __, path in list_sealed_segments(self.wal_path)]
        diverged += [self.wal_path] if os.path.exists(self.wal_path) else []
        for generation, (records, sealed) in mine.items():
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
                sql = str(record.get("sql", ""))
                report.statements.append(DivergedStatement(
                    generation, index, sql,
                    self.acked.get((generation, index)) == sql))
            if not diverged_here:          # an unreadable file diverged
                diverged.remove(f"{self.wal_path}.{generation:06d}"
                                if sealed else self.wal_path)
        covered = successor.image_generation
        report.statements += [
            DivergedStatement(generation, index, sql, True)
            for (generation, index), sql in sorted(self.acked.items())
            if (generation >= covered or generation in theirs) and sql not in [
                str(records[index].get("sql")) for records, __ in (
                    mine.get(generation, ([], 0)),
                    theirs.get(generation, ([], 0))) if index < len(records)]]
        self.divergence = report
        if self.auditor is not None:
            self.auditor.record_divergence(report)
        return report, diverged

    def __repr__(self) -> str:
        state = ("demoted" if self.demoted
                 else "up" if self.alive else "down")
        claim = "" if self.epoch is None else f", epoch={self.epoch}"
        return (f"PrimaryNode({self.name!r}, {state}, "
                f"gen={self.wal.generation}{claim})")


class FollowerNode:
    """A read replica fed by WAL shipments.  ``applied`` counts complete
    records replayed per generation, a checkpoint image standing in below
    ``image_generation``; a shipment from an epoch older than ``epoch``
    is **fenced**; ``last_round`` reports the last answered round."""

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
        self.image_generation = 0
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
        """Fence, verify (digest, then every CRC, parsing past the
        verified prefix only), refuse a hole, persist and replay one
        shipment (an image: :meth:`_install`); returns statements
        applied.  A payload from ``start > 0`` must begin where the
        verified prefix ends; a sealed local copy that diverged or was
        found damaged is quarantined before the new one lands."""
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
        if shipment.image:
            return self._install(shipment)
        path = (f"{self.wal_path}.{generation:06d}"
                if shipment.sealed else self.wal_path)
        data = shipment.payload.encode("utf-8", "surrogateescape")
        done = self.applied.get(generation, 0)
        length, lines, prefix, base, held = self._verified.get(
            generation, (0, 0, None, 0, None))
        view = memoryview(data)
        diverged = generation in self._suspect
        if start:
            if held == path and start + len(data) <= length:  # nothing new
                if start == length and prefix.hexdigest() != shipment.digest:
                    self._reject(shipment, "digest mismatch in flight")
                self._refuse_short(shipment, base)
                return 0
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
            self._reject(shipment, f"{exc.kind or 'corrupt'} payload: {exc}",
                         exc)
        total = base + len(records)
        self._refuse_short(shipment, total)
        hole = self._hole(generation, data)
        if hole:
            previous, applied, held = hole
            self._reject(
                shipment,
                f"generation {previous} sealed {held} records but this "
                f"follower applied {applied}; refusing to apply over the "
                f"hole", generation=previous, index=applied, records=held)
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
        applied = 0 if generation < self.image_generation \
            else apply_wal_records(fresh, self.database)  # else imaged
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

    def _refuse_short(self, shipment: Shipment, total: int) -> None:
        """Reject a copy holding fewer records than its sender logged."""
        if shipment.records is not None and total < shipment.records:
            self._reject(shipment, f"its {total} records fall short of "
                         f"the {shipment.records} its sender logged",
                         StorageError("records lost", kind="malformed"))

    def _hole(self, generation: int, data: bytes) -> "tuple | None":
        """``(previous generation, applied, sealed)`` when the header of
        *data*, new here, says the one before sealed more than is held."""
        previous = generation - 1
        if generation in self.applied or previous < self.image_generation:
            return None
        __, __, kind, header, __ = next(classify_wal(data), (0, 0, "", {}, ""))
        held = header.get(PREDECESSOR) if kind == HEADER else None
        applied = self.applied.get(previous, 0)
        return (previous, applied, held) \
            if isinstance(held, int) and applied < held else None

    def _install(self, image: Shipment) -> int:
        """Verify (digest, :func:`read_image`) and take *image*."""
        data = image.payload.encode("utf-8", "surrogateescape")
        if hashlib.sha256(data).hexdigest() != image.digest:
            self._reject(image, "image digest mismatch in flight")
        path = os.path.join(self.directory, _IMAGE_NAME)
        with open(f"{path}.tmp", "wb") as handle:
            handle.write(data)
        try:
            document = read_image(f"{path}.tmp")
        except StorageError as exc:
            os.remove(f"{path}.tmp")
            self._reject(image, f"{exc.kind} image: {exc}", exc)
        os.replace(f"{path}.tmp", path)
        with self.database.suppress_wal():
            for table in self.database.catalog.table_names:
                self.database.execute(f"DROP TABLE {table}")
        restore_image(document, self.database)
        self.image_generation = image.generation
        _metric("federation", "images_installed")
        return 0

    def _reject(self, shipment: Shipment, reason: str,
                cause: "StorageError | None" = None, **where) -> None:
        """Count and raise the refusal; a *cause* marks rot at the
        sender (its copy failed though its digest matched)."""
        self.rejected_shipments += 1
        self.last_rejection = (
            f"generation {shipment.generation}: {reason}")
        _metric("federation", "shipments_rejected")
        raise FederationError(
            f"follower {self.name!r} rejected shipment "
            f"{self.last_rejection}", node=self.name, **where) from cause

    def catch_up(self, primary: PrimaryNode) -> int:
        """One round through the channel (*primary* the one source of
        :meth:`fill`); returns statements applied.  Only a complete
        round resets ``last_catchup``, the staleness bound's origin."""
        before = self.statements_applied
        with _span("replica.catch_up", follower=self.name,
                   primary=primary.name), suppress(ChannelError):
            if self.fill([lambda request: self.channel.ship(primary,
                                                            request)]):
                self.last_catchup = self.timeline.now()
        return self.statements_applied - before

    def fill(self, sources) -> bool:
        """Take each generation from the first source whose copy
        verifies; returns whether the last answer applied whole.
        *sources* map a request (``generation: None`` claims a copy
        rotted at its sender) to an answer; a failing source passes to
        the next, and one that made progress hands back to the first."""
        claims, images, index, report, failure = {}, [], 0, None, None
        while index < len(sources):
            progress = self._state()
            answer = sources[index]({**self._request(), **claims})
            if report is None:
                answered = {shipment.generation for shipment in answer}
                self.last_round = report = RoundReport(self.name, local_only=[
                    generation for generation, __ in list_sealed_segments(
                        self.wal_path) if generation not in answered])
                _metric("federation", "segments_local_only",
                        len(report.local_only))
            images += [shipment for shipment in answer if shipment.image]
            failure, rotted = self._apply(answer, images,
                                          index == len(sources) - 1)
            if set(rotted) - claims.keys():
                claims.update(dict.fromkeys(rotted))
                continue
            report.refused = None if failure is True else failure
            if failure is None and not self._suspect:
                return True
            index = 0 if index and progress != self._state() else index + 1
        return failure is None

    def _apply(self, answer: list[Shipment], images: list[Shipment],
               last: bool) -> tuple:
        """Apply *answer* in order (at the *last* source, images covering
        a gap or hole first, until one takes); return what stopped it
        (``True``: a gap) and the generations rotted at the sender."""
        rotted: list[int] = []
        for shipment in sorted((item for item in answer if not item.image),
                               key=lambda item: item.generation):
            generation = shipment.generation
            unsealed = f"{self.wal_path}.{generation - 1:06d}"  # or purged
            lead = sorted((image for image in images
                           if image.generation >= generation),
                          key=lambda image: image.generation) \
                if last and images and (self._gap(generation) or self._hole(
                    generation, shipment.payload.encode(
                        "utf-8", "surrogateescape")) or (
                    generation - 1 in self.applied
                    and not os.path.exists(unsealed))) else []
            for item in lead + [shipment]:
                if item.image and self.image_generation >= generation:
                    continue                    # an image took already
                if not item.image and self._gap(item.generation):
                    return True, rotted
                try:
                    self.apply_shipment(item)
                except FederationError as error:
                    seal = f"{self.wal_path}.{item.generation:06d}"
                    if isinstance(error.__cause__, StorageError):
                        rotted.append(item.generation)
                        if item.image or os.path.exists(seal) and \
                                item.generation in \
                                self.applied.keys() - self._suspect:
                            continue
                    return error, rotted
        return None, rotted

    def _gap(self, generation: int) -> bool:
        """Whether generations before *generation* are missing here."""
        return generation > max([held + 1 for held in self.applied]
                                + [self.image_generation])

    def verify_ledger(self) -> list[StorageError]:
        """Scrub the local WAL files (CRCs, verified bytes and applied
        records in place); return every defect, its generations suspect."""
        defects: list[StorageError] = []
        files = list_sealed_segments(self.wal_path)
        if os.path.exists(self.wal_path):
            files.append((self._active, self.wal_path))
        for generation, path in files:
            held = {other: entry for other, entry in self._verified.items()
                    if entry[4] == path}
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                records, __ = parse_wal_payload(
                    data, path=path, allow_torn_tail=path == self.wal_path)
                if len(records) < self.applied.get(generation, 0) or any(
                        hashlib.sha256(data[:entry[0]]).digest()
                        != entry[2].digest() for entry in held.values()):
                    raise StorageError(f"{path!r} lost verified bytes "
                                       f"(bit rot)", path=path, kind="bit_rot")
            except StorageError as exc:
                defects.append(exc)
                self._suspect |= held.keys() | ({generation} - {None})
        return defects

    def staleness_bound(self) -> float:
        """Virtual time since the last complete catch-up: how stale a
        read served here can be."""
        return self.timeline.now() - self.last_catchup

    def applied_total(self) -> int:
        return sum(self.applied.values())

    def _state(self) -> tuple:
        return (self.applied_total(), len(self._suspect),
                self.image_generation)

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
        #: Candidates refused at the last promotion.
        self.refused: list[str] = []
        #: generation → ``(records, epoch)``: the most records any
        #: follower ledger held when seen (at ``sync`` and promotions),
        #: with that follower's epoch — what a candidate must reach.
        self.replicated: dict[int, tuple[int, "int | None"]] = {}

    def _learn(self, followers: Sequence[FollowerNode]) -> None:
        """Raise the replicated high-water to *followers*' ledgers."""
        for follower in followers:
            for generation, records in follower.applied.items():
                if records > self.replicated.get(generation, (0, None))[0]:
                    self.replicated[generation] = (records, follower.epoch)

    def sync(self) -> int:
        """Every follower catches up; returns total statements applied.
        A live primary then verifies each generation it counted that no
        follower holds, since no follower's claim will name its rot."""
        applied = sum(follower.catch_up(self.primary)
                      for follower in self.followers)
        self._learn(self.followers)
        unheld = set(self.primary._record_counts).difference(*(
            follower.applied.keys() - follower._suspect
            for follower in self.followers))
        if unheld and self.primary.alive:
            self.primary.verify(unheld)
        return applied

    def fail_primary(self) -> None:
        self.primary.crash()

    def promote(self) -> PrimaryNode:
        """Fail over: candidates by ledger total are scrubbed and filled
        from the dead primary's directory (a zombie's is unread) and the
        other followers'; the first holding every ``replicated`` write is
        crowned under a bumped epoch, and a dead primary accounts for
        what it lacks.  Else nobody is; the error names the first
        replicated write no candidate holds.  Overrunning
        ``promotion_window`` completes the swap, then raises."""
        dead = self.primary
        zombie = dead.alive
        if zombie and (self.membership is None
                       or not self.membership.lease_expired()):
            raise FederationError(
                f"primary {dead.name!r} is still up"
                + ("" if self.membership is None
                   else " and its lease is still live"))
        if not self.followers:
            raise FederationError("no follower to promote")
        started = self.followers[0].timeline.now()
        with _span("replica.promote", dead=dead.name):
            candidate, behind, self.refused = None, None, []
            self._learn(self.followers)
            for contender in sorted(self.followers,
                                    key=lambda node: -node.applied_total()):
                contender.verify_ledger()
                contender.fill([
                    lambda request, node=node: disk_shipments(
                        node.wal_path, request) + image_shipments(node)
                    for node in ([] if zombie else [dead]) + [
                        peer for peer in self.followers
                        if peer is not contender]])
                short = self._short([contender])
                if short is None:
                    candidate = contender
                    break
                behind = behind or short
                self.refused.append(
                    f"{contender.name}: does not hold the replicated "
                    f"write at epoch {short['epoch']} gen "
                    f"{short['generation']} index {short['index']}")
                _metric("federation", "promotions_refused")
            if candidate is None:
                raise FederationError(
                    "no follower holds every replicated write; refused: "
                    + "; ".join(self.refused),
                    **self._short(self.followers) or behind)
            self._learn([candidate])
            candidate.last_catchup = candidate.timeline.now()
            if self.membership is not None:
                self.membership.elect(candidate.name)
            promoted = PrimaryNode(
                candidate.name, candidate.directory, candidate.database,
                timeline=candidate.timeline, membership=self.membership,
                channel=candidate.channel, auditor=candidate.auditor)
            promoted.image_generation = candidate.image_generation
            for follower in self.followers:
                if follower is not candidate:
                    follower.observe_epoch(promoted.epoch)
            if not zombie:
                dead.account(promoted)
            elapsed = candidate.timeline.now() - started
        self.last_promotion = elapsed
        self.followers = [follower for follower in self.followers
                          if follower is not candidate]
        self.primary = promoted
        _metric("federation", "promotions")
        _gauge("federation", "promotion_elapsed", elapsed)
        if elapsed > self.promotion_window:
            raise FederationError(
                f"promotion took {elapsed:.2f} virtual seconds, over the "
                f"{self.promotion_window:.2f}s window")
        return promoted

    def _short(self, candidates: Sequence[FollowerNode]) -> "dict | None":
        """The first replicated write none of *candidates* holds verified
        (a suspect generation holds none; an image covers all below
        it), as :class:`FederationError` fields, or ``None``."""
        for generation, (records, epoch) in sorted(self.replicated.items()):
            held = {node.name: 0 if generation in node._suspect
                    else node.applied.get(generation, 0)
                    for node in candidates
                    if generation >= node.image_generation}
            if len(held) == len(candidates) and max(held.values()) < records:
                node = max(held, key=held.get)
                return dict(node=node, epoch=epoch, generation=generation,
                            index=held[node])
        return None

    def __repr__(self) -> str:
        return (f"ReplicationGroup(primary={self.primary.name!r}, "
                f"{len(self.followers)} followers)")

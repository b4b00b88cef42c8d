"""One seeded schedule driver for a leased replication group.

:func:`build` stands up primary ``alpha``, followers ``bravo`` and
``charlie``, a membership service, one seeded faulty channel per node
and one write-history auditor, all on one virtual clock.  :func:`run`
builds it in a temporary directory, applies a schedule, heals the group
and returns a :class:`Run`.  The steps:

- ``("write",)`` — the primary executes the next numbered insert;
- ``("catch_up", node)`` — one round for *node*, if it is a follower
  (what refused the round is the step's error);
- ``("sync",)`` — every follower, and the group learns their ledgers;
- ``("advance", dt)`` — *dt* virtual seconds pass;
- ``("partition", dt, node)`` — for *dt* seconds *node*'s channel
  (``"all"``: every channel) loses all traffic;
- ``("rotate",)``; ``("checkpoint",)`` — also an image, never a purge;
- ``("purge",)`` — a checkpoint that deletes the segments its image
  covers, as :func:`~repro.db.storage.checkpoint` does;
- ``("crash", k)`` — the primary dies appending an unacknowledged
  statement, of which the first *k* bytes reach its disk;
- ``("reopen",)`` — the primary restarts from its own directory: its
  WAL closes, :func:`~repro.db.recovery.recover` rebuilds its database
  and a new :class:`~repro.federation.PrimaryNode` runs there (not a
  promotion).  Unless a step damaged its WAL, the recovered database
  must equal what the node held when its term as primary began (an
  empty table for ``alpha``) plus the writes it acknowledged since and
  any crashed statement whose record landed whole; no WAL file may
  gain a record and scrub ≡ replay on every file; a refusal is the
  step's error, and scrub must point where recovery stopped;
- ``("failover",)`` — promote: the primary is dead or its lease lapsed;
- ``("flip", node, target, offset, mask)`` — XOR *mask* into byte
  *offset* (mod their size) of *node*'s ``"wal"`` files end to end,
  sealed then active, or of its ``"image"``; a ``"shipment"`` flip is
  one round for follower *node* that reads the primary's files so
  flipped but keeps each file's true digest (damage in flight);
- ``("cut", node, "wal" | "image", offset)`` — truncate there;
- ``("scrub", node)`` — the follower's ``verify_ledger()``.

A step may raise only a :class:`~repro.errors.ReproError`, which the
step log records; anything else propagates.  A scrub records its first
defect, a flip or cut the error replay meets in the damaged file.  The
heal closes every window and stops drops; each follower runs one round
against each zombie (where fencing shows) and the zombie demotes; every
follower is scrubbed; a dead primary is replaced; rounds run until one
applies nothing; an error stops the heal and is recorded.  The verdict
is the auditor's ``certify``, every follower's database equal to the
primary's, and no ``disagreements``.  :mod:`repro.sim.matrix` names the
schedules of the crash and scrub matrices.  A failing schedule replays as
``run(schedule, ...)``.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.db.scrub import scrub_image, scrub_wal_file
from repro.db.storage import (
    OK,
    classify_wal,
    build_image,
    list_sealed_segments,
    read_image,
    read_wal_records,
    restore_image,
)
from repro.errors import ReproError, StorageError
from repro.federation import (
    AuditReport,
    FaultyChannel,
    FollowerNode,
    MembershipService,
    PrimaryNode,
    ReplicationGroup,
    WriteHistoryAuditor,
)
from repro.federation.replication import disk_history, disk_shipments
from repro.sim.clock import VirtualClock

NODES = ("alpha", "bravo", "charlie")


@dataclass
class Run:
    """``steps`` pairs each step with ``"ok"`` or the error it raised;
    ``promotions`` holds ``(node, epoch, virtual seconds)``, ``fences``
    ``(follower, zombie, zombie epoch, shipments fenced)``,
    ``divergences`` the :class:`~repro.federation.DivergenceReport` of
    each primary promoted over (dead or demoted); ``damaged`` names the
    nodes whose WAL a step damaged; ``disagreements`` are the checks
    the truth contradicts (scrub ≢ replay on a file, a defect on a
    follower no step damaged, a reopen that lost or grew what it must
    hold); ``reopens`` holds each reopen's
    :class:`~repro.db.recovery.RecoveryReport`, ``unacknowledged``
    ``(node, statement)`` for each statement a crash left whole on
    disk; ``heal_error`` stopped the heal and, when it crowned nobody,
    ``disks`` maps each node to the
    :func:`~repro.federation.replication.disk_history` of its
    directory; ``group`` is the healed group."""

    steps: list = field(default_factory=list)
    promotions: list = field(default_factory=list)
    fences: list = field(default_factory=list)
    divergences: list = field(default_factory=list)
    damaged: set = field(default_factory=set)
    disagreements: list = field(default_factory=list)
    reopens: list = field(default_factory=list)
    unacknowledged: list = field(default_factory=list)
    disks: dict = field(default_factory=dict)
    heal_error: "ReproError | None" = None
    verdict: "AuditReport | None" = None
    group: "ReplicationGroup | None" = None


def _database() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def build(root: str, *, seed: int = 0, drop_rate: float = 0.0,
          lease_timeout: float = 2.0) -> tuple:
    """``(group, membership, auditor, timeline, channels)`` with node
    directories under *root*; *channels* maps node name → channel."""
    timeline = VirtualClock()
    membership = MembershipService(timeline, lease_timeout=lease_timeout)
    auditor = WriteHistoryAuditor()
    channels = {name: FaultyChannel(timeline, name=f"{name}-net", seed=seed,
                                    drop_rate=drop_rate)
                for name in NODES}
    primary = PrimaryNode("alpha", os.path.join(root, "alpha"), _database(),
                          timeline=timeline, membership=membership,
                          channel=channels["alpha"], auditor=auditor)
    followers = [FollowerNode(name, os.path.join(root, name), _database(),
                              timeline=timeline, channel=channels[name],
                              auditor=auditor)
                 for name in NODES[1:]]
    group = ReplicationGroup(primary, followers, membership=membership)
    return group, membership, auditor, timeline, channels


def _files(directory: str, target: str) -> list:
    """The image in *directory*, or its WAL files, sealed then active."""
    wal = os.path.join(directory, "wal.jsonl")
    return [path for path in (
        [os.path.join(directory, "image.json")] if target == "image"
        else [path for __, path in list_sealed_segments(wal)] + [wal])
        if os.path.exists(path)]


def _damage(directory: str, target: str, offset: int,
            mask: "int | None") -> "str | None":
    """XOR *mask* into byte *offset* (mod their size) of the image in
    *directory*, or of its WAL files end to end, sealed then active, or
    cut there (*mask* ``None``); returns the file damaged."""
    paths = _files(directory, target)
    sizes = [os.path.getsize(path) for path in paths]
    offset %= sum(sizes) or 1
    for path, size in zip(paths, sizes):
        if offset < size:
            with open(path, "rb+") as handle:
                handle.seek(offset)
                if mask is None:
                    handle.truncate()
                else:
                    byte = handle.read(1)[0] ^ mask
                    handle.seek(offset)
                    handle.write(bytes([byte]))
            return path
        offset -= size
    return None


def _judge(path: str, disagreements: list) -> None:
    """Hold scrub ≡ replay on *path* (scrub's first bad line is where
    replay stops), and raise the error replay meets there."""
    image, active = path.endswith(".json"), path.endswith(".jsonl")
    verdict = scrub_image(path) if image \
        else scrub_wal_file(path, active=active)
    try:
        read_image(path) if image \
            else read_wal_records(path, allow_torn_tail=active)
    except StorageError as refusal:
        stopped = [(refusal.record_index, refusal.offset)]
        if not verdict.damaged or verdict.bad_offsets[:1] not in ([],
                                                                  stopped):
            disagreements.append(f"scrub ≢ replay: {refusal}")
        raise
    if verdict.damaged:
        disagreements.append(f"scrub ≢ replay: replay reads {path}")


def _records(directory: str) -> dict:
    """WAL file → how many statement records it holds."""
    counts = {}
    for path in _files(directory, "wal"):
        with open(path, "rb") as handle:
            counts[path] = sum(kind == OK for __, __, kind, __, __
                               in classify_wal(handle.read()))
    return counts


def _reopen(group, auditor: WriteHistoryAuditor, term: tuple,
            record: Run) -> None:
    """Restart the primary from its directory and check what it holds;
    *term* is ``(image, acknowledgments, crashes)`` as its term began."""
    old = group.primary
    old.crash()
    directory = old.directory
    image = os.path.join(directory, "image.json")
    before = _records(directory)
    try:
        database, report = recover(image, old.wal_path, Database()
                                   if os.path.exists(image) else _database())
    finally:
        for path in _files(directory, "image") + _files(directory, "wal"):
            with suppress(StorageError):
                _judge(path, record.disagreements)
    group.primary = PrimaryNode(
        old.name, directory, database, timeline=old.timeline,
        membership=old.membership, channel=old.channel, auditor=auditor)
    group.primary.image_generation = report.image_generation
    record.reopens.append(report)
    image, acks, crashes = term
    reference = restore_image(image, Database()) if image else _database()
    for sql in [ack.sql for ack in auditor.acks[acks:]
                if ack.node == old.name] + [
            sql for node, sql in record.unacknowledged[crashes:]
            if node == old.name]:
        reference.execute(sql)
    if old.name not in record.damaged \
            and not databases_equal(database, reference):
        record.disagreements.append(
            f"reopened {old.name!r} does not hold exactly its "
            f"acknowledged writes ({report.summary()})")
    grown = [os.path.basename(path) for path, count
             in _records(directory).items() if count > before.get(path, 0)]
    if grown:
        record.disagreements.append(f"reopen grew the log: {grown}")


def _in_flight(primary: PrimaryNode, offset: int, mask: int):
    """*primary* as one round sees it: its WAL files read with a byte
    flipped, each shipment keeping its file's true digest."""

    def ship(request=None):
        clean = primary.ship(request)
        _damage(primary.directory, "wal", offset, mask)
        try:
            damaged = disk_shipments(primary.wal_path, request,
                                     epoch=primary.epoch)
        finally:
            _damage(primary.directory, "wal", offset, mask)
        return [replace(shipment, digest=original.digest,
                        records=original.records)
                for shipment, original in zip(damaged, clean)] \
            + clean[len(damaged):]

    return SimpleNamespace(name=primary.name, ship=ship)


def _step(step: tuple, sql: str, group, timeline, channels, auditor,
          terms: dict, record: Run) -> None:
    action, primary = step[0], group.primary
    named = [follower for follower in group.followers
             if follower.name in step[1:2]]
    if action == "write":
        primary.execute(sql)
    elif action == "catch_up":
        for follower in named:
            before = follower.last_round
            follower.catch_up(primary)
            if follower.last_round is not before \
                    and follower.last_round.refused is not None:
                raise follower.last_round.refused
    elif action == "sync":
        group.sync()
    elif action == "advance":
        timeline.advance(step[1])
    elif action == "partition":
        for name, channel in channels.items():
            if step[2] in (name, "all"):
                channel.partition(timeline.now(), timeline.now() + step[1])
    elif action == "rotate":
        primary.rotate()
    elif action in ("checkpoint", "purge"):
        primary.checkpoint(purge=action == "purge")
    elif action == "crash":
        primary._require_alive()
        primary.database.execute(sql)
        primary.crash()
        with open(primary.wal_path, "rb+") as handle:
            data = handle.read()
            start = data.rfind(b"\n", 0, len(data) - 1) + 1
            handle.truncate(min(len(data), start + step[1]))
        if start + step[1] >= len(data) - 1:   # the record landed whole
            record.unacknowledged.append((primary.name, sql))
    elif action == "reopen":
        _reopen(group, auditor, terms[primary.name], record)
    elif action == "failover":
        group.promote()
    elif action == "scrub":
        for follower in named:
            defects = follower.verify_ledger()
            if defects:
                raise defects[0]
    elif action == "flip" and step[2] == "shipment":
        for follower in named:
            follower.catch_up(_in_flight(primary, *step[3:]))
    elif action in ("flip", "cut"):
        path = _damage(os.path.join(os.path.dirname(primary.directory),
                                    step[1]), step[2], step[3],
                       step[4] if action == "flip" else None)
        if path is not None:
            if step[2] == "wal":
                record.damaged.add(step[1])
            _judge(path, record.disagreements)
    else:
        raise ValueError(f"unknown schedule action {step!r}")


def run(schedule, *, seed: int = 0, drop_rate: float = 0.0,
        lease_timeout: float = 2.0) -> Run:
    """Build the group, apply *schedule*, heal, and return the record."""
    record, zombies, writes = Run(), [], 0
    terms = {"alpha": (None, 0, 0)}
    with tempfile.TemporaryDirectory() as root:
        group, __, auditor, timeline, channels = build(
            root, seed=seed, drop_rate=drop_rate,
            lease_timeout=lease_timeout)

        def promoted_over(primary: PrimaryNode) -> None:
            if group.primary.name != primary.name:
                record.promotions.append((group.primary.name,
                                          group.primary.epoch,
                                          group.last_promotion))
                terms[group.primary.name] = (
                    build_image(group.primary.database), len(auditor.acks),
                    len(record.unacknowledged))
                if primary.alive:
                    zombies.append(primary)
                elif primary.divergence is not None:
                    record.divergences.append(primary.divergence)

        for step in schedule:
            primary = group.primary
            writes += step[0] in ("write", "crash")
            try:
                _step(step, f"INSERT INTO t VALUES ({writes}, 'v{writes}')",
                      group, timeline, channels, auditor, terms, record)
                record.steps.append((step, "ok"))
            except ReproError as error:
                record.steps.append((step, error))
            promoted_over(primary)
        for channel in channels.values():
            channel.drop_rate = 0.0
            for window in channel.faults.windows:
                timeline.advance(max(0.0, window.end - timeline.now()))
        timeline.advance(lease_timeout)
        dead = group.primary
        try:
            for zombie in zombies:
                for follower in group.followers:
                    fenced = follower.shipments_fenced
                    follower.catch_up(zombie)
                    if follower.shipments_fenced > fenced:
                        record.fences.append(
                            (follower.name, zombie.name, zombie.epoch,
                             follower.shipments_fenced - fenced))
                rejoined, report = zombie.demote(
                    group.primary, database=_database(),
                    channel=channels[zombie.name])
                record.divergences.append(report)
                group.followers.append(rejoined)
            for follower in group.followers:
                defects = follower.verify_ledger()
                if defects and follower.name not in record.damaged:
                    record.disagreements.append(
                        f"false positive: the scrub of {follower.name!r} "
                        f"found {defects[0]} though no step damaged it")
            if not dead.alive and group.followers:
                group.promote()
            while group.sync():
                pass
        except ReproError as error:
            record.heal_error = error
        promoted_over(dead)
        record.group = group
        if not group.primary.alive:
            record.disks = {node.name: disk_history(node.wal_path, node.name)
                            for node in [group.primary, *group.followers]}
        record.verdict = auditor.certify(group.primary, group.followers)
        record.verdict.violations += record.disagreements + [
            f"survivor {follower.name!r} database differs from primary "
            f"{group.primary.name!r}" for follower in group.followers
            if not databases_equal(follower.database,
                                   group.primary.database)]
        record.verdict.ok = not record.verdict.violations
    return record

"""One seeded schedule driver for a leased replication group.

:func:`build` stands up primary ``alpha``, followers ``bravo`` and
``charlie``, a membership service, one seeded faulty channel per node
and one write-history auditor, all on one virtual clock.  :func:`run`
builds it in a temporary directory, applies a schedule, heals the group
and returns a :class:`Run`.  The steps:

- ``("write",)`` — the primary executes the next numbered insert;
- ``("catch_up", node)`` — one round for *node*, if it is a follower;
- ``("sync",)`` — every follower, and the group learns their ledgers;
- ``("advance", dt)`` — *dt* virtual seconds pass;
- ``("partition", dt, node)`` — for *dt* seconds *node*'s channel
  (``"all"``: every channel) loses all traffic;
- ``("rotate",)``; ``("checkpoint",)`` — also an image, never a purge;
- ``("crash", k)`` — the primary dies appending an unacknowledged
  statement, of which the first *k* bytes reach its disk;
- ``("failover",)`` — promote: the primary is dead or its lease lapsed.

A step may raise only a :class:`~repro.errors.ReproError`, which the
step log records; anything else propagates.  The heal closes every
window and stops drops; each follower runs one round against each
zombie (where fencing shows) and the zombie demotes; a dead primary is
replaced; rounds run until one applies nothing.  The verdict is the
auditor's ``certify`` plus every follower's database equal to the
primary's.  A failing schedule replays as ``run(schedule, ...)``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.db import Database
from repro.db.recovery import databases_equal
from repro.errors import ReproError
from repro.federation import (
    AuditReport,
    FaultyChannel,
    FollowerNode,
    MembershipService,
    PrimaryNode,
    ReplicationGroup,
    WriteHistoryAuditor,
)
from repro.sim.clock import VirtualClock

NODES = ("alpha", "bravo", "charlie")


@dataclass
class Run:
    """``steps`` pairs each step with ``"ok"`` or the error it raised;
    ``promotions`` holds ``(node, epoch, virtual seconds)``, ``fences``
    ``(follower, zombie, zombie epoch, shipments fenced)``; ``group`` is
    the healed group."""

    steps: list = field(default_factory=list)
    promotions: list = field(default_factory=list)
    fences: list = field(default_factory=list)
    divergences: list = field(default_factory=list)
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


def _step(step: tuple, sql: str, group, timeline, channels) -> None:
    action, primary = step[0], group.primary
    if action == "write":
        primary.execute(sql)
    elif action == "catch_up":
        for follower in group.followers:
            if follower.name == step[1]:
                follower.catch_up(primary)
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
    elif action == "checkpoint":
        primary.checkpoint(os.path.join(primary.directory, "image.json"))
    elif action == "crash":
        primary._require_alive()
        primary.database.execute(sql)
        primary.crash()
        with open(primary.wal_path, "rb+") as handle:
            data = handle.read()
            start = data.rfind(b"\n", 0, len(data) - 1) + 1
            handle.truncate(min(len(data), start + step[1]))
    elif action == "failover":
        group.promote()
    else:
        raise ValueError(f"unknown schedule action {step!r}")


def run(schedule, *, seed: int = 0, drop_rate: float = 0.0,
        lease_timeout: float = 2.0) -> Run:
    """Build the group, apply *schedule*, heal, and return the record."""
    record, zombies, writes = Run(), [], 0
    with tempfile.TemporaryDirectory() as root:
        group, __, auditor, timeline, channels = build(
            root, seed=seed, drop_rate=drop_rate,
            lease_timeout=lease_timeout)

        def promoted_over(primary: PrimaryNode) -> None:
            if group.primary is not primary:
                record.promotions.append((group.primary.name,
                                          group.primary.epoch,
                                          group.last_promotion))
                if primary.alive:
                    zombies.append(primary)

        for step in schedule:
            primary = group.primary
            writes += step[0] in ("write", "crash")
            try:
                _step(step, f"INSERT INTO t VALUES ({writes}, 'v{writes}')",
                      group, timeline, channels)
                record.steps.append((step, "ok"))
            except ReproError as error:
                record.steps.append((step, error))
            promoted_over(primary)
        for channel in channels.values():
            channel.drop_rate = 0.0
            for window in channel.faults.windows:
                timeline.advance(max(0.0, window.end - timeline.now()))
        timeline.advance(lease_timeout)
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
        dead = group.primary
        if not dead.alive and group.followers:
            group.promote()
        promoted_over(dead)
        while group.sync():
            pass
        record.group = group
        record.verdict = auditor.certify(group.primary, group.followers)
        record.verdict.violations += [
            f"survivor {follower.name!r} database differs from primary "
            f"{group.primary.name!r}" for follower in group.followers
            if not databases_equal(follower.database,
                                   group.primary.database)]
        record.verdict.ok = not record.verdict.violations
    return record

"""A write-history auditor: the external judge of replication safety.

The epoch/lease machinery in :mod:`repro.federation.replication` makes
*claims* — at most one primary acknowledges per epoch, an acknowledged
and replicated write is never lost, survivors converge byte-identically.
This module checks those claims from the **outside**: nodes report
every acknowledgment, every applied record, and every divergence to a
:class:`WriteHistoryAuditor` as they happen, and :meth:`~
WriteHistoryAuditor.certify` replays the ledger against the cluster's
final on-disk state after a partition/failover/heal schedule has run.

The auditor deliberately trusts nothing the nodes conclude about
themselves: "no acknowledged-and-replicated write lost" is decided by
re-reading the surviving primary's WAL from disk and comparing the SQL
text at each acknowledged position, and "byte-identical convergence"
by re-digesting every survivor's segment files.  An acknowledged write
that was **never replicated** (a zombie's partition-window suffix) is
an *allowed* loss — the protocol's documented failure mode — but it is
reported, never silently absorbed: the :class:`DivergenceReport` the
zombie emitted on demotion must name it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.federation.replication import (
    DivergenceReport,
    disk_history,
    file_digest,
    sealed_digests,
)


def _active_digest(wal_path: str) -> "str | None":
    """A 0-byte active file is absent, as :func:`disk_shipments` has it."""
    return file_digest(wal_path) if os.path.exists(wal_path) \
        and os.path.getsize(wal_path) else None


@dataclass(frozen=True)
class Acknowledgment:
    """One promise made to a client: *node*, holding *epoch*, told the
    caller that record *index* of *generation* (text *sql*) committed."""

    node: str
    epoch: "int | None"
    generation: int
    index: int
    sql: str

    def position(self) -> tuple[int, int]:
        return (self.generation, self.index)


@dataclass
class AuditReport:
    """The verdict of one :meth:`WriteHistoryAuditor.certify` pass.

    ``ok`` means every invariant held; ``violations`` names each breach
    in plain language.  ``lost_unreplicated`` lists acknowledgments
    that are absent from the surviving history but were never applied
    by any follower — the allowed (and still reportable) zombie loss;
    ``unreported_losses`` is the subset no :class:`DivergenceReport`
    owned up to, which is itself a violation."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    acknowledgments: int = 0
    applies: int = 0
    epochs_with_acks: dict = field(default_factory=dict)
    lost_unreplicated: list[Acknowledgment] = field(default_factory=list)
    unreported_losses: list[Acknowledgment] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "CERTIFIED" if self.ok else "VIOLATED"
        return (f"{verdict}: {self.acknowledgments} ack(s) across "
                f"epochs {sorted(self.epochs_with_acks)}, "
                f"{len(self.lost_unreplicated)} unreplicated ack(s) "
                f"lost (reported), {len(self.violations)} violation(s)")


class WriteHistoryAuditor:
    """Records what the cluster *promised* and checks it kept its word.

    Wire one instance into every node (``auditor=`` on
    :class:`~repro.federation.replication.PrimaryNode` and
    :class:`~repro.federation.replication.FollowerNode`); the nodes
    call :meth:`record_ack` / :meth:`record_apply` /
    :meth:`record_divergence` as events happen, and the test or chaos
    scenario calls :meth:`certify` at the end."""

    def __init__(self) -> None:
        self.acks: list[Acknowledgment] = []
        #: ``(follower, epoch, generation, index)`` per record applied.
        #: The epoch keeps "replicated" honest: a successor's different
        #: write landing at the same position must not count as having
        #: replicated the deposed leader's acknowledged one.
        self.applies: set[tuple] = set()
        self.divergences: list[DivergenceReport] = []

    # -- event intake ------------------------------------------------------------

    def record_ack(self, node: str, epoch: "int | None", generation: int,
                   index: int, sql: str) -> None:
        self.acks.append(
            Acknowledgment(node, epoch, generation, index, sql))

    def record_apply(self, follower: str, epoch: "int | None",
                     generation: int, index: int) -> None:
        self.applies.add((follower, epoch, generation, index))

    def record_divergence(self, report: DivergenceReport) -> None:
        self.divergences.append(report)

    # -- verdict -----------------------------------------------------------------

    def certify(self, primary, followers=()) -> AuditReport:
        """Judge the final state against the acknowledgment ledger.

        Invariants checked:

        1. **one writer per epoch** — no two nodes ever acknowledged a
           write under the same epoch;
        2. **no acknowledged-and-replicated write lost** — every ack
           that at least one follower applied must still sit at its
           position, with the same SQL text, in the surviving
           primary's on-disk history, or in a purged generation its
           image covers (``primary.image_generation``);
        3. **honest loss accounting** — an acknowledged write that *is*
           gone (necessarily unreplicated, by invariant 2) must be
           named by some recorded :class:`DivergenceReport`;
        4. **byte-identical convergence** — every follower in
           *followers* holds exactly the primary's segment bytes (a
           sealed generation the primary purged is not compared).
        """
        report = AuditReport(ok=True, acknowledgments=len(self.acks),
                             applies=len(self.applies))
        for ack in self.acks:
            report.epochs_with_acks.setdefault(ack.epoch, set()).add(
                ack.node)
        for epoch, nodes in sorted(report.epochs_with_acks.items(),
                                   key=lambda item: (item[0] is None,
                                                     item[0])):
            if len(nodes) > 1:
                report.violations.append(
                    f"epoch {epoch}: {len(nodes)} nodes acknowledged "
                    f"writes ({sorted(nodes)}) — split brain")
        history = disk_history(primary.wal_path, "audit")
        replicated = {(epoch, generation, index)
                      for __, epoch, generation, index in self.applies}
        reported = {(entry.generation, entry.index)
                    for divergence in self.divergences
                    for entry in divergence.statements
                    if entry.acknowledged}
        covered = primary.image_generation
        for ack in self.acks:
            records = history.get(ack.generation, ([], True))[0]
            survives = (ack.index < len(records)
                        and str(records[ack.index].get("sql", ""))
                        == ack.sql) or (ack.generation < covered
                                        and ack.generation not in history)
            if survives:
                continue
            if (ack.epoch, ack.generation, ack.index) in replicated:
                report.violations.append(
                    f"acknowledged AND replicated write lost: "
                    f"{ack.node} epoch {ack.epoch} gen "
                    f"{ack.generation} index {ack.index} "
                    f"({ack.sql[:60]!r})")
                continue
            report.lost_unreplicated.append(ack)
            if ack.position() not in reported:
                report.unreported_losses.append(ack)
                report.violations.append(
                    f"acknowledged write lost and never reported by a "
                    f"DivergenceReport: {ack.node} epoch {ack.epoch} "
                    f"gen {ack.generation} index {ack.index}")
        primary_sealed = sealed_digests(primary.wal_path)
        primary_active = _active_digest(primary.wal_path)
        for follower in followers:
            if {generation: digest for generation, digest
                    in sealed_digests(follower.wal_path).items()
                    if generation >= covered
                    or generation in primary_sealed} != primary_sealed:
                report.violations.append(
                    f"survivor {follower.name!r} sealed segments differ "
                    f"from primary {primary.name!r}")
            if _active_digest(follower.wal_path) != primary_active:
                report.violations.append(
                    f"survivor {follower.name!r} active segment differs "
                    f"from primary {primary.name!r}")
        report.ok = not report.violations
        return report

    def __repr__(self) -> str:
        return (f"WriteHistoryAuditor({len(self.acks)} acks, "
                f"{len(self.applies)} applies, "
                f"{len(self.divergences)} divergences)")

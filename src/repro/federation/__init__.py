"""Sharded scatter-gather federation with WAL-shipped read replicas.

The package splits into layers, bottom up:

- :mod:`repro.federation.sharding` — the routing table
  (:class:`ShardMap`) and one shard's filtered view of a repository
  (:class:`ShardSlice`);
- :mod:`repro.federation.serving` — :class:`ShardedFederationServer`,
  the one scatter-gather: requests routed to per-shard
  admission-controlled servers and fused bit-identically to the
  unsharded answer (:func:`fuse_rows` / :func:`fuse_batches` /
  :func:`merge_health`), plus the calibrated
  :func:`sharded_federation` fixture;
- :mod:`repro.federation.membership` — epochs and write leases
  (:class:`MembershipService` / :class:`Lease`) on the shared virtual
  clock, the authority that decides who may acknowledge writes;
- :mod:`repro.federation.channel` — the injectable network seam
  (:class:`ReplicationChannel`) and its seeded hostile twin
  (:class:`FaultyChannel`): drops, delay, duplication, reordering, and
  one-way partitions;
- :mod:`repro.federation.replication` — WAL shipping
  (:class:`PrimaryNode` / :class:`FollowerNode`) in one exchange: a
  follower is shipped only what it has not verified, digest-checked,
  with divergence repaired in the same round (:class:`RoundReport`),
  epoch-fenced apply, zombie demotion
  with honest divergence (:class:`DivergenceReport`), and
  deterministic failover (:class:`ReplicationGroup`);
- :mod:`repro.federation.audit` — the outside judge
  (:class:`WriteHistoryAuditor`): no acknowledged-and-replicated write
  lost, one writer per epoch, byte-identical survivors.
"""

from repro.federation.audit import (
    Acknowledgment,
    AuditReport,
    WriteHistoryAuditor,
)
from repro.federation.channel import (
    ChannelStats,
    FaultyChannel,
    ReplicationChannel,
)
from repro.federation.membership import Lease, MembershipService
from repro.federation.replication import (
    DivergedStatement,
    DivergenceReport,
    FollowerNode,
    PrimaryNode,
    ReplicationGroup,
    RoundReport,
    Shipment,
    disk_shipments,
    payload_digest,
    sealed_digests,
)
from repro.federation.serving import (
    ShardedFederationServer,
    fuse_batches,
    fuse_rows,
    merge_health,
    sharded_federation,
)
from repro.federation.sharding import ShardMap, ShardSlice

__all__ = [
    "Acknowledgment",
    "AuditReport",
    "ChannelStats",
    "DivergedStatement",
    "DivergenceReport",
    "FaultyChannel",
    "FollowerNode",
    "Lease",
    "MembershipService",
    "PrimaryNode",
    "ReplicationChannel",
    "ReplicationGroup",
    "RoundReport",
    "ShardMap",
    "ShardSlice",
    "ShardedFederationServer",
    "Shipment",
    "WriteHistoryAuditor",
    "disk_shipments",
    "fuse_batches",
    "fuse_rows",
    "merge_health",
    "payload_digest",
    "sealed_digests",
    "sharded_federation",
]

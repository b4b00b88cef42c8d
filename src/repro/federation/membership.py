"""Epochs and write leases for split-brain-safe replication.

A replication group is only allowed one writer at a time, but "at a
time" is meaningless without a clock both sides share — so the
:class:`MembershipService` lives on the same
:class:`~repro.sim.clock.VirtualClock` as the nodes it governs and
hands out two things:

- **epochs**: a monotonically-increasing integer bumped on every
  election.  An epoch names one leadership term; every shipment a
  primary sends and every ``$wal`` header it writes carries its epoch,
  so followers can *fence* traffic from a deposed leader instead of
  trusting liveness flags.
- **leases**: a :class:`Lease` is the right to *acknowledge* writes
  until ``expires_at`` on the virtual timeline.  A primary whose lease
  expired must renew before acking; if renewal fails (a partition, or a
  newer epoch was issued behind its back) the write is **refused with a
  structured error** — never silently accepted, because a silently
  accepted write on a zombie is exactly the lost update split-brain
  manufactures.

The safety argument is the classic lease one: the service refuses to
elect a new holder while the old lease is live (``lease_live``
refusal), so by the time epoch *N+1* exists, the epoch-*N* holder has
either renewed (and is still the only writer) or stopped acking (its
lease ran out).  Two primaries may be *alive* during a partition, but
at most one may acknowledge per epoch — the invariant the write-history
auditor (:mod:`repro.federation.audit`) checks end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LeaseError, SettingError
from repro.obs.metrics import count as _metric


@dataclass(frozen=True)
class Lease:
    """The right to acknowledge writes: an epoch, its holder, and the
    virtual instant the right expires."""

    epoch: int
    holder: str
    expires_at: float

    def live(self, now: float) -> bool:
        return now < self.expires_at

    def __repr__(self) -> str:
        return (f"Lease(epoch={self.epoch}, holder={self.holder!r}, "
                f"expires_at={self.expires_at:.2f})")


class MembershipService:
    """Issues epochs and leases on a shared virtual clock.

    One instance per replication group.  ``epoch`` only ever grows;
    ``lease`` is the most recently issued lease (which may have
    expired).  ``epoch_log`` records every election as
    ``(epoch, holder, issued_at)`` — the audit trail the history
    checker correlates acknowledgments against.
    """

    def __init__(self, timeline, *, lease_timeout: float = 2.0) -> None:
        if lease_timeout <= 0:
            raise SettingError(
                f"lease_timeout must be positive, got {lease_timeout!r}",
                what="lease_timeout", where="MembershipService",
                value=lease_timeout)
        self.timeline = timeline
        self.lease_timeout = lease_timeout
        self.epoch = 0
        self.lease: Lease | None = None
        self.epoch_log: list[tuple[int, str, float]] = []

    # -- queries ---------------------------------------------------------------

    def lease_live(self) -> bool:
        """Is the current lease still within its window?"""
        return (self.lease is not None
                and self.lease.live(self.timeline.now()))

    def lease_expired(self) -> bool:
        """Has the current holder's right to ack lapsed?  (``False``
        when no lease was ever issued — there is nothing to wait out.)"""
        return self.lease is not None and not self.lease_live()

    # -- elections and renewals ------------------------------------------------

    def elect(self, name: str) -> Lease:
        """Bump the epoch and grant *name* a fresh lease.

        Refused while another holder's lease is live — electing over a
        live lease is how you mint two simultaneous writers.  The
        current holder may re-elect itself (a deliberate epoch bump,
        e.g. after quarantining its own diverged tail).
        """
        now = self.timeline.now()
        if (self.lease is not None and self.lease.live(now)
                and self.lease.holder != name):
            raise LeaseError(
                f"cannot elect {name!r}: {self.lease.holder!r} holds a "
                f"live lease for epoch {self.lease.epoch} until "
                f"{self.lease.expires_at:.2f} (now {now:.2f})",
                holder=self.lease.holder, epoch=self.lease.epoch,
                current_epoch=self.epoch,
                expires_at=self.lease.expires_at, now=now,
                kind="lease_live")
        self.epoch += 1
        self.lease = Lease(self.epoch, name, now + self.lease_timeout)
        self.epoch_log.append((self.epoch, name, now))
        _metric("federation", "epochs_issued")
        return self.lease

    def renew(self, lease: Lease) -> Lease:
        """Extend *lease* without changing the epoch.

        A holder presenting a stale epoch is a zombie — someone else
        was elected behind the partition — and is fenced with a
        ``stale_epoch`` refusal instead of being quietly re-armed.
        """
        now = self.timeline.now()
        if lease.epoch != self.epoch:
            _metric("federation", "renewals_fenced")
            raise LeaseError(
                f"{lease.holder!r} presented epoch {lease.epoch} but the "
                f"group is at epoch {self.epoch}; holder is deposed",
                holder=lease.holder, epoch=lease.epoch,
                current_epoch=self.epoch, now=now, kind="stale_epoch")
        renewed = Lease(lease.epoch, lease.holder,
                        now + self.lease_timeout)
        self.lease = renewed
        return renewed

    def __repr__(self) -> str:
        holder = self.lease.holder if self.lease else None
        return (f"MembershipService(epoch={self.epoch}, "
                f"holder={holder!r}, timeout={self.lease_timeout})")

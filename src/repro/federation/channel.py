"""The network between replication nodes, as an injectable seam.

PR 6's replication shipped WAL segments by direct method call — which
is a network model too: a perfect one.  Every claim the epoch/lease
machinery makes (fencing, zombie demotion, lease-expiry refusals) is
only testable if the network can *misbehave*, so this module lifts the
primary↔follower round-trips behind :class:`ReplicationChannel`:

- :class:`ReplicationChannel` is the perfect network — every call goes
  straight through.  It is the default, so existing direct-call users
  keep their exact behaviour.
- :class:`FaultyChannel` is the same seam with faults drawn from a
  :class:`~repro.sim.schedule.FaultSchedule` on the shared virtual
  clock (as :class:`~repro.sources.faults.FaultyRepository` does):
  message **drops**, injected **delay**, shipment **duplication** and
  **reordering**, and scheduled **partition windows** — including
  one-way partitions, where
  ``direction="response"`` means the remote side *did the work* but the
  answer was lost, the asymmetry that turns a lease renewal into a
  zombie-manufacturing machine.

Every failure surfaces as a structured
:class:`~repro.errors.ChannelError` (a :class:`FederationError`, so
existing catch-and-degrade paths treat a lost round like any other
replication failure): callers learn *that* the round was lost and in
which direction, never a half-applied result.  Duplication and
reordering do **not** raise — they deliver a legal-but-hostile shipment
sequence the follower's ledger and catch-up ordering must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ChannelError, SettingError
from repro.obs.metrics import LockedCounters
from repro.sim.schedule import FaultSchedule, FaultWindow

#: Legal ``direction`` values for a partition window.
PARTITION_DIRECTIONS = ("request", "response", "both")


@dataclass
class ChannelStats(LockedCounters):
    """What the channel actually did to the traffic (per lifetime)."""

    metric_group = "federation_channel"

    rounds: int = 0
    dropped: int = 0
    partitioned: int = 0
    duplicated: int = 0
    reordered: int = 0
    injected_delay: float = 0.0


class ReplicationChannel:
    """The perfect network: every round-trip goes straight through.

    Subclasses interpose via three hooks — ``_before(operation)`` (may
    raise: the request never arrived), ``_after(operation)`` (may
    raise: the remote side executed but the response was lost), and
    ``_deliver(shipments)`` (may mutate the shipment list: duplication,
    reordering).  The remote objects are passed per call, so one
    channel can serve a follower across failovers without rewiring.
    """

    def __init__(self) -> None:
        self.stats = ChannelStats()

    # -- round-trips -------------------------------------------------------------

    def _round_trip(self, operation: str, call, *arguments):
        self._before(operation)
        answer = call(*arguments)
        self._after(operation)
        return answer

    def ship(self, primary, request: "dict | None" = None) -> list:
        """One replication round: *request* (a follower's verified-prefix
        table) out, everything *primary* answers back."""
        self.stats.bump("rounds")
        return self._deliver(list(self._round_trip("ship", primary.ship,
                                                   request)))

    def renew(self, membership, lease):
        """A lease-renewal round-trip to the membership service.

        The dangerous case is ``direction="response"``: the service
        renews the lease, but the holder never learns — it must refuse
        writes anyway, because a refusal is recoverable and a rogue
        acknowledgment is not.
        """
        return self._round_trip("renew", membership.renew, lease)

    # -- interposition hooks -----------------------------------------------------

    def _before(self, operation: str) -> None:
        """Runs before the remote call; raising models a lost request."""

    def _after(self, operation: str) -> None:
        """Runs after the remote call; raising models a lost response."""

    def _deliver(self, shipments: list) -> list:
        """Last touch on a shipment batch before the caller sees it."""
        return shipments

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rounds={self.stats.rounds})"


class FaultyChannel(ReplicationChannel):
    """A :class:`ReplicationChannel` with seeded, schedulable faults.

    All fault decisions come from one
    :class:`~repro.sim.schedule.FaultSchedule` keyed on the channel's
    name and seed — never from wall-clock time — so partition schedules
    replay bit for bit.  A partition is a window tagged with the
    direction it loses: ``request`` (calls never reach the remote
    side), ``response`` (the remote side executes but the answer is
    lost), or ``both``.
    """

    def __init__(self, timeline, *, name: str = "channel", seed: int = 0,
                 drop_rate: float = 0.0, delay: float = 0.0,
                 dup_rate: float = 0.0, reorder_rate: float = 0.0) -> None:
        super().__init__()
        self.timeline = timeline
        self.name = name
        self.faults = FaultSchedule(timeline, ("channel", name, seed),
                                    self.stats)
        self.drop_rate = drop_rate
        self.delay = delay
        self.dup_rate = dup_rate
        self.reorder_rate = reorder_rate

    # -- scheduling API ----------------------------------------------------------

    def partition(self, start: float, end: float,
                  direction: str = "both") -> FaultWindow:
        """Lose all traffic in *direction* during ``[start, end)``."""
        if direction not in PARTITION_DIRECTIONS:
            raise SettingError(
                f"direction must be one of {PARTITION_DIRECTIONS}, "
                f"got {direction!r}",
                what="direction", where=self.name, value=direction)
        return self.faults.window(start, end, direction)

    # -- interposition -----------------------------------------------------------

    def _before(self, operation: str) -> None:
        if self.delay:
            self.faults.delay(self.delay, "injected_delay")
        now = self.timeline.now()
        directions = self.faults.open_tags(now)
        if "both" in directions or "request" in directions:
            self.stats.bump("partitioned")
            raise ChannelError(
                f"channel partitioned at t={now:.2f}: {operation} request "
                f"never reached the remote side",
                kind="partitioned", direction="request")
        if self.faults.chance(self.drop_rate):
            self.stats.bump("dropped")
            raise ChannelError(
                f"channel dropped the {operation} request at t={now:.2f}",
                kind="dropped", direction="request")

    def _after(self, operation: str) -> None:
        now = self.timeline.now()
        if "response" in self.faults.open_tags(now):
            self.stats.bump("partitioned")
            raise ChannelError(
                f"channel partitioned at t={now:.2f}: the remote side "
                f"executed {operation} but the response was lost",
                kind="partitioned", direction="response")

    def _deliver(self, shipments: list) -> list:
        delivered = list(shipments)
        if delivered and self.faults.chance(self.dup_rate):
            index = self.faults.rng.randrange(len(delivered))
            delivered.insert(index, delivered[index])
            self.stats.bump("duplicated")
        if len(delivered) > 1 and self.faults.chance(self.reorder_rate):
            self.faults.rng.shuffle(delivered)
            self.stats.bump("reordered")
        return delivered

    def __repr__(self) -> str:
        return (f"FaultyChannel({self.name!r}, rounds={self.stats.rounds}, "
                f"dropped={self.stats.dropped}, "
                f"partitioned={self.stats.partitioned})")

"""Deterministic fault injection for simulated repositories.

The paper's sources are autonomous archives that "change, disappear, and
answer inconsistently"; every federation component must therefore treat
partial source failure as the normal case.  This module makes that
failure mode *reproducible*: :class:`FaultyRepository` wraps any
:class:`~repro.sources.base.Repository` behind a proxy whose faults are
seeded and schedulable, so chaos scenarios, resilience tests, and the
fault-rate ablation benchmark all replay bit for bit.

Fault modes (freely combinable):

- **intermittent failure** — each guarded call (``snapshot``, ``query``,
  ``query_accessions``, ``read_log``) fails with a structured
  :class:`~repro.errors.SourceError` at a seeded probability, or the
  next *n* calls fail deterministically (:meth:`FaultyRepository.fail_next`);
- **outage windows** — intervals on a shared
  :class:`~repro.sim.clock.VirtualClock` during which every guarded
  call fails and push notifications are dropped (flapping availability);
- **injected latency** — each guarded call advances the virtual clock,
  so retry backoff and per-query deadline budgets interact with slow
  sources without any real sleeping;
- **corruption** — snapshot / query payloads are truncated or garbled
  at a seeded probability (the quarantine path's raw material);
- **channel loss** — the change log or the push channel alone can be
  taken down, forcing monitors onto the Figure 2 degradation ladder.

All fault decisions come from one
:class:`~repro.sim.schedule.FaultSchedule` keyed on the wrapped source's
name and the proxy's seed, never from wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SourceError
from repro.obs.metrics import LockedCounters
from repro.sim.clock import ClockTrack, VirtualClock
from repro.sim.schedule import FaultSchedule
from repro.sources.base import LogEntry, Repository

__all__ = ["GUARDED_OPERATIONS", "ClockTrack", "FaultStats",
           "FaultyRepository", "VirtualClock"]

#: Operations the proxy guards (every remote round-trip a caller can make).
GUARDED_OPERATIONS = ("snapshot", "query", "query_accessions", "read_log")


@dataclass
class FaultStats(LockedCounters):
    """What the proxy actually did to its caller (per proxy lifetime)."""

    metric_group = "faults"

    calls: int = 0
    failures: int = 0
    corruptions: int = 0
    dropped_notifications: int = 0
    injected_latency: float = 0.0


class FaultyRepository:
    """A :class:`Repository` proxy with seeded, schedulable faults.

    Everything not explicitly guarded (``accessions``, ``record_state``,
    ``render_record``, ``advance``, ``clock`` …) delegates to the
    wrapped repository untouched — ground-truth inspection in tests
    stays fault-free.
    """

    def __init__(
        self,
        repository: Repository,
        timeline: VirtualClock | None = None,
        seed: int = 0,
    ) -> None:
        self.inner = repository
        self.timeline = timeline if timeline is not None else VirtualClock()
        self.stats = FaultStats()
        self.faults = FaultSchedule(
            self.timeline, ("faults", repository.name, seed), self.stats)
        self._fail_rates: dict[str, float] = {}
        self._forced_failures: dict[str, int] = {}
        self._latency = 0.0
        self._slow_rate = 0.0
        self._slow_factor = 10.0
        self._corrupt_rate = 0.0
        self._log_channel_down = False
        self._push_channel_down = False

    # -- scheduling API ---------------------------------------------------------

    def fail_with_rate(self, rate: float, *operations: str) -> None:
        """Fail each guarded call with probability *rate* (seeded)."""
        for operation in operations or GUARDED_OPERATIONS:
            self._fail_rates[operation] = rate

    def fail_next(self, count: int, *operations: str) -> None:
        """Deterministically fail the next *count* calls per operation."""
        for operation in operations or GUARDED_OPERATIONS:
            self._forced_failures[operation] = (
                self._forced_failures.get(operation, 0) + count
            )

    def schedule_outage(self, start: float, end: float) -> None:
        """Every guarded call in ``[start, end)`` virtual time fails."""
        self.faults.window(start, end)

    def add_latency(self, amount: float, slow_rate: float = 0.0,
                    slow_factor: float = 10.0) -> None:
        """Each guarded call advances the virtual clock by *amount*.

        ``slow_rate`` gives the latency distribution a heavy tail: that
        fraction of calls (seeded) takes ``slow_factor`` times longer —
        the straggler population hedged requests exist to cut off.
        """
        self._latency = amount
        self._slow_rate = slow_rate
        self._slow_factor = slow_factor

    def corrupt_with_rate(self, rate: float) -> None:
        """Truncate or garble returned record text with probability *rate*."""
        self._corrupt_rate = rate

    def drop_log_channel(self) -> None:
        self._log_channel_down = True

    def restore_log_channel(self) -> None:
        self._log_channel_down = False

    def drop_push_channel(self) -> None:
        self._push_channel_down = True

    def restore_push_channel(self) -> None:
        self._push_channel_down = False

    # -- fault machinery --------------------------------------------------------

    def in_outage(self, instant: float | None = None) -> bool:
        return bool(self.faults.open_tags(instant))

    def _fail(self, operation: str, reason: str) -> None:
        self.stats.bump("failures")
        raise SourceError(
            f"{self.name} failed {operation}: {reason}",
            source=self.name, operation=operation,
        )

    def _guard(self, operation: str) -> None:
        self.stats.bump("calls")
        if self._latency:
            latency = self._latency
            if self.faults.chance(self._slow_rate):
                latency *= self._slow_factor
            self.faults.delay(latency, "injected_latency")
        if self.in_outage():
            self._fail(operation, "source unavailable (outage window)")
        forced = self._forced_failures.get(operation, 0)
        if forced > 0:
            self._forced_failures[operation] = forced - 1
            self._fail(operation, "injected failure")
        if self.faults.chance(self._fail_rates.get(operation, 0.0)):
            self._fail(operation, "intermittent failure")

    def _maybe_corrupt(self, text: str) -> str:
        if not text or not self.faults.chance(self._corrupt_rate):
            return text
        self.stats.bump("corruptions")
        rng = self.faults.rng
        if rng.random() < 0.5 and len(text) > 1:
            # Truncation: the transfer died mid-payload.
            return text[:rng.randrange(1, len(text))]
        # Garbling: a window of the payload is overwritten with junk.
        chars = list(text)
        width = max(1, len(chars) // 8)
        start = rng.randrange(max(1, len(chars) - width))
        for index in range(start, min(len(chars), start + width)):
            if chars[index] != "\n":
                chars[index] = "#"
        return "".join(chars)

    # -- guarded access paths ---------------------------------------------------

    def snapshot(self) -> str:
        self._guard("snapshot")
        return self._maybe_corrupt(self.inner.snapshot())

    def query(self, accession: str) -> str | None:
        self._guard("query")
        text = self.inner.query(accession)
        return self._maybe_corrupt(text) if text is not None else None

    def query_accessions(self) -> tuple[str, ...]:
        self._guard("query_accessions")
        return self.inner.query_accessions()

    def read_log(self, since_sequence_number: int = 0) -> list[LogEntry]:
        if self._log_channel_down:
            self.stats.bump("calls")
            self._fail("read_log", "log channel unavailable")
        self._guard("read_log")
        return self.inner.read_log(since_sequence_number)

    def subscribe(
        self, callback: Callable[[LogEntry, str | None], None]
    ) -> None:
        def guarded(entry: LogEntry, rendered: str | None) -> None:
            if not self.push_channel_available():
                self.stats.bump("dropped_notifications")
                return
            callback(entry, rendered)

        self.inner.subscribe(guarded)

    def push_channel_available(self) -> bool:
        return (self.inner.push_channel_available()
                and not self._push_channel_down
                and not self.in_outage())

    # -- transparent delegation -------------------------------------------------

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attribute: str):
        # name / capabilities / clock / accessions / record_state /
        # render_record / advance / universe …
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return (f"FaultyRepository({self.inner!r}, "
                f"failures={self.stats.failures}, "
                f"corruptions={self.stats.corruptions})")

"""One seeded fault schedule on the virtual clock.

Every injected fault — a source that fails, stalls or garbles, a
replication channel that drops, delays or partitions — is a decision
drawn from a :class:`FaultSchedule`.  The injectors
(:class:`~repro.sources.faults.FaultyRepository`,
:class:`~repro.federation.channel.FaultyChannel`) say *what* a fault
means; the schedule says *whether and when*.

**Law.** The decisions are a pure function of the key and the order of
:meth:`FaultSchedule.chance` / ``rng`` calls — never of wall-clock time
— and a zero rate draws nothing, so a run replays bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SettingError
from repro.obs.metrics import LockedCounters


@dataclass(frozen=True)
class FaultWindow:
    """A half-open ``[start, end)`` interval of virtual time; *tag* says
    what is lost while it is open (a partition's direction)."""

    start: float
    end: float
    tag: str = ""

    def covers(self, instant: float) -> bool:
        return self.start <= instant < self.end


class FaultSchedule:
    """One ``random.Random`` seeded from ``repr(rng_key)``, tagged
    windows on *timeline*, and the injector's locked counters.

    ``rng`` is public for the positional draws an injector makes itself
    (where to cut a payload, which shipment to duplicate).
    """

    def __init__(self, timeline, rng_key, stats: LockedCounters) -> None:
        self.timeline = timeline
        self.key = rng_key
        self.stats = stats
        self.rng = random.Random(repr(rng_key))
        self.windows: list[FaultWindow] = []

    def window(self, start: float, end: float, tag: str = "") -> FaultWindow:
        """Schedule ``[start, end)``; an empty interval is refused."""
        if end <= start:
            raise SettingError(
                f"empty fault window [{start}, {end})",
                what="window", where=repr(self.key), value=(start, end))
        scheduled = FaultWindow(start, end, tag)
        self.windows.append(scheduled)
        return scheduled

    def open_tags(self, instant: float | None = None) -> set[str]:
        """Tags of every window covering *instant* (default: now)."""
        when = self.timeline.now() if instant is None else instant
        return {window.tag for window in self.windows
                if window.covers(when)}

    def chance(self, rate: float) -> bool:
        """One seeded draw against *rate*; a zero rate draws nothing."""
        return bool(rate) and self.rng.random() < rate

    def delay(self, amount: float, counter: str) -> None:
        """Advance the clock by *amount*, charged to ``stats.<counter>``."""
        self.timeline.advance(amount)
        self.stats.bump(counter, amount)

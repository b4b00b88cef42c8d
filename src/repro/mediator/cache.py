"""Delta-invalidated answer caching for the mediator.

The ROADMAP's north star — mediation under heavy traffic — needs the
second classic fix next to concurrent fan-out: stop re-asking the
sources questions whose answers cannot have changed.  The ETL layer
already knows *exactly* what changed (monitors emit
:class:`~repro.etl.delta.Delta` records per source accession), so the
cache can be precise instead of timer-based:

- every cached answer carries its **provenance**: the set of
  ``("record", source, accession)`` keys it read plus, for extent
  queries (``find_genes``), ``("extent", source)`` keys — a full scan
  depends on every record a source holds, including records that do
  not exist yet;
- a delta for accession X at source S evicts exactly the entries whose
  provenance intersects ``{("extent", S), ("record", S, X)}``; unrelated
  entries survive — there is no blanket flush anywhere;
- a monitor poll that *fails* makes its source **suspect**: entries
  depending on it are bypassed (answered live) but not evicted, so one
  flaky poll doesn't destroy the rest of the working set; a later clean
  poll lifts the suspicion;
- :meth:`CachedMediator.staleness_bound` reports the only staleness a
  served answer can have: the virtual time since the last clean
  monitor sweep.

Only *complete* answers are cached — a degraded answer is a fact about
source availability, not about the data — under the key of the
:class:`~repro.mediator.mediator.Request` they answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.errors import MediatorError
from repro.etl.delta import Delta
from repro.etl.monitors import SourceMonitor, choose_monitor
from repro.mediator.mediator import (
    MediatedAnswer,
    MediatedBatch,
    MediationCost,
    Mediator,
    Request,
)
from repro.obs.metrics import (
    LockedCounters,
    count as _metric,
    gauge as _gauge,
)
from repro.obs.trace import span as _span

#: Provenance key kinds.
EXTENT = "extent"    # depends on everything a source holds (full scans)
RECORD = "record"    # depends on one record's state at one source


def extent_key(source: str) -> tuple:
    return (EXTENT, source)


def record_key(source: str, accession: str) -> tuple:
    return (RECORD, source, accession)


@dataclass
class CacheStats(LockedCounters):
    """Hit/miss/eviction/invalidation counters (lifetime of one cache)."""

    metric_group = "cache"

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class CacheEntry:
    """One cached answer plus the provenance that can invalidate it."""

    __slots__ = ("answer", "provenance")

    def __init__(self, answer, provenance: frozenset) -> None:
        self.answer = answer
        self.provenance = provenance

    def touched_by(self, delta: Delta) -> bool:
        return bool(self.provenance & {extent_key(delta.source),
                                       record_key(delta.source,
                                                  delta.accession)})

    def depends_on(self, source: str) -> bool:
        return any(piece[1] == source for piece in self.provenance)


class QueryCache:
    """A size-bounded LRU of mediated answers, invalidated by deltas.

    Thread-safe: lookups, inserts, and invalidations all hold one lock,
    so a reader racing an invalidation either sees the entry before the
    delta (and the delta evicts it for the *next* reader) or not at all
    — never a torn entry.  Counters are mirrored into an optional
    :class:`~repro.mediator.mediator.MediationCost` so mediation work
    accounting and cache behaviour read from one place.
    """

    def __init__(self, max_entries: int = 128,
                 cost: MediationCost | None = None) -> None:
        if max_entries < 1:
            raise MediatorError("a query cache needs room for one entry")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._cost = cost
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _count(self, counter: str, amount: int = 1) -> None:
        self.stats.bump(counter, amount)
        if self._cost is not None:
            self._cost.bump(f"cache_{counter}", amount)

    def get(self, key: Hashable,
            usable: Callable[[CacheEntry], bool] | None = None,
            ) -> CacheEntry | None:
        """The entry for *key*, counted as a hit only if it is served:
        one *usable* rejects is a miss, like an absent one."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (usable is not None and not usable(entry)):
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return entry

    def put(self, key: Hashable, answer, provenance) -> CacheEntry:
        entry = CacheEntry(answer, frozenset(provenance))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._count("evictions")
        return entry

    def invalidate(self, delta: Delta) -> int:
        """Evict exactly the entries whose provenance *delta* touches."""
        with self._lock:
            keys = [key for key, entry in self._entries.items()
                    if entry.touched_by(delta)]
            for key in keys:
                del self._entries[key]
            if keys:
                self._count("invalidations", len(keys))
            return len(keys)


def _own_copy(answer):
    """*answer* with rows, per-accession lists and health of its own."""
    health = answer.health.copy()
    if isinstance(answer, MediatedBatch):
        return MediatedBatch({accession: list(views)
                              for accession, views in answer.items()},
                             health=health)
    return MediatedAnswer(answer, health=health)


class CachedMediator(Mediator):
    """A :class:`Mediator` fronted by a delta-invalidated answer cache.

    One ETL monitor per source (the cheapest strategy Figure 2 allows,
    via :func:`~repro.etl.monitors.choose_monitor`) supplies the delta
    stream; :meth:`sync` drains it into precise invalidations.  Serving
    stays mediator-shaped: answers carry their ``health``, and
    ``from_cache`` says whether the sources were consulted.
    """

    def __init__(
        self,
        sources: Sequence,
        *,
        max_entries: int = 128,
        monitors: dict[str, SourceMonitor] | None = None,
        **mediator_options,
    ) -> None:
        super().__init__(sources, **mediator_options)
        self.cache = QueryCache(max_entries, cost=self.cost)
        if monitors is None:
            monitors = {repository.name: choose_monitor(repository)
                        for repository in sources}
        self.monitors = monitors
        self.suspect_sources: set[str] = set()
        self.last_sync = self.timeline.now()

    def staleness_bound(self) -> float:
        """Virtual time since the last clean monitor sweep — the maximum
        age a served cached answer's provenance can have."""
        return self.timeline.now() - self.last_sync

    # -- the delta stream -------------------------------------------------------

    def sync(self) -> list[Delta]:
        """Poll every monitor; apply the deltas as precise invalidations.

        A failed poll leaves its source *suspect* (bypassed, not
        flushed) until a later poll succeeds; the staleness bound only
        resets once every monitor answered cleanly.
        """
        with _span("cache.sync", monitors=len(self.monitors)) as spn:
            deltas: list[Delta] = []
            suspect: set[str] = set()
            for name in sorted(self.monitors):
                monitor = self.monitors[name]
                failed_before = monitor.health.failed_polls
                try:
                    batch = monitor.poll()
                except Exception:
                    # A poll that *raises* (rather than counting a
                    # failed poll) must not abort the sweep: later
                    # monitors' deltas still invalidate precisely, and
                    # the broken source is merely suspect until a
                    # clean poll lifts the suspicion.
                    suspect.add(name)
                    _metric("cache", "sync_poll_errors")
                    continue
                if monitor.health.failed_polls > failed_before:
                    suspect.add(name)
                deltas.extend(batch)
            for delta in deltas:
                self.cache.invalidate(delta)
            self.suspect_sources = suspect
            if not suspect:
                self.last_sync = self.timeline.now()
            spn.annotate(deltas=len(deltas),
                         suspect=",".join(sorted(suspect)) or None)
            _gauge("cache", "entries", len(self.cache))
            _gauge("cache", "staleness_bound", self.staleness_bound())
            return deltas

    def _serviceable(self, entry) -> bool:
        return not any(entry.depends_on(source)
                       for source in self.suspect_sources)

    # -- the cache protocol -----------------------------------------------------

    def peek(self, request: Request):
        """A cached answer to *request*, or ``None`` — never goes live.

        The brownout ladder's cache-only rung: under sustained overload
        non-interactive queries may still be answered from here, but a
        miss is a shed, not a source fan-out.  An entry of a suspect
        source is a miss.
        """
        entry = self.cache.get(request.key, self._serviceable)
        if entry is None:
            return None
        served = _own_copy(entry.answer)
        served.from_cache = True
        return served

    def answer(self, request: Request, *, strict: bool = False,
               deadline_at: float | None = None,
               exclude: Sequence[str] = ()):
        """The cache protocol, said once: serve *request* from a
        serviceable entry, else ask the sources (:meth:`Mediator.answer`)
        and keep the answer — but only a complete one (a degraded
        answer is a fact about availability, not about the data) —
        under the provenance of the request's accessions at every
        source (an extent request: the sources' extents).

        Law: the answer equals the live mediator's, as of the last
        clean :meth:`sync`.  Entry and caller never share a list, a
        dict or a health report.
        """
        with _span(f"cache.{request.kind}", **request.span_fields) as spn:
            served = self.peek(request)
            spn.annotate(cache="miss" if served is None else "hit")
            if served is not None:
                return served
            answer = super().answer(request, strict=strict,
                                    deadline_at=deadline_at,
                                    exclude=exclude)
            if answer.health.complete:
                names = self.source_names
                provenance = (
                    {extent_key(name) for name in names}
                    if request.accessions is None else
                    {record_key(name, accession) for name in names
                     for accession in request.accessions})
                self.cache.put(request.key, _own_copy(answer), provenance)
            return answer

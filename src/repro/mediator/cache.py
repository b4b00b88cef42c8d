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
source availability, not about the data — and only predicate-free
queries (an opaque callable cannot be a cache key).
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
)
from repro.obs.metrics import (
    LockedCounters,
    count as _metric,
    gauge as _gauge,
)
from repro.obs.trace import annotate as _annotate, span as _span

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

    __slots__ = ("key", "answer", "provenance", "cached_at")

    def __init__(self, key: Hashable, answer, provenance: frozenset,
                 cached_at: float) -> None:
        self.key = key
        self.answer = answer
        self.provenance = provenance
        self.cached_at = cached_at

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

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> tuple:
        with self._lock:
            return tuple(self._entries)

    def _count(self, counter: str, amount: int = 1) -> None:
        self.stats.bump(counter, amount)
        if self._cost is not None:
            self._cost.bump(f"cache_{counter}", amount)

    def get(self, key: Hashable) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return entry

    def put(self, key: Hashable, answer, provenance,
            cached_at: float = 0.0) -> CacheEntry:
        entry = CacheEntry(key, answer, frozenset(provenance), cached_at)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._count("evictions")
        return entry

    def _evict(self, stale: Callable[[CacheEntry, object], bool],
               witness) -> int:
        with self._lock:
            keys = [key for key, entry in self._entries.items()
                    if stale(entry, witness)]
            for key in keys:
                del self._entries[key]
            if keys:
                self._count("invalidations", len(keys))
            return len(keys)

    def invalidate(self, delta: Delta) -> int:
        """Evict exactly the entries whose provenance *delta* touches."""
        return self._evict(CacheEntry.touched_by, delta)

    def invalidate_source(self, source: str) -> int:
        """Evict every entry depending on *source* (monitor resync)."""
        return self._evict(CacheEntry.depends_on, source)


def normalize_query(kind: str, **params) -> tuple:
    """Canonical hashable key for one mediator query.

    ``None`` parameters are dropped and the rest sorted by name, so
    ``find_genes(organism=None, name_prefix="p")`` and
    ``find_genes(name_prefix="p")`` share an entry.
    """
    pieces = tuple(sorted(
        (name, tuple(value) if isinstance(value, (list, tuple)) else value)
        for name, value in params.items() if value is not None
    ))
    return (kind,) + pieces


class CachedMediator:
    """A :class:`Mediator` fronted by a delta-invalidated answer cache.

    One ETL monitor per source (the cheapest strategy Figure 2 allows,
    via :func:`~repro.etl.monitors.choose_monitor`) supplies the delta
    stream; :meth:`sync` drains it into precise invalidations.  Serving
    stays mediator-shaped: answers carry their ``health``, and a
    ``from_cache`` attribute says whether the sources were consulted.
    """

    def __init__(
        self,
        sources: Sequence,
        *,
        max_entries: int = 128,
        monitors: dict[str, SourceMonitor] | None = None,
        **mediator_options,
    ) -> None:
        self.mediator = Mediator(sources, **mediator_options)
        self.cache = QueryCache(max_entries, cost=self.mediator.cost)
        if monitors is None:
            monitors = {repository.name: choose_monitor(repository)
                        for repository in sources}
        self.monitors = monitors
        self.suspect_sources: set[str] = set()
        self.last_sync = self.timeline.now()

    # -- plumbing ---------------------------------------------------------------

    @property
    def timeline(self):
        return self.mediator.timeline

    @property
    def cost(self) -> MediationCost:
        return self.mediator.cost

    @property
    def last_health(self):
        return self.mediator.last_health

    @property
    def source_names(self) -> tuple[str, ...]:
        return self.mediator.source_names

    def install_overload_controls(self, retry_budgets=None,
                                  hedgers=None) -> None:
        self.mediator.install_overload_controls(retry_budgets, hedgers)

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

    # -- cached query API -------------------------------------------------------

    def _lookup(self, key):
        entry = self.cache.get(key)
        if entry is not None and self._serviceable(entry):
            return entry
        return None

    @staticmethod
    def _materialize(entry):
        """A served copy of a cached answer (mutations can't poison it)."""
        answer = entry.answer
        if isinstance(answer, MediatedBatch):
            copy = MediatedBatch(
                {accession: list(views)
                 for accession, views in answer.items()},
                health=answer.health)
        else:
            copy = MediatedAnswer(list(answer), health=answer.health)
        copy.from_cache = True
        return copy

    def peek(self, kind: str, **params):
        """A cached answer for one query, or ``None`` — never goes live.

        The brownout ladder's cache-only rung: under sustained overload
        non-interactive queries may still be answered from here, but a
        miss is a shed, not a source fan-out.  *kind* and *params* must
        match the corresponding query method's cache key (``gene``,
        ``genes``, ``find_genes``).
        """
        entry = self._lookup(normalize_query(kind, **params))
        return self._materialize(entry) if entry is not None else None

    def _cached(self, spn, key, accessions, live: Callable, *args, **options):
        """The cache protocol, said once: serve *key* from a serviceable
        entry, else ask ``live(*args, **options)`` and keep the answer —
        but only a complete one (a degraded answer is a fact about
        availability, not about the data) — under the provenance of
        *accessions* at every source (``None``: the sources' extents)."""
        entry = self._lookup(key)
        if entry is not None:
            spn.annotate(cache="hit")
            return self._materialize(entry)
        spn.annotate(cache="miss")
        answer = live(*args, **options)
        if answer.health.complete:
            names = self.source_names
            provenance = ({extent_key(name) for name in names}
                          if accessions is None else
                          {record_key(name, accession) for name in names
                           for accession in accessions})
            self.cache.put(key, answer, provenance, self.timeline.now())
        answer.from_cache = False
        return answer

    def find_genes(
        self,
        organism: str | None = None,
        name_prefix: str | None = None,
        contains_motif: str | None = None,
        min_length: int | None = None,
        predicate: Callable | None = None,
        strict: bool = False,
        *,
        deadline_at: float | None = None,
        exclude: Sequence[str] = (),
    ) -> MediatedAnswer:
        if predicate is not None:
            # An opaque callable cannot key a cache entry; go live.
            _annotate(cache="bypass")
            return self.mediator.find_genes(
                organism, name_prefix, contains_motif, min_length,
                predicate, strict, deadline_at=deadline_at, exclude=exclude)
        key = normalize_query("find_genes", organism=organism,
                              name_prefix=name_prefix,
                              contains_motif=contains_motif,
                              min_length=min_length)
        with _span("cache.find_genes") as spn:
            return self._cached(
                spn, key, None, self.mediator.find_genes,
                organism, name_prefix, contains_motif, min_length,
                None, strict, deadline_at=deadline_at, exclude=exclude)

    def gene(self, accession: str, strict: bool = False, *,
             deadline_at: float | None = None,
             exclude: Sequence[str] = ()) -> MediatedAnswer:
        key = normalize_query("gene", accession=accession)
        with _span("cache.gene", accession=accession) as spn:
            return self._cached(
                spn, key, (accession,), self.mediator.gene, accession,
                strict, deadline_at=deadline_at, exclude=exclude)

    def genes(
        self, accessions: Sequence[str], strict: bool = False, *,
        deadline_at: float | None = None,
        exclude: Sequence[str] = (),
    ) -> MediatedBatch:
        key = normalize_query("genes", accessions=tuple(accessions))
        with _span("cache.genes", accessions=len(accessions)) as spn:
            return self._cached(
                spn, key, accessions, self.mediator.genes, accessions,
                strict, deadline_at=deadline_at, exclude=exclude)

"""Range partitioning of the federation by accession.

The paper's unifying database is one warehouse and one mediator; the
ROADMAP's "millions of users" goal needs that integration tier to scale
*out*.  The classic move — and the one every mediator-based
bio-integration system assumes is possible — is to partition the
accession space into contiguous ranges and give each range (a
**shard**) its own mediator, its own serving lanes, and its own slice
of every source.

Two pieces live here:

- :class:`ShardMap` — the routing table: ``N - 1`` sorted split points
  partition the accession space into ``N`` half-open ranges.  Routing
  is a :func:`bisect.bisect_right`, so the owner of an accession is a
  pure function of the map — every router, server, and replica derives
  the same answer with no coordination.
- :class:`ShardSlice` — one shard's view of a repository: a proxy that
  exposes exactly the in-range accessions through every access path
  (snapshot, query, log, push).  Slicing the *data* — rather than
  post-filtering fused answers — is what keeps scatter-gather answers
  bit-identical to the unsharded mediator's: each shard contributes
  disjoint rows, and fusing in shard order reproduces the global
  accession order a single mediator would have produced per source.

Fault proxies wrap *outside* the slice
(``FaultyRepository(ShardSlice(repo))``), so fault injection guards the
shard's remote calls while the slice's rendering runs against the clean
repository underneath.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Sequence

from repro.errors import FederationError, SourceError
from repro.sources.base import LogEntry, Repository


class ShardMap:
    """An accession-range partition: ``N - 1`` split points, ``N`` shards.

    Shard ``i`` owns the half-open range ``[boundaries[i-1],
    boundaries[i])`` (the first shard is unbounded below, the last
    unbounded above), so every accession — including ones that do not
    exist yet — has exactly one owner.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Sequence[str] = ()) -> None:
        ordered = tuple(boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise FederationError(
                f"shard boundaries must be strictly increasing: {ordered!r}"
            )
        self.boundaries = ordered

    @property
    def count(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, accession: str) -> int:
        """The shard owning *accession* (total: never misses)."""
        return bisect_right(self.boundaries, accession)

    def split(self, accessions: Iterable[str]) -> dict[int, list[str]]:
        """Group *accessions* by owning shard, input order preserved
        within each group.  Only shards that own something appear."""
        groups: dict[int, list[str]] = {}
        for accession in accessions:
            groups.setdefault(self.shard_of(accession), []).append(accession)
        return groups

    def describe(self) -> list[str]:
        """Human-readable ``[lo, hi)`` range per shard."""
        edges = ("",) + self.boundaries + ("",)
        return [
            f"[{edges[index] or '-inf'}, {edges[index + 1] or '+inf'})"
            for index in range(self.count)
        ]

    @classmethod
    def for_accessions(cls, accessions: Iterable[str],
                       shards: int) -> "ShardMap":
        """An evenly-populated map over a known accession population.

        Split points are drawn at the ``i/N`` quantiles of the sorted
        distinct accessions, so each shard starts with roughly equal
        load.  Tiny populations may yield fewer distinct split points
        than requested; the surplus shards simply start empty (the map
        still routes every accession deterministically).
        """
        if shards < 1:
            raise FederationError("a federation needs at least one shard")
        ordered = sorted(set(accessions))
        if shards == 1 or not ordered:
            return cls(())
        boundaries: list[str] = []
        for index in range(1, shards):
            pivot = ordered[min(len(ordered) - 1,
                                round(index * len(ordered) / shards))]
            if not boundaries or pivot > boundaries[-1]:
                boundaries.append(pivot)
        return cls(tuple(boundaries))

    def __repr__(self) -> str:
        return f"ShardMap({self.count} shards, {self.boundaries!r})"


class ShardSlice:
    """One shard's view of a repository: only in-range accessions exist.

    Every access path is filtered — snapshots render only owned
    records, queries outside the range answer "no such record", the
    change log and push channel drop out-of-range entries (their
    original sequence numbers are preserved, so monitor cursors keep
    working) — while everything else (``advance``, ``universe``,
    capability flags, the wrapper-selecting ``name``) delegates
    untouched.
    """

    def __init__(self, repository: Repository, shard_map: ShardMap,
                 shard: int) -> None:
        if not 0 <= shard < shard_map.count:
            raise FederationError(
                f"shard {shard} out of range for {shard_map!r}")
        self.inner = repository
        self.shard_map = shard_map
        self.shard = shard

    def owns(self, accession: str) -> bool:
        return self.shard_map.shard_of(accession) == self.shard

    # -- filtered access paths --------------------------------------------------

    def _in_range(self, ordered: tuple[str, ...]) -> tuple[str, ...]:
        """The owned stretch of the sorted *ordered*: a shard is a range."""
        edges = self.shard_map.boundaries
        low = bisect_left(ordered, edges[self.shard - 1]) if self.shard else 0
        high = (bisect_left(ordered, edges[self.shard])
                if self.shard < len(edges) else len(ordered))
        return ordered[low:high]

    def accessions(self) -> tuple[str, ...]:
        return self._in_range(self.inner.accessions())

    def query_accessions(self) -> tuple[str, ...]:
        return self._in_range(self.inner.query_accessions())

    def query(self, accession: str) -> str | None:
        text = self.inner.query(accession)
        return text if self.owns(accession) else None

    def snapshot(self) -> str:
        return self.inner.render_snapshot(
            self.inner.record_state(accession)
            for accession in self.accessions()
        )

    def read_log(self, since_sequence_number: int = 0) -> list[LogEntry]:
        return [entry
                for entry in self.inner.read_log(since_sequence_number)
                if self.owns(entry.accession)]

    def subscribe(
        self, callback: Callable[[LogEntry, str | None], None]
    ) -> None:
        def sliced(entry: LogEntry, rendered: str | None) -> None:
            if self.owns(entry.accession):
                callback(entry, rendered)

        self.inner.subscribe(sliced)

    def record_state(self, accession: str):
        if not self.owns(accession):
            raise SourceError(
                f"{self.name} shard {self.shard} does not own "
                f"{accession!r}",
                source=self.name, operation="record_state",
            )
        return self.inner.record_state(accession)

    # -- transparent delegation -------------------------------------------------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def capabilities(self):
        return self.inner.capabilities

    @property
    def representation(self) -> str:
        return self.inner.representation

    @property
    def clock(self) -> int:
        return self.inner.clock

    def __len__(self) -> int:
        return len(self.accessions())

    def __getattr__(self, attribute: str):
        # render_record / render_snapshot / advance / universe …
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return (f"ShardSlice({self.inner!r}, shard={self.shard}/"
                f"{self.shard_map.count})")

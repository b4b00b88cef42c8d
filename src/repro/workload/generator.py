"""Day-in-the-life traffic: the open-loop, multi-tenant macro workload.

Every number the system has produced so far came from a micro or
ablation benchmark — one mechanism, one knob, one table.  A biologist's
actual day looks nothing like that: thousands of users with wildly
unequal interests (a handful of hot genes soak up most of the lookups),
a mix of interactive shells, batch pipelines, and maintenance scans,
traffic that swells toward midday and dies at night, and — underneath
all of it — sources mutating, monitors polling, and caches invalidating
the whole time.  This module generates that day, deterministically.

Shape of the traffic:

- **tenants** — a fixed population of simulated users, each assigned a
  sticky priority class (most are a human at a shell, some are batch
  pipelines, a few are maintenance crawlers).  Every request belongs to
  a tenant and carries its label;
- **zipfian popularity** — query targets are drawn from a seeded
  Zipf distribution over the accession population: rank ``r`` is hit
  proportionally to ``1 / (r + 1) ** exponent``.  The hot head is what
  makes an answer cache worth having; the long tail is what keeps it
  honest;
- **diurnal phases** — the day is a sequence of phases (night /
  morning / peak / evening), each a run of fixed-length *epochs* whose
  Poisson arrival rate is ``load_factor`` × the federation's aggregate
  drain rate.  Epochs are the simulator's heartbeat: traffic is served
  per epoch, and ETL churn / cache sync / replica shipping happen on
  the epoch boundaries;
- **BiQL statements** — a trickle of warehouse-side statements per
  epoch, drawn from a fixed pool, each admission-gated through the
  serving tier exactly like mediated traffic.

Everything is drawn from one ``random.Random`` seeded by ``seed``:
identical arguments replay the identical day, byte for byte.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ReproError
from repro.serving.policy import (
    BATCH,
    INTERACTIVE,
    MAINTENANCE,
)
from repro.serving.server import Request
from repro.serving.workload import drawn_params, weighted

#: Query mix: point lookups dominate, extent scans are the stragglers.
DEFAULT_KIND_WEIGHTS = (("gene", 0.72), ("genes", 0.18),
                        ("find_genes", 0.10))

#: Priority mix over *tenants* (sticky per user, not per request).
DEFAULT_PRIORITY_WEIGHTS = ((INTERACTIVE, 0.70), (BATCH, 0.25),
                            (MAINTENANCE, 0.05))

#: The warehouse-side statement pool (all valid BiQL).
DEFAULT_BIQL_POOL = (
    "FIND genes SHOW accession, name LIMIT 5",
    "FIND genes WHERE length > 30 SHOW accession, length LIMIT 8",
    "FIND genes SHOW accession, gc SORT BY gc DESC LIMIT 5",
)


@dataclass(frozen=True)
class DiurnalPhase:
    """One stretch of the day: ``epochs`` epochs at ``load_factor`` ×
    the federation's aggregate drain rate."""

    name: str
    epochs: int
    load_factor: float

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ReproError(f"phase {self.name!r} needs >= 1 epoch")
        if self.load_factor <= 0:
            raise ReproError(f"phase {self.name!r} needs a positive "
                             f"load factor")


#: The default day: a quiet night, a morning ramp, a midday burst that
#: pushes past aggregate capacity, and an evening cooldown.
DEFAULT_DAY = (
    DiurnalPhase("night", 2, 0.4),
    DiurnalPhase("morning", 3, 1.5),
    DiurnalPhase("peak", 4, 4.0),
    DiurnalPhase("evening", 3, 1.2),
)


@dataclass(frozen=True)
class Tenant:
    """One simulated user with a sticky priority class."""

    uid: int
    priority: int

    @property
    def label(self) -> str:
        return f"u{self.uid:04d}"


@dataclass
class EpochTraffic:
    """Everything that arrives during one epoch.

    ``requests`` carry arrivals *relative to the epoch's start* — the
    simulator serves each epoch as its own replay window, so diurnal
    timing survives the clock drift of straggler-heavy epochs.
    """

    index: int
    phase: str
    load_factor: float
    requests: list = field(default_factory=list)
    #: (biql_text, priority) statements for the warehouse leg.
    biql: list = field(default_factory=list)


@dataclass
class MacroWorkload:
    """The generated day: the tenant population plus per-epoch traffic."""

    seed: int
    epoch_length: float
    tenants: list
    epochs: list
    #: Request label -> tenant uid (who asked what).
    tenant_of: dict = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return sum(len(epoch.requests) for epoch in self.epochs)

    @property
    def total_biql(self) -> int:
        return sum(len(epoch.biql) for epoch in self.epochs)

    def active_tenants(self) -> int:
        return len(set(self.tenant_of.values()))


class ZipfSampler:
    """Seeded Zipf draws over a ranked population.

    The ranking itself is a seeded shuffle of the population, so the
    hot head lands on *arbitrary* accessions (spread across shards),
    not the lexicographic front of the keyspace.
    """

    def __init__(self, population: Sequence[str], exponent: float,
                 rng: random.Random) -> None:
        if not population:
            raise ReproError("a zipfian sampler needs a population")
        if exponent <= 0:
            raise ReproError("zipf exponent must be positive")
        ranked = list(population)
        rng.shuffle(ranked)
        self.ranked = ranked
        self.exponent = exponent
        cumulative: list[float] = []
        total = 0.0
        for rank in range(len(ranked)):
            total += 1.0 / (rank + 1) ** exponent
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def draw(self, rng: random.Random) -> str:
        roll = rng.random() * self._total
        return self.ranked[bisect_right(self._cumulative, roll)]


def day_in_the_life(
    accessions: Sequence[str],
    *,
    users: int = 2000,
    phases: Sequence[DiurnalPhase] = DEFAULT_DAY,
    epoch_length: float = 40.0,
    capacity: int = 16,
    mean_service: float = 3.0,
    seed: int = 0,
    zipf_exponent: float = 1.1,
    kind_weights=DEFAULT_KIND_WEIGHTS,
    priority_weights=DEFAULT_PRIORITY_WEIGHTS,
    batch_size: int = 3,
    biql_per_epoch: int = 2,
    biql_pool: Sequence[str] = DEFAULT_BIQL_POOL,
) -> MacroWorkload:
    """Generate one simulated day of multi-tenant traffic.

    ``capacity`` is the federation's *aggregate* parallelism (shards ×
    per-shard lanes); each phase offers a Poisson stream at
    ``load_factor * capacity / mean_service`` requests per virtual
    second.  The arrival process is open-loop: the generator never
    looks at how the federation is coping — exactly the traffic shape
    that punishes a serving tier with no admission control.
    """
    if not accessions:
        raise ReproError("a day needs at least one accession to ask about")
    if users < 1:
        raise ReproError("a day needs at least one tenant")
    if capacity < 1 or mean_service <= 0 or epoch_length <= 0:
        raise ReproError("capacity, mean_service, epoch_length must be "
                         "positive")
    if not phases:
        raise ReproError("a day needs at least one diurnal phase")
    rng = random.Random(("macro-workload", seed).__repr__())
    tenants = [Tenant(uid, weighted(rng, priority_weights))
               for uid in range(users)]
    sampler = ZipfSampler(accessions, zipf_exponent, rng)
    workload = MacroWorkload(seed=seed, epoch_length=epoch_length,
                             tenants=tenants, epochs=[])
    epoch_index = 0
    serial = 0
    for phase in phases:
        rate = phase.load_factor * capacity / mean_service
        for __ in range(phase.epochs):
            traffic = EpochTraffic(index=epoch_index, phase=phase.name,
                                   load_factor=phase.load_factor)
            arrival = rng.expovariate(rate)
            while arrival < epoch_length:
                tenant = tenants[rng.randrange(users)]
                kind = weighted(rng, kind_weights)
                params = drawn_params(kind, lambda: sampler.draw(rng),
                                      min(batch_size, len(sampler.ranked)))
                label = f"{tenant.label}.e{epoch_index:02d}.q{serial:05d}"
                traffic.requests.append(Request(
                    kind=kind, params=params, priority=tenant.priority,
                    arrival=arrival, label=label,
                ))
                workload.tenant_of[label] = tenant.uid
                serial += 1
                arrival += rng.expovariate(rate)
            for __ in range(biql_per_epoch):
                tenant = tenants[rng.randrange(users)]
                traffic.biql.append((rng.choice(list(biql_pool)),
                                     tenant.priority))
            workload.epochs.append(traffic)
            epoch_index += 1
    return workload

"""Seeded synthetic workloads for the serving layer.

One generator feeds three consumers — the A11 overload ablation, chaos
scenario 11, and the ``overload`` CLI demo — so they all speak about
the same traffic shape: mostly interactive single-gene lookups, some
batch lookups, a trickle of maintenance scans, arriving as a Poisson
process whose rate is expressed as a multiple of the federation's
serving capacity.

Everything is drawn from one ``random.Random`` seeded by ``seed``;
identical seeds give identical workloads, byte for byte.

:func:`overload_federation` builds the calibrated federation the three
consumers serve that traffic against: four faultable sources with a
heavy-tailed latency model, a cached mediator, and a
:class:`~repro.serving.FederationServer` with clean-replica hedging.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.mediator.mediator import QUERY_KINDS, MediatedBatch
from repro.serving.policy import BATCH, INTERACTIVE, MAINTENANCE, ServingPolicy
from repro.serving.server import FederationServer, Request

#: Query mix: (kind, weight).  Single-record lookups dominate, the
#: occasional full scan is the expensive straggler.
_KIND_WEIGHTS = (("gene", 0.80), ("genes", 0.15), ("find_genes", 0.05))

#: Priority mix: most traffic is a human waiting.
_PRIORITY_WEIGHTS = ((INTERACTIVE, 0.70), (BATCH, 0.25), (MAINTENANCE, 0.05))


def weighted(rng: random.Random, pairs) -> object:
    """A value of *pairs* ``(value, weight)``, drawn by one roll."""
    roll = rng.random()
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if roll < acc:
            return value
    return pairs[-1][0]


def drawn_params(kind: str, draw: Callable[[], str],
                 batch_size: int) -> dict:
    """The parameters of a drawn *kind* request: none for an extent
    scan, else one accession ``draw()`` names, *batch_size* of them for
    a batch."""
    keyed_by = QUERY_KINDS[kind].keyed_by
    if keyed_by is None:
        return {}
    if QUERY_KINDS[kind].shape is MediatedBatch:
        return {keyed_by: [draw() for __ in range(batch_size)]}
    return {keyed_by: draw()}


def synthetic_workload(
    accessions: Sequence[str],
    *,
    count: int,
    load_factor: float,
    capacity: int,
    mean_service: float,
    seed: int = 0,
    batch_size: int = 3,
    start: float = 0.0,
) -> list[Request]:
    """*count* requests offered at ``load_factor`` × serving capacity.

    The federation drains about ``capacity / mean_service`` queries per
    virtual second, so the arrival process is Poisson with rate
    ``load_factor`` times that: 1.0 rides the saturation edge, 4.0 is
    an overload storm.  ``accessions`` seeds the lookup population.
    """
    if not accessions:
        raise ValueError("a workload needs at least one accession")
    if count < 1:
        raise ValueError("a workload needs at least one request")
    if load_factor <= 0 or mean_service <= 0 or capacity < 1:
        raise ValueError("load_factor, mean_service, capacity "
                         "must be positive")
    rng = random.Random(("serving-workload", seed).__repr__())
    rate = load_factor * capacity / mean_service
    requests: list[Request] = []
    arrival = start
    for index in range(count):
        arrival += rng.expovariate(rate)
        kind = weighted(rng, _KIND_WEIGHTS)
        params = drawn_params(kind, lambda: rng.choice(accessions),
                              min(batch_size, len(accessions)))
        requests.append(Request(
            kind=kind,
            params=params,
            priority=weighted(rng, _PRIORITY_WEIGHTS),
            arrival=arrival,
            label=f"q{index:04d}",
        ))
    return requests


def overload_federation(
    *,
    seed: int = 71,
    size: int = 24,
    fail_rate: float = 0.05,
    latency: float = 0.5,
    slow_rate: float = 0.1,
    slow_factor: float = 8.0,
    deadline: float = 25.0,
    capacity: int = 4,
    policy: ServingPolicy | None = None,
    strict: bool = False,
    cached: bool = False,
    max_concurrency: int | None = None,
):
    """The calibrated four-source federation behind A11 / chaos 11.

    Four repositories behind :class:`~repro.sources.FaultyRepository`
    proxies on one :class:`~repro.sources.VirtualClock`, each with a
    small fault rate and a heavy-tailed latency model (``slow_rate`` of
    calls run ``slow_factor`` × slower — the stragglers hedging exists
    for), fronted by a :class:`FederationServer` whose hedge replicas
    are the *clean* inner repositories.

    ``cached=False`` (the default) mediates every query live — the
    configuration where offered load beyond capacity actually hurts,
    which is what A11 measures.  ``cached=True`` swaps in a
    :class:`~repro.mediator.CachedMediator`, which brownout's
    cache-only rung needs.

    Returns ``(server, mediator, sources, accessions)``.  Everything is
    seeded; two calls with the same arguments behave identically.
    """
    from repro.mediator import CachedMediator, Mediator, RetryPolicy
    from repro.sources import (
        AceRepository,
        EmblRepository,
        FaultyRepository,
        GenBankRepository,
        SwissProtRepository,
        Universe,
        VirtualClock,
    )

    universe = Universe(seed=seed, size=size)
    timeline = VirtualClock()
    sources = [
        FaultyRepository(GenBankRepository(universe), timeline, seed=1),
        FaultyRepository(EmblRepository(universe), timeline, seed=2),
        FaultyRepository(AceRepository(universe), timeline, seed=3),
        FaultyRepository(SwissProtRepository(universe), timeline, seed=4),
    ]
    retry_policy = RetryPolicy(max_attempts=3, base_delay=1.0,
                               multiplier=2.0, jitter=0.0, deadline=40.0)
    mediator = (CachedMediator if cached else Mediator)(
        sources, retry_policy=retry_policy, timeline=timeline,
        max_concurrency=max_concurrency)
    # Faults start *after* the mediator's sync monitors take their
    # clean initial snapshots — the chaos begins at serve time.
    for proxy in sources:
        proxy.fail_with_rate(fail_rate)
        proxy.add_latency(latency, slow_rate=slow_rate,
                          slow_factor=slow_factor)
    if policy is None:
        policy = ServingPolicy(capacity=capacity, deadline=deadline)
    server = FederationServer(
        mediator, policy,
        replicas={proxy.name: proxy.inner for proxy in sources},
        strict=strict,
    )
    accessions = sorted({accession for proxy in sources
                         for accession in proxy.accessions()})[:8]
    return server, mediator, sources, accessions

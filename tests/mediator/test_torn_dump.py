"""A torn dump is a corrupt payload, never a complete answer.

Regression: ``Wrapper.split_snapshot`` dropped whatever followed the
last record terminator, so a dump-only source shipping half its dump
answered half its genes with ``health.complete`` — and the cached
mediator then served that half after the source had healed.
"""

import pytest

from repro.mediator import BreakerPolicy, CachedMediator, Mediator, RetryPolicy
from repro.sources import (
    AceRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)

NO_BREAKER = BreakerPolicy(failure_threshold=999, reset_timeout=1e9)


def _tear(repository, keep=lambda dump: len(dump) // 2):
    """Make *repository* ship only the first ``keep(dump)`` characters
    of its dump (default: half); returns the function that heals it."""
    whole = type(repository).snapshot

    def torn():
        dump = whole(repository)
        return dump[:keep(dump)]

    repository.snapshot = torn
    return lambda: repository.__dict__.pop("snapshot")


@pytest.mark.parametrize("archetype, keep", [
    (GenBankRepository, lambda dump: len(dump) // 2),
    # Hierarchical dumps have no terminator; the rule (the monitors')
    # sees a last object torn before its identifying tag.
    (AceRepository, lambda dump: dump.rfind("Accession") + 4),
])
def test_mediator_degrades_instead_of_answering_part(archetype, keep):
    source = archetype(Universe(seed=23, size=40))
    mediator = Mediator([source], RetryPolicy(max_attempts=2, jitter=0.0),
                        NO_BREAKER)
    heal = _tear(source, keep)
    answer = mediator.find_genes()
    assert list(answer) == []
    assert not answer.health.complete
    assert answer.health.sources_failed == (source.name,)
    assert answer.health.outcome(source.name).attempts == 2
    assert "torn" in answer.health.outcome(source.name).error
    assert mediator.cost.source_failures == 2
    heal()
    healed = mediator.find_genes()
    assert healed.health.complete and len(healed) == len(source)


def test_cached_mediator_caches_nothing_from_a_torn_dump():
    source = GenBankRepository(Universe(seed=23, size=40))
    cached = CachedMediator([source], retry_policy=RetryPolicy(
        max_attempts=2, jitter=0.0), breaker_policy=NO_BREAKER)
    heal = _tear(source)
    torn = cached.find_genes()
    assert not torn.health.complete and len(cached.cache) == 0
    one = source.accessions()[0]
    assert list(cached.gene(one)) == [] and len(cached.cache) == 0
    heal()
    healed = cached.find_genes()
    assert not healed.from_cache and healed.health.complete
    assert len(healed) == len(source)
    assert cached.find_genes().from_cache
    assert [view.accession for view in cached.gene(one)] == [one]


def test_a_retry_absorbs_a_dump_torn_once():
    source = GenBankRepository(Universe(seed=23, size=40))
    mediator = Mediator([source], RetryPolicy(max_attempts=3, jitter=0.0))
    heal = _tear(source)
    ship_torn = source.snapshot

    def torn_once():
        heal()
        return ship_torn()

    source.snapshot = torn_once
    answer = mediator.find_genes()
    assert answer.health.complete and len(answer) == len(source)
    assert answer.health.sources_retried == ("GenBank",)


def test_no_complete_answer_comes_from_a_truncated_dump():
    """``corrupt_with_rate`` truncates or garbles at its seeded whim;
    a truncated dump is retried, and never the one an answer the
    mediator calls complete was read from."""
    universe = Universe(seed=23, size=40)
    truncated = complete = 0
    for seed in range(12):
        proxy = FaultyRepository(GenBankRepository(universe),
                                 VirtualClock(), seed=seed)
        proxy.corrupt_with_rate(0.6)
        shipped = []
        corrupting = proxy._maybe_corrupt
        proxy._maybe_corrupt = lambda text: (
            shipped.append(corrupting(text)) or shipped[-1])
        mediator = Mediator([proxy], RetryPolicy(max_attempts=2, jitter=0.0),
                            NO_BREAKER)
        for __ in range(6):
            answer = mediator.find_genes()
            torn = not shipped[-1].rstrip().endswith("//")
            truncated += torn
            if answer.health.complete:
                complete += 1
                assert not torn
            else:
                assert list(answer) == []
                assert answer.health.outcome("GenBank").attempts == 2
    assert truncated and complete

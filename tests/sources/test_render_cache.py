"""A repository renders each record version once, and never serves a
stale text.

Every access path that ships text — ``snapshot``, ``query`` and the
active push — reuses a record's stored text only while the record is
the very object it was rendered from.  After every ``advance`` step,
after direct ``_records`` edits (the kind the mediator reuse tests
make: pop, re-insert the same object, install a bumped or a same-version
``replace``\\ d record, delete), through a :class:`FaultyRepository` and
down an active source's push channel, what ships must equal a fresh
``render_record`` of what the repository holds.
"""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.sources import (
    AceRepository,
    Capabilities,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    TrEmblRepository,
    Universe,
)

ARCHETYPES = (GenBankRepository, EmblRepository, SwissProtRepository,
              TrEmblRepository, AceRepository, RelationalRepository)
OPEN = Capabilities(queryable=True, logged=True, active=True)


def _repository(archetype, seed=11):
    return archetype(Universe(seed=seed, size=24), capabilities=OPEN)


def fresh_snapshot(repository) -> str:
    """The dump rendered from scratch (``render_snapshot([])`` is the
    header, if the format has one)."""
    return repository.render_snapshot([]) + "".join(
        repository.render_record(repository.record_state(accession))
        for accession in repository.accessions())


def assert_fresh(served, repository) -> None:
    """*served* (the repository or a proxy of it) ships fresh text."""
    assert served.snapshot() == fresh_snapshot(repository)
    for accession in repository.accessions():
        assert served.query(accession) == repository.render_record(
            repository.record_state(accession))
    assert served.query("GA-none") is None


@pytest.mark.parametrize("archetype", ARCHETYPES,
                         ids=lambda archetype: archetype.__name__)
class TestRenderedTextIsFresh:
    def test_after_every_advance_step(self, archetype):
        repository = _repository(archetype)
        assert_fresh(repository, repository)
        for __ in range(40):
            repository.advance(1)
            assert_fresh(repository, repository)
        assert set(repository._texts) <= set(repository._records)

    def test_after_direct_record_edits(self, archetype):
        repository = _repository(archetype)
        assert_fresh(repository, repository)
        first, second, third = repository.accessions()[:3]
        removed = repository._records.pop(first)
        assert_fresh(repository, repository)
        repository._records[first] = removed          # the same object
        assert_fresh(repository, repository)
        repository._records[first] = removed.bumped(
            description="revised in place")
        assert_fresh(repository, repository)
        record = repository._records[second]          # same version
        repository._records[second] = replace(
            record, description=record.description + " (touched)")
        assert_fresh(repository, repository)
        del repository._records[third]
        assert_fresh(repository, repository)
        repository._records[third] = replace(
            removed, accession=third, sequence_text="ACGT")
        assert_fresh(repository, repository)

    def test_through_a_fault_proxy(self, archetype):
        repository = _repository(archetype)
        proxy = FaultyRepository(repository, seed=3)
        for __ in range(10):
            assert_fresh(proxy, repository)
            repository.advance(3)
            record = repository._records[repository.accessions()[0]]
            repository._records[record.accession] = replace(
                record, name=record.name + "x")

    def test_down_the_push_channel(self, archetype):
        repository = _repository(archetype)
        pushed = []
        repository.subscribe(lambda entry, text: pushed.append(
            (entry, text)))
        FaultyRepository(repository, seed=5).subscribe(
            lambda entry, text: pushed.append((entry, text)))
        for __ in range(30):
            del pushed[:]
            repository.snapshot()          # store every record's text
            repository.advance(1)
            assert len(pushed) == 2
            for entry, text in pushed:
                current = repository._records.get(entry.accession)
                assert text == (repository.render_record(current)
                                if current is not None else None)


def test_a_source_record_cannot_change_in_place():
    repository = _repository(GenBankRepository)
    record = repository.record_state(repository.accessions()[0])
    with pytest.raises(FrozenInstanceError):
        record.description = "edited in place"

"""Reuse ≡ re-parse: a long-lived mediator answers like a fresh one.

``LiveSourceWrapper`` hands out the record it last parsed while the
source ships byte-identical text.  The law: same text ⇒ same record,
and the source is always asked — so a mediator that has lived through
any history answers ``==`` a mediator built for that one query, and
every :class:`MediationCost` field except ``records_parsed`` moves by
the same amount.
"""

import dataclasses
import random
import sys
import threading
from dataclasses import fields, replace

import pytest

from repro import obs
from repro.etl.wrappers import FastaWrapper, ParsedRecord
from repro.federation.sharding import ShardMap, ShardSlice
from repro.mediator import MediationCost, Mediator
from repro.mediator.pool import SequentialPool
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    TrEmblRepository,
    Universe,
)
from repro.sources.universe import ORGANISMS

ARCHETYPES = (GenBankRepository, EmblRepository, SwissProtRepository,
              TrEmblRepository, AceRepository, RelationalRepository)
SAME_BUT_PARSED = tuple(spec.name for spec in fields(MediationCost)
                        if spec.name != "records_parsed")


def _sources(seed, size=36, sliced=False):
    universe = Universe(seed=seed, size=size)
    sources = [archetype(universe) for archetype in ARCHETYPES]
    if sliced:
        accessions = sorted({accession for source in sources
                             for accession in source.accessions()})
        shard_map = ShardMap.for_accessions(accessions, 3)
        sources = [ShardSlice(source, shard_map, 1) for source in sources]
    return universe, sources


def _history(universe, sources, seed, steps):
    """A seeded stream of ``(method, kwargs)`` queries; between them the
    sources churn in place."""
    rng = random.Random(f"reuse-history-{seed}")
    known = [spec.accession for spec in universe.genes] + ["GA-none"]
    names = [spec.name for spec in universe.genes]
    for __ in range(steps):
        roll = rng.random()
        if roll < 0.25:
            rng.choice(sources).advance(rng.randint(1, 3))
        elif roll < 0.5:
            yield "gene", {"accession": rng.choice(known)}
        elif roll < 0.7:
            yield "genes", {"accessions": rng.sample(known, 5)}
        else:
            filters = {
                "organism": rng.choice(ORGANISMS),
                "name_prefix": rng.choice(names)[:3],
                "contains_motif": "".join(rng.choice("ACGT")
                                          for __ in range(4)),
                "min_length": rng.randrange(90, 260),
            }
            yield "find_genes", {
                name: filters[name]
                for name in rng.sample(sorted(filters), rng.randrange(0, 4))}


def _spent(cost, since):
    return {name: getattr(cost, name) - since[name]
            for name in SAME_BUT_PARSED}


@pytest.mark.parametrize("seed, sliced", [(1, False), (2, False),
                                          (3, True), (4, True)])
def test_a_long_lived_mediator_answers_like_a_fresh_one(seed, sliced):
    universe, sources = _sources(seed, sliced=sliced)
    veteran = Mediator(sources)
    queries = parses_saved = 0
    for method, kwargs in _history(universe, sources, seed, steps=90):
        since = {name: getattr(veteran.cost, name)
                 for name in SAME_BUT_PARSED}
        parsed = veteran.cost.records_parsed
        got = getattr(veteran, method)(**kwargs)
        fresh = Mediator(sources)
        want = getattr(fresh, method)(**kwargs)
        assert got == want, (method, kwargs)
        assert type(got) is type(want)
        assert got.health.summary() == want.health.summary()
        assert _spent(veteran.cost, since) == _spent(
            fresh.cost, dict.fromkeys(SAME_BUT_PARSED, 0)), (method, kwargs)
        assert fresh.cost.records_parsed == fresh.cost.records_wrapped
        parses_saved += (fresh.cost.records_parsed
                         - (veteran.cost.records_parsed - parsed))
        queries += 1
    assert queries > 50 and parses_saved > 0


class TestChurn:
    @staticmethod
    def _views(mediator, accession):
        return [(view.source, view.description, view.sequence_text)
                for view in mediator.gene(accession)]

    def _check(self, veteran, sources, accession):
        assert (self._views(veteran, accession)
                == self._views(Mediator(sources), accession))
        assert veteran.find_genes() == Mediator(sources).find_genes()

    def test_deleted_reinserted_and_version_bumped(self):
        universe, sources = _sources(7)
        genbank, embl = sources[0], sources[1]
        shared = sorted(set(genbank.accessions()) & set(embl.accessions()))
        accession = shared[0]
        veteran = Mediator(sources)
        self._check(veteran, sources, accession)
        removed = {source.name: source._records.pop(accession)
                   for source in (genbank, embl)}
        self._check(veteran, sources, accession)
        assert not {"GenBank", "EMBL"} & {
            view.source for view in veteran.gene(accession)}
        for source in (genbank, embl):              # the same text again
            source._records[accession] = removed[source.name]
        self._check(veteran, sources, accession)
        for source in (genbank, embl):
            source._records[accession] = removed[source.name].bumped(
                description="revised in place")
        self._check(veteran, sources, accession)
        assert {"revised in place"} == {
            view.description for view in veteran.gene(accession)
            if view.source in ("GenBank", "EMBL")}

    def test_what_is_kept_is_what_the_source_holds(self):
        universe, sources = _sources(7)
        genbank, embl = sources[0], sources[1]
        veteran = Mediator([genbank, embl])
        for __ in range(6):
            genbank.advance(5)
            embl.advance(5)
            veteran.find_genes()
            kept_genbank, kept_embl = (wrapper._kept
                                       for wrapper in veteran.wrappers)
            assert len(kept_genbank) == len(genbank)
            assert set(kept_embl) == set(embl.accessions())
        gone = embl.accessions()[0]
        del embl._records[gone]
        veteran.gene(gone)            # "no such record" drops the slot
        assert gone not in veteran.wrappers[1]._kept

    @pytest.mark.parametrize("archetype, access", [
        (GenBankRepository, "snapshot"), (EmblRepository, "query")])
    def test_a_garbled_payload_that_still_parses(self, archetype, access):
        """One shipment arrives with a word overwritten; it is wrapped
        as shipped (a fresh mediator would too), and the clean text that
        follows gets the clean record back — never the garbled one."""
        source = archetype(Universe(seed=7, size=20))
        veteran = Mediator([source])
        clean = veteran.find_genes()
        ship = getattr(source, access)
        setattr(source, access,
                lambda *args: ship(*args).replace("putative", "PUT#TIVE"))
        garbled = veteran.find_genes()
        assert garbled == Mediator([source]).find_genes() != clean
        assert any("PUT#TIVE" in view.description for view in garbled)
        delattr(source, access)
        assert veteran.find_genes() == clean


def test_a_consumer_cannot_reach_a_later_querys_records():
    universe, sources = _sources(11)
    batch_of = sources[0].accessions()[:4]
    mediator = Mediator(sources)
    want_all = Mediator(sources).find_genes()
    want_batch = Mediator(sources).genes(batch_of)
    for __ in range(2):
        answer = mediator.find_genes()
        assert answer == want_all
        kept = {id(record) for wrapper in mediator.wrappers
                for record in wrapper._kept.values()}
        for view in answer:                 # a view is a kept record
            assert id(view) in kept
            with pytest.raises(dataclasses.FrozenInstanceError):
                view.name = None
            with pytest.raises(AttributeError):
                view.sequence_text = "MUTATED"
        answer.clear()
        batch = mediator.genes(batch_of)
        assert batch == want_batch
        for views in batch.values():
            for view in views:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    del view.dna
            views.clear()
        batch.clear()


def test_parsed_record_is_built_in_one_go():
    record = FastaWrapper().parse_record(">X1 a read\nACGT\nAC\n")
    assert (str(record.dna), record.protein) == ("ACGTAC", None)
    protein = FastaWrapper("protein").parse_record(">P1\nMKV\n")
    assert (protein.dna, str(protein.protein)) == (None, "MKV")
    assert replace(record, version=2).version == 2
    assert isinstance(record, ParsedRecord)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.dna = None


def test_eight_clients_on_one_mediator_never_see_a_stale_record():
    """A race between clients may cost a redundant parse; it may not
    serve a record of an earlier source state, nor half of one."""
    universe, sources = _sources(13, size=24)
    sources = sources[:2] + sources[4:]      # dump-only and queryable
    veteran = Mediator(sources)
    accessions = sorted({accession for source in sources
                         for accession in source.accessions()})[:6]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for phase in range(4):
            for source in sources:
                source.advance(3)
            reference = Mediator(sources, pool=SequentialPool())
            want_all = reference.find_genes()
            want = {accession: reference.gene(accession)
                    for accession in accessions}
            wrong = []

            def client(index):
                for turn in range(3):
                    if (index + turn) % 2:
                        if veteran.find_genes() != want_all:
                            wrong.append((phase, index, "find_genes"))
                    else:
                        accession = accessions[(index + turn) % 6]
                        if veteran.gene(accession) != want[accession]:
                            wrong.append((phase, index, accession))

            clients = [threading.Thread(target=client, args=(index,))
                       for index in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            assert wrong == []
    finally:
        sys.setswitchinterval(interval)


class TestReuseRatio:
    def test_wrapped_over_parsed_is_the_reuse_ratio(self):
        universe, sources = _sources(17)
        sources = sources[:2] + sources[4:5]     # GenBank, EMBL, AceDB
        mediator = Mediator(sources)
        total = sum(len(source) for source in sources)
        mediator.find_genes()
        assert (mediator.cost.records_wrapped,
                mediator.cost.records_parsed) == (total, total)
        mediator.find_genes(organism=ORGANISMS[0])
        assert (mediator.cost.records_wrapped,
                mediator.cost.records_parsed) == (2 * total, total)
        updated = sources[1].accessions()[0]
        sources[1]._records[updated] = sources[1]._records[updated].bumped(
            description="seen anew")
        before = mediator.cost.reset()
        assert before.records_parsed == total
        mediator.gene(updated)
        # EMBL is asked for one record and parses it; the dump-only
        # sources ship everything and parse nothing.
        assert mediator.cost.records_parsed == 1
        assert mediator.cost.records_wrapped == (
            1 + len(sources[0]) + len(sources[2]))

    def test_metric_and_span_carry_it(self):
        universe, sources = _sources(17)
        mediator = Mediator(sources[:2])
        total = len(sources[0]) + len(sources[1])
        registry = obs.enable_metrics()
        sink = obs.InMemorySink()
        obs.enable(sink=sink)
        try:
            mediator.find_genes()
            mediator.find_genes()
        finally:
            obs.disable()
            obs.disable_metrics()
        counters = registry.snapshot()
        assert counters["mediation_records_parsed"] == total
        assert counters["mediation_records_wrapped"] == 2 * total
        first, second = (
            [span for span in spans if span["name"] == "mediator.fan_out"][0]
            for spans in sink.traces)
        assert (first["attrs"]["parsed"], first["attrs"]["reused"]) == (
            total, 0)
        assert (second["attrs"]["parsed"], second["attrs"]["reused"]) == (
            0, total)

"""One snapshot law and one truncation rule for every wrapper.

``parse_snapshot(dump) == [parse_record(text) for text in
split_snapshot(dump)]``, ``raw`` included, and every record's ``raw``
is the text it was parsed from — the mediator's record reuse compares
``record.raw`` with the text a source ships.  A dump whose tail is torn
is refused by the splitter under the same rule the monitors defer
deletions on.
"""

import pytest

from repro.errors import WrapperError
from repro.etl.monitors import SnapshotMonitor
from repro.etl.wrappers import FastaWrapper, wrapper_for, write_fasta
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    TrEmblRepository,
    Universe,
)

ARCHETYPES = (GenBankRepository, EmblRepository, SwissProtRepository,
              TrEmblRepository, AceRepository, RelationalRepository)
SEEDS = (3, 41, 977)


def _dumps():
    """(wrapper, dump) over seeded, churned universes, FASTA included."""
    for seed in SEEDS:
        universe = Universe(seed=seed, size=30)
        for archetype in ARCHETYPES:
            repository = archetype(universe)
            repository.advance(12)
            yield wrapper_for(repository.name), repository.snapshot()
        yield FastaWrapper(), write_fasta(
            [(spec.accession, spec.description, spec.sequence_text)
             for spec in universe.genes])


def test_parse_snapshot_is_parse_record_over_split_snapshot():
    for wrapper, dump in _dumps():
        texts = wrapper.split_snapshot(dump)
        assert texts, wrapper.format_name
        records = wrapper.parse_snapshot(dump)
        assert records == [wrapper.parse_record(text) for text in texts]
        assert [record.raw for record in records] == texts


@pytest.mark.parametrize("archetype", (EmblRepository, RelationalRepository,
                                       SwissProtRepository))
def test_a_queried_record_keeps_the_text_it_was_parsed_from(archetype):
    repository = archetype(Universe(seed=5, size=12))
    wrapper = wrapper_for(repository.name)
    for accession in repository.accessions():
        text = repository.query(accession)
        assert wrapper.parse_record(text).raw == text


class TestTornDumps:
    @pytest.mark.parametrize("archetype", (GenBankRepository,
                                           EmblRepository, AceRepository))
    def test_every_cut_inside_the_last_record_is_refused(self, archetype):
        repository = archetype(Universe(seed=7, size=8))
        wrapper = wrapper_for(repository.name)
        states = [repository.record_state(accession)
                  for accession in repository.accessions()]
        head = repository.render_snapshot(states[:-1])
        last = repository.render_record(states[-1])
        assert head + last == repository.snapshot()
        # The rule sees a missing terminator (flat) / identifying tag
        # (hierarchical): cut before the last record's is complete.
        marker = "Accession" if archetype is AceRepository else "//"
        for cut in range(1, last.rfind(marker) + len(marker), 7):
            torn = head + last[:cut]
            with pytest.raises(WrapperError) as caught:
                wrapper.split_snapshot(torn)
            assert wrapper.format_name in str(caught.value)
            assert repr(torn.rstrip().split("\n")[-1][-5:])[1:-1] in str(
                caught.value)
        assert len(wrapper.split_snapshot(head)) == len(states) - 1

    def test_a_whole_dump_has_no_torn_tail(self):
        for wrapper, dump in _dumps():
            assert wrapper.torn_tail(dump) == ""
            assert wrapper.torn_tail(dump + "\n\n") == ""
        assert wrapper_for("GenBank").torn_tail("") == ""

    def test_monitor_and_wrapper_share_the_rule(self):
        for archetype in (GenBankRepository, AceRepository,
                          RelationalRepository):
            repository = archetype(Universe(seed=7, size=8))
            monitor = SnapshotMonitor(repository)
            wrapper = wrapper_for(repository.name)
            dump = repository.snapshot()
            for cut in range(1, len(dump), 37):
                assert (monitor._dump_looks_truncated(dump[:cut])
                        == bool(wrapper.torn_tail(dump[:cut])))

"""Every finding of CHANGES.md as the check its fix must pass.

An open finding is a strict ``xfail`` naming the CHANGES.md line that
records it: the suite fails when a fix lands without deleting the mark,
and ``pytest -rx`` lists what is still open.  A mended one stays here,
unmarked, as its regression test.
"""

import pytest

from repro.sim import group
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
)
from repro.warehouse import UnifyingDatabase


def test_a_primary_with_no_follower_reports_its_rotted_write():
    """Two failovers leave charlie with no follower; a flipped byte in
    its log would lose the acknowledged write unreported, since no
    follower's claim names the rot.  The heal's sync has charlie verify
    the generation itself and re-cut it from its database as an
    image."""
    record = group.run([("write",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("flip", "charlie", "wal", 0, 1)])
    assert record.verdict.ok, record.verdict.violations
    assert record.group.primary.name == "charlie"
    assert record.group.primary.image_generation > 0


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND, PR 51")
def test_a_protein_databank_does_not_vote_on_gene_rows():
    """A gene row's name, organism and description are the nucleotide
    sources' reading: loading SwissProt beside them changes none.  Today
    ``Integrator.consolidate`` votes the protein's text in (GA100011
    reads "polE3 protein" against "polE3, putative transcription
    factor")."""
    universe = Universe(seed=2003, size=60)
    nucleotide = (GenBankRepository, EmblRepository, AceRepository,
                  RelationalRepository)

    def rows(*kinds) -> dict:
        warehouse = UnifyingDatabase([kind(universe) for kind in kinds])
        warehouse.initial_load()
        return {accession: values for accession, *values in warehouse.query(
            "SELECT accession, name, organism, description "
            "FROM public_genes")}

    assert rows(*nucleotide, SwissProtRepository) == rows(*nucleotide)

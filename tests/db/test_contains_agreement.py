"""One reading of a pattern: index scan ≡ seq scan ≡ page kernel.

``contains(seq, pattern)`` reads a text pattern as a value of the
subject's type — upper-cased, alphabet-checked.  The k-mer and suffix
indexes and the ``contains`` page kernel read it through the same
function (``core.ops.search.read_pattern``), so whatever the access path,
the answer — rows or the predicate's own error — is the sequential
scan's.  The lower-case pattern that the indexes once read as spelt (and
silently missed) is pinned first; the property draws the rest.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.adapter import install_genomics
from repro.core import ops
from repro.core.types import DnaSequence
from repro.db import Database
from repro.errors import ReproError
from repro.lang.biql import BiqlSession
from repro.sources import EmblRepository, Universe
from repro.warehouse import UnifyingDatabase

SUBJECTS = [
    "ACGTACGTTTGACCAGTAGGATACCA", "TTTTTTTTTTTTTTTTTTTTT", "GACCAGTAGG",
    "ACGTNNNACGTACGT", "GACCAGTARGATTACA", "RYSWKM", "AC", "", "GGCC-GGCC",
]

#: name → (layout, index DDL or None); the first is the oracle.
PATHS = {
    "scan": ("row", None),
    "kmer": ("row", "CREATE INDEX iseq ON t (s) USING kmer WITH (k = 4)"),
    "kmer8": ("row", "CREATE INDEX iseq ON t (s) USING kmer"),
    "suffix": ("row", "CREATE INDEX iseq ON t (s) USING suffix"),
    "kernel": ("column", None),
}


def _database(layout, index_ddl, subjects=SUBJECTS):
    database = Database(layout=layout, page_rows=4)
    install_genomics(database)
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s DNA)")
    database.executemany("INSERT INTO t VALUES (?, ?)",
                         [(n, DnaSequence(text))
                          for n, text in enumerate(subjects)])
    if index_ddl:
        database.execute(index_ddl)
    return database


@pytest.fixture(scope="module")
def databases():
    return {name: _database(*path) for name, path in PATHS.items()}


def _outcome(database, sql, parameters=()):
    try:
        return ("rows", sorted(database.query(sql, parameters).rows))
    except ReproError as error:
        return ("error", type(error), str(error))


@pytest.mark.parametrize("kind", ["kmer WITH (k = 8)", "suffix"])
@pytest.mark.parametrize("pattern, found", [
    ("gaccagtagg", [(1,)]),
    ("gaccagtagn", [(1,)]),    # and the lower-case n is no concrete base
    ("GACCAGTAGG", [(1,)]),
])
def test_a_lower_case_pattern_finds_its_row_through_an_index(
        kind, pattern, found):
    database = _database("row", None, ["ACGT" * 5, SUBJECTS[0]])
    sql = f"SELECT id FROM t WHERE contains(s, '{pattern}')"
    assert "SeqScan" in database.explain(sql)
    assert database.query(sql).rows == found
    database.execute(f"CREATE INDEX iseq ON t (s) USING {kind}")
    assert "IndexContainsScan" in database.explain(sql)
    assert database.query(sql).rows == found


def test_a_lower_case_pattern_finds_its_genes_through_biql():
    universe = Universe(seed=27, size=40)
    warehouse = UnifyingDatabase([EmblRepository(universe)])
    warehouse.initial_load()
    session = BiqlSession(warehouse)
    text = warehouse.query(
        "SELECT seq_text(sequence) FROM public_genes "
        "WHERE length > 40 LIMIT 1").scalar()
    motif = text[10:22]
    upper = session.run(
        f"FIND genes WHERE sequence CONTAINS '{motif}' SHOW accession").rows
    assert "IndexContainsScan" in warehouse.db.explain(
        session.last_sql, session.last_parameters)
    lower = session.run(f"FIND genes WHERE sequence CONTAINS "
                        f"'{motif.lower()}' SHOW accession").rows
    assert upper and lower == upper


@pytest.mark.parametrize("pattern", ["GAC CAG", "ACGU", "GACCAGTAGX", ""])
def test_an_index_refuses_what_the_predicate_refuses(databases, pattern):
    sql = "SELECT id FROM t WHERE contains(s, ?)"
    expected = _outcome(databases["scan"], sql, [pattern])
    for name, database in databases.items():
        assert _outcome(database, sql, [pattern]) == expected, name
        if name not in ("scan", "kernel"):
            assert "IndexContainsScan" in database.explain(sql, [pattern])


_fragments = st.builds(
    lambda subject, start, length: subject[start:start + length],
    st.sampled_from(SUBJECTS), st.integers(0, 20), st.integers(0, 30))
_patterns = st.one_of(
    _fragments,                                     # found somewhere
    _fragments.map(str.lower),
    st.text(alphabet="ACGTacgt", max_size=12),      # mostly not
    st.text(alphabet="ACGTacgtNnRYWw-", max_size=9),
    st.text(alphabet="ACGTU XZ*", max_size=6),      # the predicate's no
)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(pattern=_patterns, as_value=st.booleans())
def test_every_access_path_answers_as_the_scan_does(
        databases, pattern, as_value):
    # ``dna(?)`` hands the index a sequence, ``?`` the text as spelt.
    sql = ("SELECT id FROM t WHERE contains(s, dna(?))" if as_value
           else "SELECT id FROM t WHERE contains(s, ?)")
    expected = _outcome(databases["scan"], sql, [pattern])
    for name, database in databases.items():
        assert _outcome(database, sql, [pattern]) == expected, (name, pattern)
    if expected[0] == "rows" and not as_value:
        assert expected[1] == [
            (n,) for n, text in enumerate(SUBJECTS)
            if ops.contains(DnaSequence(text), pattern)]

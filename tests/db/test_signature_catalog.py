"""SQL's catalog is the image of the algebra's signature.

The adapter registers one SQL function per signature operator, generated
from its overloads: the carriers of their argument sorts decide what it
answers, and everything else is refused with the signature's own text.
So the tests here are generated from the signature too:

- the wrong-sort grid: every SQL function, called with every tuple of
  one sample per sort that no overload holds, refuses — through a row
  table and a sealed column page alike, with the error ``algebra.call``
  raises for the same tuple, and no builtin exception escapes;
- the differential: for every operator, on values of each overload's
  sorts, SQL over a row table ≡ SQL over column pages ≡
  ``algebra.evaluate`` (the same answer or the same error type);
- the audit: the catalog and the signature name the same operators.
"""

import inspect
import itertools
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter import GenomicsAdapter, adapter, install_genomics
from repro.core import genomics_algebra, ops
from repro.core.algebra.term import Application, Constant
from repro.core.types import (
    Alternatives,
    Chromosome,
    DnaSequence,
    Gene,
    Genome,
    Interval,
    Protein,
    ProteinSequence,
    RnaSequence,
)
from repro.core.types.alphabet import DNA, PROTEIN, RNA
from repro.db import Database
from repro.errors import (
    DatabaseError,
    EvaluationError,
    SortMismatchError,
    TypeCheckError,
)

ALGEBRA = genomics_algebra()
SIGNATURE = ALGEBRA.signature
OPERATORS = list(dict.fromkeys(op.name for op in SIGNATURE.operators()))
FUNCTIONS = [name for name in OPERATORS
             if name not in adapter.ANSWERED_BY_THE_ENGINE]

GENE = Gene(name="demo",
            sequence=DnaSequence("ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG"),
            exons=(Interval(0, 12), Interval(18, 39)), organism="E. coli")

#: One sample per sort a SQL value can hold, and its column type.
SAMPLES = {
    "dna": (DnaSequence("ATGAAACCCGGGTTTTAA"), "DNA"),
    "rna": (RnaSequence("AUGAAACCCGGGUUUUAA"), "RNA"),
    "protein_seq": (ProteinSequence("MKVLA"), "PROTEIN_SEQ"),
    "gene": (GENE, "GENE"),
    "primarytranscript": (ops.transcribe(GENE), "TRANSCRIPT"),
    "mrna": (ops.splice(ops.transcribe(GENE)), "MRNA"),
    "protein": (ops.express(GENE), "PROTEIN"),
    "alternatives": (Alternatives.of(DnaSequence("ACGT"),
                                     DnaSequence("ACGA")), "ALTERNATIVES"),
    "string": ("ACGT", "TEXT"),
    "int": (3, "INTEGER"),
    "float": (0.5, "REAL"),
}
LAYOUTS = {"row": {"layout": "row"},
           "column": {"layout": "column", "page_rows": 16}}


def sample_table(layout: str) -> Database:
    """Sixteen rows of the samples: one sealed page per column."""
    database = Database(**LAYOUTS[layout])
    install_genomics(database)
    database.execute("CREATE TABLE s (" + ", ".join(
        f"v_{sort} {kind}" for sort, (__, kind) in SAMPLES.items()) + ")")
    database.executemany(
        f"INSERT INTO s VALUES ({', '.join('?' * len(SAMPLES))})",
        [[value for value, __ in SAMPLES.values()]] * 16)
    if layout == "column":
        assert len(database.catalog.table("s").column_store._tail) == 0
    return database


def held(name: str, sorts: tuple) -> bool:
    """Whether some overload of *name* holds one sample of each sort."""
    return any(
        operator.arity == len(sorts)
        and all(ALGEBRA.in_carrier(SAMPLES[sort][0], wanted)
                for sort, wanted in zip(sorts, operator.arg_sorts))
        for operator in SIGNATURE.overloads(name))


def refused(name: str) -> list:
    arities = sorted({operator.arity
                      for operator in SIGNATURE.overloads(name)})
    return [sorts for arity in arities
            for sorts in itertools.product(SAMPLES, repeat=arity)
            if not held(name, sorts)]


def raised(call):
    """What *call* raises, a SQL function's failure read as its cause;
    None when it answers."""
    try:
        call()
    except TypeCheckError as error:
        return error
    except DatabaseError as error:
        return error.__cause__
    except Exception as error:  # noqa: BLE001 — an escape is the finding
        return error
    return None


class TestTheWrongSortGrid:
    @pytest.fixture(scope="class", params=sorted(LAYOUTS))
    def table(self, request):
        return sample_table(request.param)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_every_tuple_outside_the_carriers_is_refused(self, table, name):
        for sorts in refused(name):
            # The first argument is the stored column (a page kernel's
            # subject), the rest are parameters.
            sql = (f"SELECT {name}(v_{sorts[0]}"
                   + ", ?" * (len(sorts) - 1) + ") FROM s")
            parameters = [SAMPLES[sort][0] for sort in sorts[1:]]
            error = raised(lambda: table.execute(sql, parameters))
            algebra = raised(lambda: ALGEBRA.call(
                name, *((SAMPLES[sort][0], sort) for sort in sorts)))
            assert type(error) in (SortMismatchError, TypeCheckError), (
                name, sorts, error)
            assert type(algebra) is SortMismatchError, (name, sorts)
            if type(error) is SortMismatchError:
                assert str(error) == str(algebra) == (
                    f"{name} is declared over "
                    + " or ".join(" × ".join(operator.arg_sorts)
                                  for operator in SIGNATURE.overloads(name))
                    + f", not {' × '.join(sorts)}")
            else:
                assert name in str(error) and "argument" in str(error)

    def test_the_grid_reaches_every_function(self):
        assert all(refused(name) for name in FUNCTIONS)
        # Two shapes the hand-written registrations answered with a value.
        assert ("dna", "int") in refused("alignment_score")
        assert ("gene",) in refused("seq_text")


# -- the differential: one operator, three paths -------------------------------

concrete = st.text(alphabet="ACGT", min_size=12, max_size=40)


@st.composite
def genes(draw):
    text = draw(concrete)
    cut = draw(st.integers(3, len(text) - 3))
    exons = ((Interval(0, len(text)),) if draw(st.booleans())
             else (Interval(0, cut), Interval(cut + 2, len(text))))
    return Gene(name="g", sequence=DnaSequence(text), exons=exons,
                organism="E. coli")


VALUES = {
    "dna": st.one_of(concrete, st.text(alphabet=DNA.symbols, max_size=30)
                     ).map(DnaSequence),
    "rna": st.text(alphabet=RNA.symbols, max_size=30).map(RnaSequence),
    "protein_seq": st.text(alphabet=PROTEIN.symbols, max_size=30
                           ).map(ProteinSequence),
    "string": st.one_of(st.text(alphabet="ACGTUMK", max_size=5),
                        st.sampled_from(["g", "chr1"])),
    "int": st.integers(0, 25),
    "float": st.floats(0.0, 1.0),
    "gene": genes(),
    "primarytranscript": genes().map(ops.transcribe),
    "mrna": genes().map(lambda gene: ops.splice(ops.transcribe(gene))),
    "protein": st.builds(Protein, st.text(alphabet="ACDEFGHIKLMNPQRSTVWY",
                                          max_size=20).map(ProteinSequence),
                         name=st.just("p")),
    "alternatives": st.lists(concrete.map(DnaSequence), min_size=1,
                             max_size=3).map(lambda values:
                                             Alternatives.of(*values)),
    "chromosome": genes().map(lambda gene: Chromosome(
        "chr1", gene.sequence, (gene,))),
}
VALUES["genome"] = VALUES["chromosome"].map(
    lambda chromosome: Genome("E. coli", (chromosome,)))
COLUMN = {sort: kind for sort, (__, kind) in SAMPLES.items()}


def outcome(call):
    """``("value", value)`` or ``("error", type)``; a failure inside a SQL
    function or an operator is read as its cause."""
    try:
        value = call()
    except (DatabaseError, EvaluationError) as error:
        cause = error.__cause__ if error.__cause__ is not None else error
        return ("error", type(cause))
    if isinstance(value, float):
        return ("value", struct.pack("<d", value))
    return ("value", value)


def through_sql(layout, operator, values):
    """*operator* over *values* through SQL: the first argument from a
    stored column where its sort has one, the rest as parameters."""
    database = Database(**{"row": {"layout": "row"},
                           "column": {"layout": "column", "page_rows": 2}
                           }[layout])
    install_genomics(database)
    first = operator.arg_sorts[0]
    if first in COLUMN:
        database.execute(f"CREATE TABLE t (v {COLUMN[first]})")
        database.executemany("INSERT INTO t VALUES (?)", [[values[0]]] * 2)
        subject, parameters = "v", list(values[1:])
    else:
        database.execute("CREATE TABLE t (v INTEGER)")
        database.executemany("INSERT INTO t VALUES (?)", [[1]] * 2)
        subject, parameters = "?", list(values)
    arguments = ", ".join([subject] + ["?"] * (len(values) - 1))
    return database.execute(f"SELECT {operator.name}({arguments}) FROM t",
                            parameters).rows[0][0]


class TestOneDifferentialPerOperator:
    @pytest.mark.parametrize("operator", [
        operator for name in FUNCTIONS
        for operator in SIGNATURE.overloads(name)], ids=str)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(data=st.data())
    def test_row_pages_and_the_algebra_agree(self, operator, data):
        values = [data.draw(VALUES[sort]) for sort in operator.arg_sorts]
        term = Application(operator, tuple(
            Constant(value, sort)
            for value, sort in zip(values, operator.arg_sorts)))
        want = outcome(lambda: ALGEBRA.evaluate(term))
        for layout in ("row", "column"):
            got = outcome(lambda: through_sql(layout, operator, values))
            assert got == want, (layout, operator, values)


# -- the audit ---------------------------------------------------------------------

class TestTheCatalogIsTheSignature:
    def test_every_udf_is_an_operator_and_every_operator_a_udf(self):
        bare, installed = Database(), Database()
        install_genomics(installed)
        udfs = set(installed.catalog.function_names) - set(
            bare.catalog.function_names)
        assert udfs == set(FUNCTIONS)
        assert set(OPERATORS) - udfs == {"length"}
        assert adapter.ANSWERED_BY_THE_ENGINE == ("length",)
        assert bare.catalog.has_function("length")

    def test_each_udf_is_described_by_its_signature(self):
        database = Database()
        install_genomics(database)
        gc = database.catalog.function("gc_content")
        assert gc.description == ("gc_content: dna → float; gc_content: "
                                  "rna → float; gc_content: protein_seq "
                                  "→ float")
        assert gc.kernel == "gc_content"
        assert database.catalog.function("contains").selectivity == 0.05
        assert database.catalog.function("resembles").selectivity == 0.10

    def test_the_adapter_declares_nothing_by_hand(self):
        source = inspect.getsource(adapter)
        assert "declared(" not in source
        assert "null_safe" not in source
        assert not re.search(r"register\w*\(\s*['\"]", source)
        assert "self.algebra" in inspect.getsource(GenomicsAdapter.install)

    def test_an_extended_algebra_is_callable_from_sql(self):
        algebra = genomics_algebra()
        algebra.extend_operator("purine_fraction", ("dna",), "float",
                                lambda dna: str(dna).count("A") / len(dna))
        database = Database()
        GenomicsAdapter(algebra).install(database)
        assert database.execute(
            "SELECT purine_fraction(dna('AACG'))").rows == [(0.5,)]
        with pytest.raises(DatabaseError) as refusal:
            database.execute("SELECT purine_fraction(rna('AACG'))")
        assert str(refusal.value.__cause__) == (
            "purine_fraction is declared over dna, not rna")

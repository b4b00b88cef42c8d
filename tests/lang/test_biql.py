"""Tests for BiQL: parsing, translation, execution, rendering."""

import pytest

from repro.core.types import DnaSequence
from repro.errors import BiqlError
from repro.lang.biql import BiqlSession, parse_biql, translate
from repro.sources import EmblRepository, SwissProtRepository, Universe
from repro.warehouse import UnifyingDatabase


@pytest.fixture(scope="module")
def session():
    universe = Universe(seed=27, size=40)
    warehouse = UnifyingDatabase([
        EmblRepository(universe, coverage=0.8),
        SwissProtRepository(universe, coverage=0.8),
    ])
    warehouse.initial_load()
    warehouse.add_user_sequence("alice", "my clone",
                                DnaSequence("ATGGCCAAATAA"))
    return BiqlSession(warehouse)


class TestParsing:
    def test_minimal(self):
        query = parse_biql("FIND genes")
        assert query.verb == "FIND"
        assert query.entity == "genes"
        assert query.conditions == []

    def test_case_insensitive_keywords(self):
        query = parse_biql("find genes where length > 5")
        assert len(query.conditions) == 1

    def test_is_condition(self):
        query = parse_biql("FIND genes WHERE organism IS 'E. coli'")
        condition = query.conditions[0][1]
        assert condition.operator == "="
        assert condition.value == "E. coli"

    def test_is_not(self):
        query = parse_biql("FIND genes WHERE organism IS NOT 'yeast'")
        assert query.conditions[0][1].operator == "!="

    def test_and_or_connectives(self):
        query = parse_biql(
            "FIND genes WHERE length > 5 OR gc > 0.5 AND exons = 2"
        )
        connectives = [c for c, _ in query.conditions]
        assert connectives == ["AND", "OR", "AND"]

    def test_contains(self):
        query = parse_biql("FIND genes WHERE sequence CONTAINS 'TATAAT'")
        assert query.conditions[0][1].kind == "contains"

    def test_resembles_within(self):
        query = parse_biql(
            "FIND genes WHERE sequence RESEMBLES 'ATGGCC' WITHIN 0.5"
        )
        condition = query.conditions[0][1]
        assert condition.kind == "resembles"
        assert condition.threshold == 0.5

    def test_between(self):
        query = parse_biql("FIND genes WHERE length BETWEEN 50 AND 100")
        condition = query.conditions[0][1]
        assert (condition.value, condition.high) == (50, 100)

    def test_show_sort_limit(self):
        query = parse_biql(
            "FIND genes SHOW accession, gc SORT BY gc DESC LIMIT 7"
        )
        assert query.show == ["accession", "gc"]
        assert query.sort_field == "gc"
        assert not query.sort_ascending
        assert query.limit == 7

    def test_render_formats(self):
        assert parse_biql("FIND genes AS FASTA").render == "fasta"
        query = parse_biql("FIND genes AS HISTOGRAM OF gc")
        assert query.render == "histogram"
        assert query.histogram_field == "gc"

    def test_quoted_apostrophe(self):
        query = parse_biql("FIND genes WHERE name IS 'o''brien'")
        assert query.conditions[0][1].value == "o'brien"

    def test_errors(self):
        for bad in (
            "DELETE genes",
            "FIND genes WHERE",
            "FIND genes WHERE length",
            "FIND genes LIMIT many",
            "FIND genes AS PIECHART",
            "FIND genes extra",
        ):
            with pytest.raises(BiqlError):
                parse_biql(bad)


    @pytest.mark.parametrize("text", ["FIND genes LIMIT 2.5",
                                      "FIND genes SHOW name LIMIT 0.0"])
    def test_a_fractional_limit_is_a_biql_error(self, text):
        # Used to escape as ``ValueError: invalid literal for int()``.
        with pytest.raises(BiqlError, match="LIMIT needs a whole number, "
                                            "got '[0-9.]+'"):
            parse_biql(text)
        assert parse_biql("FIND genes LIMIT 25").limit == 25


class TestTranslation:
    def test_computed_field(self):
        sql, params = translate(parse_biql(
            "FIND genes WHERE tm > 60 SHOW accession, tm"
        ))
        assert "melting_temperature(sequence)" in sql
        assert params == [60]

    def test_contains_becomes_udf(self):
        sql, params = translate(parse_biql(
            "FIND genes WHERE sequence CONTAINS 'TATAAT'"
        ))
        assert "contains(sequence, ?)" in sql
        assert params == ["TATAAT"]

    def test_count(self):
        sql, __ = translate(parse_biql("COUNT genes"))
        assert sql.startswith("SELECT count(*)")

    def test_unknown_entity(self):
        with pytest.raises(BiqlError):
            translate(parse_biql("FIND planets"))

    def test_unknown_field_lists_known(self):
        with pytest.raises(BiqlError) as excinfo:
            translate(parse_biql("FIND genes SHOW wingspan"))
        assert "known fields" in str(excinfo.value)

    def test_count_with_sort_rejected(self):
        with pytest.raises(BiqlError):
            translate(parse_biql("COUNT genes SORT BY length"))

    def test_values_parameterized(self):
        sql, params = translate(parse_biql(
            "FIND genes WHERE organism IS 'x' AND length > 5"
        ))
        assert "?" in sql
        assert "'x'" not in sql
        assert params == ["x", 5]


class TestExecution:
    def test_basic_find(self, session):
        result = session.run("FIND genes SHOW accession, name LIMIT 5")
        assert result.columns == ["accession", "name"]
        assert 0 < len(result) <= 5

    def test_count(self, session):
        total = session.run("COUNT genes").scalar()
        direct = session.warehouse.query(
            "SELECT count(*) FROM public_genes"
        ).scalar()
        assert total == direct

    def test_computed_fields_run(self, session):
        result = session.run(
            "FIND genes SHOW accession, tm, entropy LIMIT 3"
        )
        for __, tm, entropy in result:
            assert tm > 0
            assert 0 <= entropy <= 2.01

    def test_protein_entity(self, session):
        result = session.run("FIND proteins SHOW accession, pi LIMIT 3")
        assert all(0 <= row[1] <= 14 for row in result)

    def test_user_sequences_entity(self, session):
        result = session.run(
            "FIND sequences WHERE owner IS 'alice' SHOW label, gc"
        )
        assert result.rows[0][0] == "my clone"

    def test_or_semantics(self, session):
        either = session.run(
            "COUNT genes WHERE gc > 0.99 OR length > 0"
        ).scalar()
        assert either == session.run("COUNT genes").scalar()

    def test_last_sql_exposed(self, session):
        session.run("COUNT genes WHERE length > 10")
        assert session.last_sql is not None
        assert "public_genes" in session.last_sql
        assert session.last_parameters == [10]

    def test_resembles_runs(self, session):
        accession, sequence = session.warehouse.query(
            "SELECT accession, seq_text(sequence) FROM public_genes LIMIT 1"
        ).first()
        hits = session.run(
            f"FIND genes WHERE sequence RESEMBLES '{sequence}' WITHIN 0.9 "
            f"SHOW accession"
        )
        assert (accession,) in hits.rows


class TestExplain:
    """``BiqlSession.explain``: the translation and the plan, through the
    one ``compile`` — here for the three dearest statements of the
    ``biql_interactive`` benchmark workload."""

    def test_the_join_probes_the_key_index_it_already_has(self, session):
        sql, parameters, *plan = session.explain(
            "FIND gene_products SORT BY accession DESC LIMIT 20"
        ).splitlines()
        assert sql.startswith("SELECT g.accession AS accession")
        assert parameters == "[]"
        # The genes are sorted, not the join: it probes only the genes
        # the LIMIT consumes.
        assert [line.split("(")[0].strip() for line in plan] == [
            "Limit", "Project", "IndexJoin[inner]", "Sort", "SeqScan",
            "SeqScan"]
        assert ("IndexJoin[inner](g.accession = p.accession "
                "USING $public_proteins_accession_key)") in plan[2]
        assert "Sort(g.accession DESC)" in plan[3]
        assert "(public_genes AS g; columns accession, name, length)" \
            in plan[4]
        assert "(public_proteins AS p; columns accession, length)" in plan[5]

    def test_the_extent_statement_keeps_eight_rows(self, session):
        text = ("FIND genes WHERE length > 30 SHOW accession, gc "
                "SORT BY gc DESC LIMIT 8")
        sql, parameters, *plan = session.explain(text).splitlines()
        assert "WHERE length > ?" in sql and parameters == "[30]"
        assert "Sort(gc DESC; top 8)" in plan[2]
        assert plan[3].strip().startswith(
            "IndexRangeScan(public_genes AS public_genes USING "
            "idx_genes_length ON length IN (?, +inf]; columns accession, gc)")
        analyzed = session.explain(text, analyze=True).splitlines()
        assert "actual 8 rows in 1 batches" in analyzed[4]      # the sort
        assert session.run(text).rows == session.warehouse.query(
            sql, [30]).rows

    def test_the_motif_statement_rechecks_the_index_candidates(self, session):
        sql, parameters, *plan = session.explain(
            "FIND genes WHERE sequence CONTAINS 'ACGTACGTAC' SHOW accession"
        ).splitlines()
        assert parameters == "['ACGTACGTAC']"
        assert plan[1].strip().startswith("Filter(contains(sequence, ?))")
        assert plan[2].strip().startswith(
            "IndexContainsScan(public_genes AS public_genes USING "
            "idx_genes_seq PATTERN ?; columns accession, sequence)")

    def test_the_warehouse_explains_with_parameters(self, session):
        plan = session.warehouse.explain(
            "SELECT name FROM public_genes WHERE accession = ?", ["X"],
            analyze=True)
        assert "actual 0 rows in 0 batches" in plan


class TestCrossEntityViews:
    def test_gene_products_joins_tables(self, session):
        result = session.run(
            "FIND gene_products SHOW accession, length, protein_length "
            "LIMIT 5"
        )
        assert "JOIN" in session.last_sql
        assert len(result) > 0
        for __, gene_length, protein_length in result:
            assert gene_length > 0
            assert protein_length > 0

    def test_gene_products_filter_on_both_sides(self, session):
        count = session.run(
            "COUNT gene_products WHERE length > 30 AND pi > 4"
        ).scalar()
        assert count >= 0

    def test_gene_products_sequence_contains(self, session):
        result = session.run(
            "FIND gene_products WHERE sequence CONTAINS 'ATG' "
            "SHOW accession"
        )
        assert len(result) > 0

    def test_annotated_genes(self, session):
        accession = session.warehouse.query(
            "SELECT accession FROM public_genes LIMIT 1"
        ).scalar()
        session.warehouse.annotate("tester", accession, "of interest")
        result = session.run(
            "FIND annotated_genes WHERE owner IS 'tester' "
            "SHOW accession, note"
        )
        assert result.rows == [(accession, "of interest")]

    def test_entity_counts_consistent(self, session):
        products = session.run("COUNT gene_products").scalar()
        proteins = session.run("COUNT proteins").scalar()
        genes = session.run("COUNT genes").scalar()
        assert products <= min(proteins, genes)


class TestRendering:
    def test_table_render(self, session):
        text = session.render("FIND genes SHOW accession, name LIMIT 3")
        assert "accession" in text
        assert "|" in text

    def test_fasta_render(self, session):
        text = session.render(
            "FIND genes SHOW accession, dna LIMIT 2 AS FASTA"
        )
        assert text.startswith(">")
        assert text.count(">") == 2

    def test_histogram_render(self, session):
        text = session.render(
            "FIND genes SHOW accession, gc AS HISTOGRAM OF gc"
        )
        assert "#" in text
        assert "(" in text

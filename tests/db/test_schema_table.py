"""Tests for schemas, constraint enforcement, and table storage."""

import pytest

from repro.db.index.hashindex import HashIndex
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.values import INTEGER, NULL, TEXT
from repro.errors import CatalogError, ConstraintError, DatabaseError, TypeCheckError


def make_schema(**kwargs):
    return TableSchema(
        "genes",
        [
            Column("id", INTEGER),
            Column("name", TEXT, not_null=True),
            Column("organism", TEXT, default="unknown"),
        ],
        **kwargs,
    )


class TestSchema:
    def test_column_lookup(self):
        schema = make_schema()
        assert schema.position("name") == 1
        assert schema.position("NAME") == 1  # case-insensitive
        assert schema.column_names == ("id", "name", "organism")

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            make_schema().position("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", INTEGER), Column("a", TEXT)])

    def test_empty_table_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [])

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            make_schema(primary_key="nope")

    def test_complete_row_applies_defaults(self):
        schema = make_schema()
        row = schema.complete_row({"id": 1, "name": "lacZ"})
        assert row == [1, "lacZ", "unknown"]

    def test_complete_row_unknown_column(self):
        with pytest.raises(CatalogError):
            make_schema().complete_row({"nope": 1})

    def test_validate_row_types(self):
        schema = make_schema()
        with pytest.raises(TypeCheckError):
            schema.validate_row(["x", "name", "org"])

    def test_validate_row_length(self):
        with pytest.raises(TypeCheckError):
            make_schema().validate_row([1, "x"])

    def test_not_null_enforced(self):
        with pytest.raises(ConstraintError):
            make_schema().validate_row([1, NULL, "org"])

    def test_primary_key_implies_not_null(self):
        schema = make_schema(primary_key="id")
        with pytest.raises(ConstraintError):
            schema.validate_row([NULL, "x", "org"])


class TestTable:
    @pytest.fixture
    def table(self):
        return Table(make_schema(primary_key="id", unique=("name",)))

    def test_insert_and_read(self, table):
        row_id = table.insert([1, "lacZ", "E. coli"])
        assert table.row(row_id) == [1, "lacZ", "E. coli"]
        assert len(table) == 1

    def test_insert_named_with_default(self, table):
        row_id = table.insert_named(id=1, name="lacZ")
        assert table.row(row_id)[2] == "unknown"

    def test_primary_key_uniqueness(self, table):
        table.insert([1, "a", "x"])
        with pytest.raises(ConstraintError):
            table.insert([1, "b", "y"])

    def test_unique_column(self, table):
        table.insert([1, "a", "x"])
        with pytest.raises(ConstraintError):
            table.insert([2, "a", "y"])

    def test_delete_releases_unique(self, table):
        row_id = table.insert([1, "a", "x"])
        table.delete(row_id)
        table.insert([1, "a", "x"])  # reusable after delete

    def test_update_same_key_allowed(self, table):
        row_id = table.insert([1, "a", "x"])
        table.update(row_id, [1, "a", "y"])
        assert table.row(row_id)[2] == "y"

    def test_update_to_conflicting_key_rejected(self, table):
        table.insert([1, "a", "x"])
        row_id = table.insert([2, "b", "y"])
        with pytest.raises(ConstraintError):
            table.update(row_id, [1, "b", "y"])

    def test_row_ids_stable_and_unique(self, table):
        first = table.insert([1, "a", "x"])
        table.delete(first)
        second = table.insert([2, "b", "x"])
        assert second != first

    def test_missing_row(self, table):
        with pytest.raises(DatabaseError):
            table.row(999)

    def test_truncate(self, table):
        table.insert([1, "a", "x"])
        table.truncate()
        assert len(table) == 0
        table.insert([1, "a", "x"])  # unique state also cleared


class TestTableIndexes:
    @pytest.fixture
    def table(self):
        return Table(make_schema())

    def test_attach_backfills(self, table):
        table.insert([1, "a", "x"])
        table.insert([2, "b", "y"])
        index = HashIndex("by_name", "genes", "name")
        table.attach_index(index)
        assert list(index.search_equal("a")) == [1]

    def test_index_maintained_on_mutations(self, table):
        index = HashIndex("by_name", "genes", "name")
        table.attach_index(index)
        row_id = table.insert([1, "a", "x"])
        assert list(index.search_equal("a")) == [row_id]
        table.update(row_id, [1, "b", "x"])
        assert list(index.search_equal("a")) == []
        assert list(index.search_equal("b")) == [row_id]
        table.delete(row_id)
        assert list(index.search_equal("b")) == []

    def test_duplicate_index_name(self, table):
        table.attach_index(HashIndex("i", "genes", "name"))
        with pytest.raises(DatabaseError):
            table.attach_index(HashIndex("i", "genes", "organism"))

    def test_detach(self, table):
        table.attach_index(HashIndex("i", "genes", "name"))
        table.detach_index("i")
        with pytest.raises(DatabaseError):
            table.detach_index("i")

    def test_indexes_on(self, table):
        index = HashIndex("i", "genes", "name")
        table.attach_index(index)
        assert table.indexes_on("name") == (index,)
        assert table.indexes_on("organism") == ()


class TestPutBack:
    def test_put_back_undoes_delete(self):
        table = Table(make_schema(primary_key="id"))
        index = HashIndex("i", "genes", "name")
        table.attach_index(index)
        for key, name in ((1, "a"), (2, "b"), (3, "c")):
            table.insert([key, name, "x"])
        undo = table.delete(2)
        assert list(index.search_equal("b")) == []
        table.insert([2, "b2", "y"])            # the key is free meanwhile
        table.delete(4)
        table.put_back(2, *undo)
        # Back under its own row id, in its scan position, in every index.
        assert [row_id for row_id, __ in table.rows()] == [1, 2, 3]
        assert table.row(2) == [2, "b", "x"]
        assert list(index.search_equal("b")) == [2]
        with pytest.raises(ConstraintError):
            table.insert([2, "zz", "x"])
        assert table.insert([5, "e", "x"]) == 5  # row ids never reused

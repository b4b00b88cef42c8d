"""Tests for the ontology DAG and signature derivation."""

import pytest

from repro.core.ontology import (
    Ontology,
    builtin_genomics_ontology,
    derive_signature,
    make_term,
    parse_binding,
)
from repro.errors import OntologyError


@pytest.fixture
def small_ontology():
    ontology = Ontology("small")
    ontology.add_term(make_term("T:0", "entity"))
    ontology.add_term(make_term("T:1", "sequence", synonyms=("seq",)))
    ontology.add_term(make_term("T:2", "dna sequence"))
    ontology.add_term(make_term("T:3", "chromosome"))
    ontology.relate("T:1", "is_a", "T:0")
    ontology.relate("T:2", "is_a", "T:1")
    ontology.relate("T:2", "part_of", "T:3")
    return ontology


class TestGraph:
    def test_duplicate_id_rejected(self, small_ontology):
        with pytest.raises(OntologyError):
            small_ontology.add_term(make_term("T:1", "other"))

    def test_homonym_policy(self, small_ontology):
        # "seq" is already a synonym of T:1 — a second concept may not
        # claim it (section 4.1's uniqueness requirement).
        with pytest.raises(OntologyError):
            small_ontology.add_term(make_term("T:9", "seq"))

    def test_find_by_name_and_synonym(self, small_ontology):
        assert small_ontology.find("sequence").term_id == "T:1"
        assert small_ontology.find("SEQ").term_id == "T:1"
        assert small_ontology.find("nothing") is None

    def test_same_concept(self, small_ontology):
        assert small_ontology.same_concept("sequence", "seq")
        assert not small_ontology.same_concept("sequence", "entity")

    def test_parents_children(self, small_ontology):
        assert [t.term_id for t in small_ontology.parents("T:2", "is_a")] \
            == ["T:1"]
        assert [t.term_id for t in small_ontology.children("T:0")] == ["T:1"]

    def test_ancestors_transitive(self, small_ontology):
        ancestor_ids = {t.term_id for t in small_ontology.ancestors("T:2")}
        assert ancestor_ids == {"T:1", "T:0", "T:3"}

    def test_descendants_transitive(self, small_ontology):
        descendant_ids = {
            t.term_id for t in small_ontology.descendants("T:0")
        }
        assert descendant_ids == {"T:1", "T:2"}

    def test_is_a_transitive(self, small_ontology):
        assert small_ontology.is_a("T:2", "T:0")
        assert not small_ontology.is_a("T:0", "T:2")

    def test_cycle_rejected(self, small_ontology):
        with pytest.raises(OntologyError):
            small_ontology.relate("T:0", "is_a", "T:2")

    def test_self_loop_rejected(self, small_ontology):
        with pytest.raises(OntologyError):
            small_ontology.relate("T:0", "is_a", "T:0")

    def test_unknown_relationship(self, small_ontology):
        with pytest.raises(OntologyError):
            small_ontology.relate("T:1", "develops_from", "T:0")

    def test_roots(self, small_ontology):
        assert {t.term_id for t in small_ontology.roots()} == {"T:0", "T:3"}

    def test_merge_disjoint(self, small_ontology):
        other = Ontology("other")
        other.add_term(make_term("X:1", "protein thing"))
        merged = small_ontology.merge(other)
        assert len(merged) == 5

    def test_merge_conflict_errors(self, small_ontology):
        other = Ontology("other")
        other.add_term(make_term("T:1", "sequence"))
        with pytest.raises(OntologyError):
            small_ontology.merge(other)
        merged = small_ontology.merge(other, on_conflict="skip")
        assert len(merged) == 4


class TestBindings:
    def test_parse_sort_binding(self):
        kind, spec = parse_binding("sort:gene")
        assert kind == "sort"
        assert spec == {"name": "gene"}

    def test_parse_op_binding(self):
        kind, spec = parse_binding("op:translate:mrna->protein")
        assert kind == "op"
        assert spec == {"name": "translate", "args": ["mrna"],
                        "result": "protein"}

    def test_parse_op_multiple_args(self):
        _, spec = parse_binding("op:f:a,b->c")
        assert spec["args"] == ["a", "b"]

    def test_bad_bindings(self):
        for bad in ("sort:", "op:f:nope", "weird:x"):
            with pytest.raises(OntologyError):
                parse_binding(bad)

    def test_derive_signature_from_builtin(self):
        signature = derive_signature(builtin_genomics_ontology())
        assert signature.has_sort("gene")
        assert signature.has_sort("mrna")
        operator = signature.resolve("translate", ("mrna",))
        assert operator.result_sort == "protein"

    def test_derive_rejects_dangling_sort(self):
        ontology = Ontology("broken")
        ontology.add_term(make_term(
            "B:1", "op only", algebra_binding="op:f:ghost->ghost"
        ))
        with pytest.raises(OntologyError):
            derive_signature(ontology)

    def test_paper_pipeline_sorts_present(self):
        # The signature derived from the ontology contains the paper's
        # mini algebra.
        signature = derive_signature(builtin_genomics_ontology())
        assert signature.resolve("transcribe", ("gene",)).result_sort \
            == "primarytranscript"
        assert signature.resolve("splice", ("primarytranscript",)
                                 ).result_sort == "mrna"

    def test_derived_signature_is_subset_of_built_algebra(self):
        """Section 4.2: the algebra is the executable instantiation of
        the ontology — everything the ontology binds must exist, with
        identical functionality, in the built Genomics Algebra."""
        from repro.core.algebra import genomics_algebra

        derived = derive_signature(builtin_genomics_ontology())
        algebra = genomics_algebra()
        for sort in derived.sorts:
            assert algebra.signature.has_sort(sort), sort
        for operator in derived.operators():
            resolved = algebra.signature.resolve(
                operator.name, operator.arg_sorts
            )
            assert resolved.result_sort == operator.result_sort
            assert algebra.is_bound(resolved), str(operator)

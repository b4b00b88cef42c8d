"""Genomics ontology: controlled vocabulary and signature derivation."""

from repro.core.ontology.graph import (
    IS_A,
    PART_OF,
    RELATIONSHIPS,
    Ontology,
    OntologyTerm,
    make_term,
)
from repro.core.ontology.mapping import (
    builtin_genomics_ontology,
    derive_signature,
    parse_binding,
)

__all__ = [
    "IS_A",
    "PART_OF",
    "RELATIONSHIPS",
    "Ontology",
    "OntologyTerm",
    "make_term",
    "builtin_genomics_ontology",
    "derive_signature",
    "parse_binding",
]

"""The Genomics Algebra: the paper's signature, instantiated and bound.

:func:`genomics_algebra` builds the full kernel algebra from two tables:
:data:`SORTS` gives every sort its carrier type, and :data:`OPERATORS`
declares every genomic operation and binds it to :mod:`repro.core.ops`.
It subsumes the paper's mini algebra::

    sorts  gene, primarytranscript, mrna, protein
    ops    transcribe: gene -> primarytranscript
           splice:     primarytranscript -> mrna
           translate:  mrna -> protein

so the running example ``translate(splice(transcribe(g)))`` parses,
sort-checks and evaluates.  Each operator has one spelling, SQL's: the
adapter registers every operator here as the SQL function of that name
(``gc_content(dna('GGCC'))`` is a term and a SQL expression alike).
The returned algebra is a fresh instance, so callers may extend it
(C13/C14) without affecting each other.
"""

from __future__ import annotations

from repro.core import ops
from repro.core.algebra.algebra import Algebra
from repro.core.algebra.signature import Signature
from repro.core.types import (
    Alternatives,
    Chromosome,
    DnaSequence,
    Gene,
    Genome,
    MRna,
    PrimaryTranscript,
    Protein,
    ProteinSequence,
    RnaSequence,
)

#: Sort name, description and carrier type of the built-in algebra.
SORTS = (
    ("bool", "truth values", bool),
    ("int", "integers", int),
    ("float", "real numbers", (int, float)),
    ("string", "character strings", str),
    ("dna", "DNA sequences (IUPAC, packed)", DnaSequence),
    ("rna", "RNA sequences (IUPAC, packed)", RnaSequence),
    ("protein_seq", "amino-acid sequences", ProteinSequence),
    ("gene", "genes with exon/intron structure", Gene),
    ("primarytranscript", "unspliced RNA transcripts", PrimaryTranscript),
    ("mrna", "mature messenger RNA", MRna),
    ("protein", "proteins (annotated amino-acid chains)", Protein),
    ("chromosome", "chromosomes", Chromosome),
    ("genome", "whole genomes", Genome),
    ("alternatives", "conflicting readings of one datum", Alternatives),
    ("value", "any value (a reading of alternatives)", object),
)

#: A tuple of sorts in a row stands for each of them in turn, in every
#: place it appears: ``(SEQ, SEQ)`` is ``dna × dna``, ``rna × rna`` and
#: ``protein_seq × protein_seq``.
SEQ = ("dna", "rna", "protein_seq")
NUC = ("dna", "rna")


def _orf_count(sequence, minimum=20):
    return len(ops.find_orfs(sequence, minimum))


#: Name, argument sorts, result sort, implementation and the annotations
#: the engine reads (section 6.5's predicate selectivities, page kernels).
OPERATORS = (
    # The paper's mini algebra (section 4.2).
    ("transcribe", ("gene",), "primarytranscript", ops.transcribe),
    ("splice", ("primarytranscript",), "mrna", ops.splice),
    ("translate", ("mrna",), "protein", ops.translate),
    ("express", ("gene",), "protein", ops.express),
    ("reverse_transcribe", ("mrna",), "dna", ops.reverse_transcribe),
    # Constructors: sequence values from text.
    ("dna", ("string",), "dna", ops.decode),
    ("rna", ("string",), "rna", ops.decode_rna),
    ("protein_seq", ("string",), "protein_seq", ops.decode_protein),
    # Sequence-level operations.
    ("complement", (NUC,), NUC, ops.complement),
    ("reverse_complement", (NUC,), NUC, ops.reverse_complement,
     {"kernel": "reverse_complement"}),
    ("gc_content", (SEQ,), "float", ops.gc_content, {"kernel": "gc_content"}),
    ("length", (SEQ,), "int", len),
    ("subsequence", ("dna", "int", "int"), "dna", lambda dna, i, j: dna[i:j]),
    ("concat", ("dna", "dna"), "dna", lambda first, second: first + second),
    ("seq_text", (SEQ,), "string", str),
    # Predicates (section 6.3) and motif search.
    ("contains", (SEQ, "string"), "bool", ops.contains,
     {"selectivity": 0.05, "kernel": "contains"}),
    ("contains", (SEQ, SEQ), "bool", ops.contains),
    ("resembles", (SEQ, SEQ), "bool", ops.resembles, {"selectivity": 0.10}),
    ("resembles", (SEQ, SEQ, "float"), "bool", ops.resembles),
    ("similarity", (SEQ, SEQ), "float", ops.cosine_similarity),
    ("similarity", (SEQ, SEQ, "int"), "float", ops.cosine_similarity),
    ("motif_count", (SEQ, "string"), "int", ops.count_occurrences),
    ("motif_count", (SEQ, SEQ), "int", ops.count_occurrences),
    ("motif_position", (SEQ, "string"), "int", ops.first_occurrence),
    ("motif_position", (SEQ, SEQ), "int", ops.first_occurrence),
    ("alignment_score", (SEQ, SEQ), "float",
     lambda first, second: ops.global_align(first, second).score),
    ("local_alignment_score", (SEQ, SEQ), "float",
     lambda first, second: ops.local_align(first, second).score),
    # Statistics / specialty evaluation functions (C14).
    ("melting_temperature", ("dna",), "float", ops.melting_temperature),
    ("molecular_weight", (SEQ,), "float", ops.molecular_weight),
    ("isoelectric_point", ("protein_seq",), "float", ops.isoelectric_point),
    ("hydropathy", ("protein_seq",), "float", ops.hydropathy),
    ("entropy", (SEQ,), "float", ops.shannon_entropy),
    ("orf_count", (SEQ,), "int", _orf_count),
    ("orf_count", (SEQ, "int"), "int", _orf_count),
    # Structure accessors.
    ("gene_name", ("gene",), "string", lambda gene: gene.name),
    ("gene_sequence", ("gene",), "dna", lambda gene: gene.sequence),
    ("gene_organism", ("gene",), "string", lambda gene: gene.organism),
    ("exon_count", ("gene",), "int", lambda gene: len(gene.exons)),
    ("exonic_length", ("gene",), "int", lambda gene: gene.exonic_length),
    ("protein_sequence", ("protein",), "protein_seq", lambda p: p.sequence),
    ("protein_name", ("protein",), "string", lambda p: p.name),
    ("gene_of", ("chromosome", "string"), "gene", Chromosome.gene),
    ("chromosome_of", ("genome", "string"), "chromosome", Genome.chromosome),
    # Conflicting readings kept side by side (C9).
    ("uncertain_best", ("alternatives",), "value", lambda a: a.best().value),
    ("uncertain_count", ("alternatives",), "int", len),
    ("uncertain_confidence", ("alternatives",), "float",
     lambda a: a.best().confidence),
)


def _overloads(arg_sorts: tuple, result_sort):
    """A row's ``(argument sorts, result sort)`` pairs, one per member of
    the sort tuple it ranges over (if any)."""
    family = next((sort for sort in (*arg_sorts, result_sort)
                   if isinstance(sort, tuple)), None)
    for member in family or (None,):
        pick = (lambda sort: member if sort is family else sort)
        yield tuple(map(pick, arg_sorts)), pick(result_sort)


def genomics_algebra() -> Algebra:
    """Build a fresh, fully bound Genomics Algebra instance."""
    algebra = Algebra(Signature("GenomicsAlgebra"))
    for name, description, carrier in SORTS:
        algebra.extend_sort(name, carrier, description)
    for name, arg_sorts, result_sort, function, *annotations in OPERATORS:
        for overload in _overloads(arg_sorts, result_sort):
            algebra.extend_operator(name, *overload, function,
                                    **dict(*annotations))
    return algebra

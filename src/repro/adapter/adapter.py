"""The DBMS-specific adapter of Figure 3.

"The adapter provides a DBMS-specific coupling mechanism between the ADTs
together with their operations in the Genomics Algebra and the DBMS
managing the Unifying Database.  The ADTs are plugged into the adapter by
using the user-defined data type (UDT) mechanism of the DBMS."
(section 6.2)

:class:`GenomicsAdapter.install` does exactly that against our engine:

- every GDT becomes an **opaque UDT** with its compact serializer, so
  columns can be declared ``fragment DNA`` or ``g GENE``;
- every algebra operation becomes a **UDF** usable anywhere an expression
  may occur (section 6.3), with selectivity estimates for the predicates
  so the optimizer can price genomic access paths (section 6.5);
- constructor functions (``dna('ATTG…')``) let SQL text create GDT values.

After installation the paper's example runs verbatim::

    SELECT id FROM dna_fragments WHERE contains(fragment, 'ATTGCCATA')
"""

from __future__ import annotations

import math

from repro.adapter import serializers
from repro.core import ops
from repro.core.algebra import Algebra, genomics_algebra
from repro.core.ops.similarity import kmer_cosine, kmer_vector
from repro.core.ops.stats import declared
from repro.core.types import (
    Alternatives,
    DnaSequence,
    Gene,
    MRna,
    PackedSequence,
    PrimaryTranscript,
    Protein,
    ProteinSequence,
    RnaSequence,
)
from repro.db import Database, OpaqueType
from repro.db.sql.functions import null_safe
from repro.errors import TypeCheckError

#: Selectivity estimates for the genomic predicates (section 6.5).  A
#: short motif is found in most long sequences; these defaults are the
#: calibration the ablation benchmark (A4) sweeps.
CONTAINS_SELECTIVITY = 0.05
RESEMBLES_SELECTIVITY = 0.10


def _sequence_udts() -> list[OpaqueType]:
    return [
        OpaqueType("DNA", DnaSequence,
                   serializers.serialize_sequence,
                   serializers.deserialize_dna),
        OpaqueType("RNA", RnaSequence,
                   serializers.serialize_sequence,
                   serializers.deserialize_rna),
        OpaqueType("PROTEIN_SEQ", ProteinSequence,
                   serializers.serialize_sequence,
                   serializers.deserialize_protein_sequence),
        OpaqueType("GENE", Gene,
                   serializers.serialize_gene,
                   serializers.deserialize_gene),
        OpaqueType("TRANSCRIPT", PrimaryTranscript,
                   serializers.serialize_transcript,
                   serializers.deserialize_transcript),
        OpaqueType("MRNA", MRna,
                   serializers.serialize_mrna,
                   serializers.deserialize_mrna),
        OpaqueType("PROTEIN", Protein,
                   serializers.serialize_protein,
                   serializers.deserialize_protein),
        OpaqueType("ALTERNATIVES", Alternatives,
                   serializers.serialize_alternatives,
                   serializers.deserialize_alternatives),
    ]


# A stored value never changes and the engine calls the algebra once per
# cell, so what a function derives from its stored operand alone is kept
# on that value (``PackedSequence.derive``), keyed by the core operation.
# A minimum or k other than the default computes afresh and keeps nothing.
ORF_MINIMUM, KMER_K = 20, 4


def _memoized(operation):
    return lambda value: (value.derive(operation, operation)
                          if isinstance(value, PackedSequence)
                          else operation(value))


def _checked(function: str, argument: str, value, kind=(int, float)):
    if not isinstance(value, kind):
        raise TypeCheckError(
            f"{function}(): argument {argument!r} must be "
            f"{'an integer' if kind is int else 'a number'}, not {value!r}")


def _orf_count(dna, minimum=ORF_MINIMUM):
    _checked("orf_count", "minimum", minimum)
    if minimum != ORF_MINIMUM or not isinstance(dna, PackedSequence):
        return len(ops.find_orfs(dna, minimum))
    return dna.derive(ops.find_orfs,
                      lambda value: len(ops.find_orfs(value, ORF_MINIMUM)))


def _cosine(first, second, k: int, floor: float) -> float:
    if k == KMER_K and isinstance(first, PackedSequence):
        vector = first.derive(kmer_cosine,
                              lambda value: kmer_vector(value, None, k))
    else:
        vector = kmer_vector(first, second, k)
    return kmer_cosine(vector, second, floor)


def _resembles(first, second, threshold=0.7):
    _checked("resembles", "threshold", threshold)  # not part of the fact
    return _cosine(first, second, KMER_K, threshold) >= threshold


def _similarity(first, second, k=KMER_K):
    _checked("similarity", "k", k, int)
    return _cosine(first, second, k, -math.inf)


def _registrar(database: Database):
    """``register(name, function, **options)`` for one database: every
    adapter function is NULL-in → NULL-out, like the engine's builtins —
    a NULL predicate filters its row and an aggregate skips the cell."""
    def register(name: str, function, **options) -> None:
        database.register_function(name, null_safe(function), **options)
    return register


class GenomicsAdapter:
    """Registers the Genomics Algebra with a :class:`~repro.db.Database`."""

    def __init__(self, algebra: Algebra | None = None) -> None:
        self.algebra = algebra or genomics_algebra()

    def install(self, database: Database) -> None:
        """Plug every GDT and genomic operation into *database*."""
        for opaque in _sequence_udts():
            database.register_type(opaque)
        self._register_constructors(database)
        self._register_predicates(database)
        self._register_operations(database)
        self._register_accessors(database)

    # -- constructors -------------------------------------------------------------

    def _register_constructors(self, database: Database) -> None:
        register = _registrar(database)
        register("dna", lambda text: ops.decode(text),
                 description="build a DNA value from text")
        register("rna", lambda text: ops.decode_rna(text),
                 description="build an RNA value from text")
        register("protein_seq", lambda text: ops.decode_protein(text),
                 description="build a protein sequence from text")
        register("uncertain_best",
                 lambda alternatives: alternatives.best().value,
                 description="highest-confidence reading of ALTERNATIVES")
        register("uncertain_count",
                 lambda alternatives: len(alternatives),
                 description="number of conflicting readings")
        register("uncertain_confidence",
                 lambda alternatives: alternatives.best().confidence,
                 description="confidence of the best reading")

    # -- predicates (section 6.3) ---------------------------------------------------

    def _register_predicates(self, database: Database) -> None:
        register = _registrar(database)
        register(
            "contains",
            lambda sequence, pattern: ops.contains(sequence, pattern),
            selectivity=CONTAINS_SELECTIVITY,
            description="true when the sequence contains the motif "
                        "(IUPAC-ambiguity aware)",
            kernel="contains",
        )
        register(
            "resembles",
            _resembles,
            selectivity=RESEMBLES_SELECTIVITY,
            description="k-mer cosine similarity above threshold",
        )
        register(
            "motif_count",
            lambda sequence, pattern:
                ops.count_occurrences(sequence, pattern),
            description="number of motif occurrences",
        )
        register(
            "motif_position",
            lambda sequence, pattern:
                ops.first_occurrence(sequence, pattern),
            description="first motif position or -1",
        )

    # -- algebra operations ------------------------------------------------------------

    def _register_operations(self, database: Database) -> None:
        register = _registrar(database)
        register("transcribe", ops.transcribe,
                 description="gene -> primary transcript")
        register("splice", ops.splice,
                 description="primary transcript -> mRNA")
        register("translate", ops.translate,
                 description="mRNA -> protein")
        register("express", ops.express,
                 description="gene -> protein (the composed pipeline)")
        register("reverse_transcribe", ops.reverse_transcribe,
                 description="mRNA -> cDNA")
        register("complement", ops.complement,
                 description="base-wise complement")
        register("reverse_complement", ops.reverse_complement,
                 description="opposite strand, 5'->3'",
                 kernel="reverse_complement")
        # Not memoized: one C translate, cheaper than the memo it would
        # keep on every value of a row-table scan; pages have its kernel.
        register("gc_content", ops.gc_content,
                 description="GC fraction",
                 kernel="gc_content")
        register("melting_temperature",
                 _memoized(ops.melting_temperature),
                 description="estimated Tm in Celsius")
        register("molecular_weight", _memoized(ops.molecular_weight),
                 description="average molecular weight (Da)")
        register("isoelectric_point", _memoized(ops.isoelectric_point),
                 description="pI of a protein sequence")
        register("hydropathy", _memoized(ops.hydropathy),
                 description="Kyte-Doolittle GRAVY score")
        register("entropy", _memoized(ops.shannon_entropy),
                 description="per-symbol Shannon entropy (bits)")
        register("orf_count", _orf_count,
                 description="number of complete ORFs (both strands)")
        register("alignment_score",
                 lambda a, b: ops.global_align(a, b).score,
                 description="Needleman-Wunsch global alignment score")
        register("local_alignment_score",
                 lambda a, b: ops.local_align(a, b).score,
                 description="Smith-Waterman local alignment score")
        register("similarity", _similarity,
                 description="k-mer cosine similarity in [0, 1]")

    # -- accessors ----------------------------------------------------------------------

    def _register_accessors(self, database: Database) -> None:
        register = _registrar(database)
        register("seq_text", lambda value: str(value),
                 description="textual form of any sequence value")
        register("gene_name",
                 lambda gene: declared("gene_name", gene, Gene).name,
                 description="name of a GENE value")
        register("gene_sequence",
                 lambda gene: declared("gene_sequence", gene, Gene).sequence,
                 description="genomic DNA of a GENE value")
        register("gene_organism",
                 lambda gene: declared("gene_organism", gene, Gene).organism,
                 description="organism of a GENE value")
        register("exon_count",
                 lambda gene: len(declared("exon_count", gene, Gene).exons),
                 description="number of exons")
        register("exonic_length", lambda gene: declared(
                     "exonic_length", gene, Gene).exonic_length,
                 description="summed exon length")
        register("protein_sequence", lambda protein: declared(
                     "protein_sequence", protein, Protein).sequence,
                 description="amino-acid chain of a PROTEIN value")
        register("protein_name",
                 lambda protein: declared("protein_name", protein,
                                          Protein).name,
                 description="name of a PROTEIN value")


def install_genomics(database: Database) -> GenomicsAdapter:
    """Convenience: install a fresh adapter into *database* and return it."""
    adapter = GenomicsAdapter()
    adapter.install(database)
    return adapter

"""The DBMS-specific adapter of Figure 3.

"The adapter provides a DBMS-specific coupling mechanism between the ADTs
together with their operations in the Genomics Algebra and the DBMS
managing the Unifying Database.  The ADTs are plugged into the adapter by
using the user-defined data type (UDT) mechanism of the DBMS."
(section 6.2)

:class:`GenomicsAdapter.install` does exactly that against our engine:

- every GDT becomes an **opaque UDT** with its compact serializer, so
  columns can be declared ``fragment DNA`` or ``g GENE``;
- every operator of the algebra's signature becomes **one UDF** of its
  name, usable anywhere an expression may occur (section 6.3): the SQL
  catalog is the image of the signature.  The UDF is NULL-in → NULL-out,
  picks the overload whose carriers hold its arguments and refuses any
  other with the signature's own :class:`~repro.errors.SortMismatchError`;
  the predicates carry selectivity estimates for the optimizer (6.5).

After installation the paper's example runs verbatim::

    SELECT id FROM dna_fragments WHERE contains(fragment, 'ATTGCCATA')
"""

from __future__ import annotations

import math

from repro.adapter import serializers as codec
from repro.core.algebra import Algebra, genomics_algebra
from repro.core.algebra.signature import Operator
from repro.core.ops.similarity import kmer_cosine, kmer_vector
from repro.core.types import (DnaSequence, Protein, ProteinSequence,
                               RnaSequence)
from repro.db import Database, OpaqueType
from repro.db.values import NULL
from repro.errors import TypeCheckError

#: Each GDT sort's UDT: its SQL type name and compact serializer.
UDTS = {
    "dna": ("DNA", codec.serialize_sequence, DnaSequence.from_bytes),
    "rna": ("RNA", codec.serialize_sequence, RnaSequence.from_bytes),
    "protein_seq": ("PROTEIN_SEQ", codec.serialize_sequence,
                    ProteinSequence.from_bytes),
    "gene": ("GENE", codec.serialize_gene, codec.deserialize_gene),
    "primarytranscript": ("TRANSCRIPT", codec.serialize_transcript,
                          codec.deserialize_transcript),
    "mrna": ("MRNA", codec.serialize_mrna, codec.deserialize_mrna),
    "protein": ("PROTEIN", codec.serialize_protein, codec.deserialize_protein),
    "alternatives": ("ALTERNATIVES", codec.serialize_alternatives,
                     codec.deserialize_alternatives),
}

#: Operators the engine answers itself: its ``length`` takes text and
#: every sequence sort.
ANSWERED_BY_THE_ENGINE = ("length",)


# A stored value never changes and the engine calls the algebra once per
# cell, so what a function derives from its stored operand alone is kept
# on that value (``PackedSequence.derive``), keyed by the core operation.
# A minimum or k other than the default computes afresh and keeps nothing.
KMER_K = 4

#: Unary operators whose answer is kept on their operand; not ``gc_content``
#: (one C translate, cheaper than a memo on every value of a row scan).
FACTS = ("melting_temperature", "molecular_weight", "isoelectric_point",
         "hydropathy", "entropy", "orf_count")


def _cosine(first, second, k: int, floor: float) -> float:
    if k == KMER_K:
        vector = first.derive(kmer_cosine,
                              lambda value: kmer_vector(value, None, k))
    else:
        vector = kmer_vector(first, second, k)
    return kmer_cosine(vector, second, floor)


def _resembles(first, second, threshold=0.7):
    return _cosine(first, second, KMER_K, threshold) >= threshold


def _similarity(first, second, k=KMER_K):
    return _cosine(first, second, k, -math.inf)


def _expressed(express):
    """``express`` of a stored gene, its protein's residues kept on the
    gene's sequence under its exons (a gene whose exons are reassigned
    asks afresh); the ``Protein`` is built anew from the calling gene."""
    def call(gene):
        residues = gene.sequence.derive(
            (express, tuple(gene.exons)), lambda __: express(gene).sequence)
        return Protein(residues, gene_name=gene.name, name=(
            f"{gene.name} protein" if gene.name else None))
    return call


def _memoized(operator: Operator, function):
    """What SQL calls for *operator*'s bound *function*: the function
    itself, unless the operator keeps a fact on its stored operand."""
    if operator.name in FACTS and operator.arity == 1:
        return lambda value: value.derive(function, function)
    if operator.name == "express":
        return _expressed(function)
    return {"resembles": _resembles,
            "similarity": _similarity}.get(operator.name, function)


_ABSENT = object()  # an argument the call did not pass


def _arity(arity: int, rows: list, refuse, wider):
    """The SQL function over one arity's ``(*carriers, function)`` rows:
    the first row whose carriers hold every argument answers, else NULL
    for a NULL argument, else a refusal; another number of arguments goes
    to *wider*.  It runs per cell: a first row of arity 1 or 2 is inline."""
    (*carriers, function) = rows[0]
    others = rows[1:] if arity in (1, 2) else rows  # past the inline row

    def slow(*arguments):
        if len(arguments) != arity:
            return wider(*arguments)
        for *classes, answer in others:
            if all(map(isinstance, arguments, classes)):
                return answer(*arguments)
        if any(argument is NULL for argument in arguments):
            return NULL
        return refuse(*arguments)

    if arity == 1:
        (first,) = carriers

        def call(a=_ABSENT, *rest):
            if isinstance(a, first) and not rest:
                return function(a)
            return slow(a, *rest)
        return call
    if arity == 2:
        first, second = carriers

        def call(a=_ABSENT, b=_ABSENT, *rest):
            if isinstance(a, first) and isinstance(b, second) and not rest:
                return function(a, b)
            return slow(a, b, *rest)
        return call
    return slow


class GenomicsAdapter:
    """Registers the Genomics Algebra with a :class:`~repro.db.Database`."""

    def __init__(self, algebra: Algebra | None = None) -> None:
        self.algebra = algebra or genomics_algebra()

    def install(self, database: Database) -> None:
        """Plug every GDT and every operator of the algebra into
        *database*: one UDF per operator name, described by its
        signature and annotated as its overloads are."""
        for sort, (name, serialize, deserialize) in UDTS.items():
            database.register_type(OpaqueType(
                name, self.algebra.carrier(sort), serialize, deserialize))
        signature = self.algebra.signature
        for name in dict.fromkeys(op.name for op in signature.operators()):
            if name in ANSWERED_BY_THE_ENGINE:
                continue
            overloads = signature.overloads(name)
            annotations = {key: value for operator in overloads
                           for key, value in operator.annotations.items()}
            database.register_function(
                name, self._function(name, overloads),
                description="; ".join(map(str, overloads)), **annotations)

    def _function(self, name: str, overloads: tuple[Operator, ...]):
        """The one SQL function for *name*: it dispatches on the carriers
        of its arguments, and refuses what no overload holds."""
        algebra = self.algebra
        rows: dict[int, dict] = {}
        for operator in overloads:
            function = algebra.function_for(operator)
            carriers = list(map(algebra.carrier, operator.arg_sorts))
            key, table = operator, rows.setdefault(operator.arity, {})
            if operator.arity == 1:  # one row per implementation, over
                key = function        # the union of its overloads' carriers
                carriers = [table.get(key, ((),))[0] + carriers[0]]
            table[key] = (*carriers, _memoized(operator, function))

        def refuse(*arguments):
            arguments = [value for value in arguments if value is not _ABSENT]
            for operator in overloads:  # a scalar where a number belongs
                wrong = [(place, sort, value) for place, (sort, value)
                         in enumerate(zip(operator.arg_sorts, arguments), 1)
                         if not algebra.in_carrier(value, sort)]
                if operator.arity == len(arguments) and wrong and all(
                        sort in ("int", "float")
                        and isinstance(value, (str, int, float))
                        for __, sort, value in wrong):
                    place, sort, value = wrong[0]
                    raise TypeCheckError(f"{name}(): argument {place} must "
                                         f"be {sort}, not {value!r}")
            raise algebra.signature.refusal(
                name, map(algebra.sort_of, arguments))

        def wider(*arguments):
            return calls.get(len(arguments), refuse)(*arguments)
        calls = {arity: _arity(arity, list(table.values()), refuse, wider)
                 for arity, table in rows.items()}
        return calls[min(calls)]


def install_genomics(database: Database) -> GenomicsAdapter:
    """Convenience: install a fresh adapter into *database* and return it."""
    adapter = GenomicsAdapter()
    adapter.install(database)
    return adapter

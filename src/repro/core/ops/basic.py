"""Elementary genomic operations: complement, GC content, decoding raw text.

These are the small building blocks of the algebra — operations whose
signature is a single sequence (or raw repository text) in and a sequence
or scalar out.
"""

from __future__ import annotations

from repro.core.ops._tables import (
    DECODE_DELETIONS,
    STRONG,
    WEAK,
    symbol_tables,
)
from repro.core.types.sequence import (
    DnaSequence,
    PackedSequence,
    ProteinSequence,
    RnaSequence,
)
from repro.errors import SequenceError


def _complement_codes(sequence: PackedSequence) -> bytes:
    table = symbol_tables(sequence.alphabet).complement
    if table is None:
        raise SequenceError(
            f"cannot complement a {sequence.alphabet.name} sequence"
        )
    return sequence.codes().translate(table)


def complement(sequence: PackedSequence) -> PackedSequence:
    """The base-wise complement (same orientation)."""
    return type(sequence).from_codes(_complement_codes(sequence))


def reverse_complement(sequence: PackedSequence) -> PackedSequence:
    """The reverse complement — the opposite strand read 5'→3'."""
    return type(sequence).from_codes(_complement_codes(sequence)[::-1])


def gc_content(sequence: PackedSequence) -> float:
    """Fraction of G and C bases among concrete (non-ambiguous) bases.

    S (which stands for G or C) counts as GC; other ambiguity codes and
    gaps are excluded from the denominator.
    """
    classes = sequence.codes().translate(
        symbol_tables(sequence.alphabet).gc_classes)
    gc = classes.count(STRONG)
    total = gc + classes.count(WEAK)
    return gc / total if total else 0.0


def base_composition(sequence: PackedSequence) -> dict[str, int]:
    """Counts of every symbol that occurs in the sequence."""
    alphabet, codes = sequence.alphabet, sequence.codes()
    present = alphabet.decode(bytes(set(codes)))
    return {symbol: codes.count(alphabet.code(symbol))
            for symbol in sorted(present)}


def decode(raw: str) -> DnaSequence:
    """Decode raw repository sequence text into a DNA value.

    Repository flat files ship sequence as numbered, whitespace-broken,
    lower-case blocks (GenBank's ``ORIGIN`` section).  ``decode`` strips
    digits, whitespace and separators and validates the remainder against
    the IUPAC DNA alphabet — this is the paper's ``decode`` operation: the
    step from low-level repository text to a high-level GDT value.
    """
    return DnaSequence(raw.translate(DECODE_DELETIONS))


def decode_rna(raw: str) -> RnaSequence:
    """Like :func:`decode` but for RNA text."""
    return RnaSequence(raw.translate(DECODE_DELETIONS))


def decode_protein(raw: str) -> ProteinSequence:
    """Like :func:`decode` but for amino-acid text."""
    return ProteinSequence(raw.translate(DECODE_DELETIONS))


def dna_to_rna(dna: DnaSequence) -> RnaSequence:
    """Re-letter a DNA sequence as RNA (T → U), preserving ambiguity codes."""
    # T and U share a code, as does every other base (see ``_tables``).
    return RnaSequence.from_codes(dna.codes())


def rna_to_dna(rna: RnaSequence) -> DnaSequence:
    """Re-letter an RNA sequence as DNA (U → T), preserving ambiguity codes."""
    return DnaSequence.from_codes(rna.codes())

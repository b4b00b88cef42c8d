"""Open-reading-frame discovery and six-frame translation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ops._tables import OPEN_FRAME, UNTRANSLATABLE
from repro.core.ops.basic import _complement_codes
from repro.core.ops.codon import CodonTable, STANDARD
from repro.core.types.annotation import FORWARD, REVERSE
from repro.core.types.sequence import DnaSequence, ProteinSequence


@dataclass(frozen=True)
class OpenReadingFrame:
    """An ORF: start/end on the *forward* strand, frame, and its protein.

    ``frame`` is 0, 1 or 2; ``strand`` is +1 or -1.  ``start``/``end`` are
    0-based half-open coordinates on the input (forward) sequence, so a
    reverse-strand ORF still reports where it sits on the given sequence.
    """

    start: int
    end: int
    strand: int
    frame: int
    protein: ProteinSequence


def _read_frame(codes: bytes, frame: int, table: CodonTable
                ) -> "tuple[bytes, bytes]":
    """One frame read end to end: a whole-sequence scan is total over its
    alphabet, so a codon with no translation (one holding a gap) reads
    ``X`` — and, being neither start nor stop, is read through."""
    residues, classes = table.lookup.read(codes, frame)
    return residues.replace(UNTRANSLATABLE, b"X"), classes


def _scan_strand(
    codes: bytes,
    strand: int,
    table: CodonTable,
    min_protein_length: int,
) -> list[OpenReadingFrame]:
    found: list[OpenReadingFrame] = []
    for frame in range(3):
        residues, classes = _read_frame(codes, frame, table)
        position = 0
        while (match := OPEN_FRAME.search(classes, position)) is not None:
            first, stop = match.span()
            if stop - first < min_protein_length:
                # Every start nested in this one is shorter still; the
                # stop codon itself may be a start (a code can say so).
                position = stop
                continue
            position = stop + 1  # resume after the stop codon
            start, end = frame + 3 * first, frame + 3 * position
            if strand == REVERSE:
                start, end = len(codes) - end, len(codes) - start
            found.append(OpenReadingFrame(
                start=start,
                end=end,
                strand=strand,
                frame=frame,
                protein=ProteinSequence(
                    "M" + residues[first + 1:stop].decode("ascii")),
            ))
    return found


def find_orfs(
    dna: DnaSequence,
    min_protein_length: int = 20,
    table: CodonTable = STANDARD,
    both_strands: bool = True,
) -> list[OpenReadingFrame]:
    """Find complete ORFs (start codon … stop codon) on one or both strands.

    Overlapping ORFs in different frames are all reported; within a frame,
    scanning resumes after each stop so nested starts inside a reported ORF
    are not re-reported.  Results are ordered by forward-strand start.

    A stop is any codon that translates to ``*`` (``TAR`` as much as
    ``TAA``); a start is a codon spelt exactly as one of the table's start
    codons; a codon holding a gap is neither and reads ``X``.
    """
    orfs = _scan_strand(dna.codes(), FORWARD, table, min_protein_length)
    if both_strands:
        orfs.extend(_scan_strand(
            _complement_codes(dna)[::-1], REVERSE, table,
            min_protein_length,
        ))
    return sorted(orfs, key=lambda orf: (orf.start, orf.end, orf.strand))


def six_frame_translation(
    dna: DnaSequence, table: CodonTable = STANDARD
) -> dict[tuple[int, int], ProteinSequence]:
    """Translate all six reading frames end to end (stops kept as ``*``).

    Returns a mapping ``(strand, frame) -> protein`` with strand +1/-1 and
    frame 0/1/2.  Like :func:`find_orfs` it reads a gapped codon as ``X``.
    """
    return {
        (strand, frame): ProteinSequence(
            _read_frame(codes, frame, table)[0].decode("ascii"))
        for strand, codes in (
            (FORWARD, dna.codes()),
            (REVERSE, _complement_codes(dna)[::-1]),
        )
        for frame in range(3)
    }

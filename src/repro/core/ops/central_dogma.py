"""The central-dogma operations of the mini algebra in section 4.2.

The paper's illustrative signature is::

    sorts  gene, primarytranscript, mrna, protein
    ops    transcribe:  gene              -> primarytranscript
           splice:      primarytranscript -> mrna
           translate:   mrna              -> protein

so that ``translate(splice(transcribe(g)))`` yields the protein a gene
codes for.  This module implements exactly those operations (plus
``reverse_transcribe`` and the ``express`` composition) over the GDT
values in :mod:`repro.core.types.entities`.

The paper notes (section 4.3) that the *operational* semantics of splicing
is biologically unknown — the cell computes it, we cannot.  Our ``splice``
therefore follows the procedure biologists use in practice: it relies on
the annotated exon structure carried by the transcript, which is how every
real annotation pipeline sidesteps the same gap in knowledge.
"""

from __future__ import annotations

from repro.core.ops._tables import START, START_AND_STOP, UNTRANSLATABLE
from repro.core.ops.basic import dna_to_rna, rna_to_dna
from repro.core.ops.codon import CodonTable, STANDARD
from repro.core.ops.stats import declared
from repro.core.types.alphabet import RNA
from repro.core.types.annotation import Interval
from repro.core.types.entities import Gene, MRna, PrimaryTranscript, Protein
from repro.core.types.sequence import DnaSequence, ProteinSequence, RnaSequence
from repro.errors import TranslationError


def transcribe(gene: Gene) -> PrimaryTranscript:
    """Copy a gene into its primary (unspliced) RNA transcript.

    The gene value is already in coding orientation, so transcription is a
    re-lettering of the full genomic span, introns included, with the exon
    layout carried along for :func:`splice`.
    """
    declared("transcribe", gene, Gene)
    return PrimaryTranscript(
        rna=dna_to_rna(gene.sequence),
        exons=gene.exons,
        gene_name=gene.name,
    )


def splice(transcript: PrimaryTranscript) -> MRna:
    """Remove the introns of a primary transcript, yielding mature mRNA."""
    declared("splice", transcript, PrimaryTranscript)
    codes = transcript.rna.codes()
    exonic = b"".join(
        codes[exon.start:exon.end] for exon in transcript.exons
    )
    return MRna(
        rna=RnaSequence.from_codes(exonic),
        gene_name=transcript.gene_name,
    )


def _protein(codes: bytes, cds: "Interval | None", table: CodonTable,
             to_stop: bool, gene_name: "str | None") -> Protein:
    """The protein an mRNA's *codes* code for, as :func:`translate` reads
    them: its CDS, or the first start codon to the end."""
    if cds is None:
        found = [at for at in map(codes.find, table.lookup.start_codes)
                 if at != -1]
        if not found:
            raise TranslationError(
                "mRNA has no start codon and no annotated CDS"
            )
        cds = Interval(min(found), len(codes))
    codes = codes[cds.start:cds.end]
    if len(codes) < 3:
        raise TranslationError("coding region shorter than one codon")

    residues, classes = table.lookup.read(codes)
    # Alternative start codons are read as methionine in vivo.
    opening = classes[0] in (START, START_AND_STOP)
    if opening:
        residues = b"M" + residues[1:]
    if to_stop:
        stop = residues.find(b"*", opening)
        if stop != -1:
            residues = residues[:stop]
    unread = residues.find(UNTRANSLATABLE)
    if unread != -1:
        codon = RNA.decode(codes[3 * unread:3 * unread + 3])
        raise TranslationError(f"untranslatable codon {codon!r}")
    return Protein(
        sequence=ProteinSequence(residues.decode("ascii")),
        gene_name=gene_name,
        name=f"{gene_name} protein" if gene_name else None,
    )


def translate(
    mrna: MRna,
    table: CodonTable = STANDARD,
    to_stop: bool = True,
) -> Protein:
    """Translate a mature mRNA into its protein.

    Uses the annotated CDS when the mRNA carries one, otherwise scans for
    the first start codon (which always translates to ``M``).  Translation
    proceeds codon by codon and, when ``to_stop`` is true (the default),
    ends at the first stop codon; with ``to_stop`` false the stop is kept
    as ``*`` and translation continues to the last full codon.
    """
    declared("translate", mrna, MRna)
    return _protein(mrna.rna.codes(), mrna.cds, table, to_stop,
                    mrna.gene_name)


def reverse_transcribe(mrna: MRna) -> DnaSequence:
    """Produce the cDNA of a mature mRNA (re-lettering U → T)."""
    declared("reverse_transcribe", mrna, MRna)
    return rna_to_dna(mrna.rna)


def express(gene: Gene, table: CodonTable = STANDARD) -> Protein:
    """The composition the paper uses as its running example.

    ``express(g) == translate(splice(transcribe(g)))``, read off the
    gene's codes: DNA and RNA share them, so its exons' are the mRNA's.
    """
    declared("express", gene, Gene)
    codes = gene.sequence.codes()
    exonic = b"".join(codes[exon.start:exon.end] for exon in gene.exons)
    return _protein(exonic, None, table, True, gene.name)

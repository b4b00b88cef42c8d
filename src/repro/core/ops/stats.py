"""Physico-chemical and statistical sequence properties.

The "specialty evaluation functions" of requirement C14: melting
temperature, molecular weight, isoelectric point, hydropathy, codon usage.
All are standard textbook formulas, implemented directly so they can be
registered as UDFs in the Unifying Database.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import accumulate, repeat
from operator import add, sub, truediv

from repro.core.ops._tables import (
    HYDROPATHY,
    PKA_C_TERMINUS,
    PKA_N_TERMINUS,
    PKA_NEGATIVE,
    PKA_POSITIVE,
    UNSCORED,
    mass_table,
    symbol_tables,
)
from repro.core.ops.codon import CodonTable, STANDARD
from repro.core.types.entities import Gene, MRna, PrimaryTranscript, Protein
from repro.core.types.sequence import (
    DnaSequence,
    PackedSequence,
    ProteinSequence,
    RnaSequence,
)
from repro.errors import SequenceError, SortMismatchError, TranslationError

#: Each carrier class's sort in the algebra's signature.
_SORTS = {DnaSequence: "dna", RnaSequence: "rna", str: "string",
          ProteinSequence: "protein_seq", Gene: "gene", MRna: "mrna",
          PrimaryTranscript: "primarytranscript", Protein: "protein"}


def declared(operation: str, value: object, klass: type):
    """*value*, if of *klass*, *operation*'s declared sort; else refused."""
    if not isinstance(value, klass):
        given = _SORTS.get(type(value), type(value).__name__)
        raise SortMismatchError(
            f"{operation} is declared over {_SORTS[klass]}, not {given}")
    return value


def melting_temperature(dna: DnaSequence) -> float:
    """Estimated Tm in °C.

    Wallace rule (2·AT + 4·GC) for primers up to 13 nt; the GC-fraction
    formula ``64.9 + 41·(GC − 16.4/N)`` for longer sequences.  Ambiguous
    bases contribute their expected value by treating S as GC and W as AT;
    other ambiguity codes count half.
    """
    declared("melting_temperature", dna, DnaSequence)
    codes = dna.codes()
    if not codes:
        raise SequenceError("cannot compute Tm of an empty sequence")
    tables = symbol_tables(dna.alphabet)
    gc = len(codes.translate(None, tables.not_strong))
    at = len(codes.translate(None, tables.not_weak_dna))
    other = len(codes) - gc - at
    gc_effective = gc + other / 2
    at_effective = at + other / 2
    if len(codes) < 14:
        return 2.0 * at_effective + 4.0 * gc_effective
    return 64.9 + 41.0 * (gc_effective - 16.4) / len(codes)


def molecular_weight(sequence: PackedSequence) -> float:
    """Average molecular weight in Daltons.

    Ambiguous symbols contribute the mean mass of their expansions; gaps
    contribute nothing.
    """
    table = mass_table(sequence.alphabet)
    weighed = sequence.codes().translate(None, table.massless)
    if not weighed:
        return 0.0
    # A left fold in sequence order: the sum a reader adding residue by
    # residue gets, to the last bit.
    total = reduce(add, map(table.masses.__getitem__, weighed), 0.0)
    return total + table.terminal


def _net_charge(
    positive: "list[tuple[int, float]]",
    negative: "list[tuple[int, float]]",
    ph: float,
) -> float:
    """Net charge at *ph* given ``(count, pKa)`` of each charged residue."""
    plus = minus = 0
    for count, pka in positive:
        plus += count / (1.0 + 10.0 ** (ph - pka))
    plus += 1.0 / (1.0 + 10.0 ** (ph - PKA_N_TERMINUS))
    for count, pka in negative:
        minus += count / (1.0 + 10.0 ** (pka - ph))
    minus += 1.0 / (1.0 + 10.0 ** (PKA_C_TERMINUS - ph))
    return plus - minus


def isoelectric_point(protein: ProteinSequence) -> float:
    """The pH at which the protein's net charge is zero (bisection)."""
    declared("isoelectric_point", protein, ProteinSequence)
    if not len(protein):
        raise SequenceError("cannot compute pI of an empty protein")
    codes = protein.codes()
    # A residue the protein lacks adds exactly 0.0 to its sum: leave it out.
    positive = [(count, pka) for code, pka in PKA_POSITIVE
                if (count := codes.count(code))]
    negative = [(count, pka) for code, pka in PKA_NEGATIVE
                if (count := codes.count(code))]
    low, high = 0.0, 14.0
    for _ in range(60):
        if round(low, 3) == round(high, 3):
            break  # decided: later midpoints lie between, round is monotone
        mid = (low + high) / 2.0
        if _net_charge(positive, negative, mid) > 0:
            low = mid
        else:
            high = mid
    return round((low + high) / 2.0, 3)


def hydropathy(protein: ProteinSequence) -> float:
    """Grand average of hydropathy (GRAVY) by Kyte–Doolittle."""
    declared("hydropathy", protein, ProteinSequence)
    scored = protein.codes().translate(None, UNSCORED)
    if not scored:
        raise SequenceError("protein has no scoreable residues")
    return sum(map(HYDROPATHY.__getitem__, scored)) / len(scored)


def hydropathy_profile(
    protein: ProteinSequence, window: int = 9
) -> list[float]:
    """Sliding-window Kyte–Doolittle profile (membrane-span spotting)."""
    if window < 1:
        raise SequenceError("window must be positive")
    scores = list(map(HYDROPATHY.__getitem__, protein.codes()))
    if len(scores) < window:
        return []
    # Each step adds the score entering the window less the one leaving.
    steps = map(sub, scores[window:], scores)
    sums = accumulate(steps, initial=sum(scores[:window]))
    return list(map(truediv, sums, repeat(window)))


def codon_usage(
    rna: RnaSequence, table: CodonTable = STANDARD
) -> dict[str, float]:
    """Relative usage of each codon within its synonymous family.

    Returns codon → fraction among the codons coding the same amino acid
    in this sequence.  Reading starts at position 0; trailing partial
    codons are ignored.
    """
    text = str(rna)
    counts: Counter = Counter(
        map("".join, zip(text[0::3], text[1::3], text[2::3])))
    by_amino: dict[str, int] = Counter()
    amino_of: dict[str, str] = {}
    for codon, count in counts.items():
        try:
            amino = table.amino_acid(codon)
        except TranslationError:
            continue
        amino_of[codon] = amino
        by_amino[amino] += count
    return {
        codon: counts[codon] / by_amino[amino_of[codon]]
        for codon in amino_of
    }


def shannon_entropy(sequence: PackedSequence) -> float:
    """Per-symbol Shannon entropy in bits (complexity screen)."""
    codes = sequence.codes()
    if not codes:
        return 0.0
    total = len(codes)
    # Summed in order of first occurrence, as a reader tallying symbols
    # left to right would.
    counts = map(codes.count, sorted(set(codes), key=codes.index))
    return -sum(
        (count / total) * math.log2(count / total) for count in counts
    )

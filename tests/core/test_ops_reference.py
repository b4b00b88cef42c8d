"""Every old implementation is the oracle.

PR 16 rewrote the operators of ``core.ops`` to run whole-buffer C calls
over ``sequence.codes()``.  The bodies they replaced — Python loops over
``str(sequence)``, one symbol or codon at a time — live on here, verbatim
from the parent commit, as the references: each new operator must return
a value ``==`` to its reference's (floats included, no ``approx``) or
raise the same error, under a derandomised hypothesis property and an
explicit grid of the cases a byte-table rewrite gets wrong.

Three behaviours changed on purpose, and the references carry the same
three fixes, each marked ``FIX``:

1. a stop is a codon that *translates* to ``*`` (``UAR`` is one);
2. a whole-sequence scan (``find_orfs``, ``six_frame_translation``)
   reads a codon it cannot translate as ``X`` and reads through it;
3. a k-mer cosine takes one square root, so a value is exactly as
   similar to itself as it can be (1.0).

``test_the_fixes_change_what_the_parent_did`` shows the un-fixed
references — the parent's actual behaviour — failing the first two.
"""

import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ops
from repro.core.ops.codon import (
    BACTERIAL,
    MOLD_PROTOZOAN_MITOCHONDRIAL,
    STANDARD,
    VERTEBRATE_MITOCHONDRIAL,
    YEAST_MITOCHONDRIAL,
    CodonTable,
    codon_table,
    register_codon_table,
)
from repro.core.ops.orf import OpenReadingFrame
from repro.core.ops.stats import _net_charge
from repro.core.types import (
    DnaSequence,
    Gene,
    MRna,
    ProteinSequence,
    RnaSequence,
)
from repro.core.types.alphabet import DNA, PROTEIN, RNA
from repro.core.types.annotation import FORWARD, REVERSE, Interval
from repro.core.types.entities import Protein
from repro.errors import (
    ReproError,
    SequenceError,
    SortMismatchError,
    TranslationError,
)

# ===========================================================================
# The references: the parent commit's bodies, verbatim but for (a) the
# ``ref_`` names, (b) taking the codon table's parts as arguments where
# they were methods of it, (c) the marked fixes.
# ===========================================================================

#: Set false to get the parent's behaviour exactly (used by one test).
_FIXED = True


def ref_expand(codon):
    """All concrete codons an ambiguous codon may stand for."""
    pools = [RNA.expand(base) for base in codon]
    for first in pools[0]:
        for second in pools[1]:
            for third in pools[2]:
                yield first + second + third


def ref_amino_acid(table, codon):
    codon = codon.upper().replace("T", "U")
    if len(codon) != 3:
        raise TranslationError(f"codon must have 3 bases, got {codon!r}")
    direct = table._forward.get(codon)
    if direct is not None:
        return direct
    candidates = {
        table._forward[expansion]
        for expansion in ref_expand(codon)
        if expansion in table._forward
    }
    if not candidates:
        raise TranslationError(f"untranslatable codon {codon!r}")
    if len(candidates) == 1:
        return candidates.pop()
    return "X"


def ref_is_start(table, codon):
    return codon.upper().replace("T", "U") in table.start_codons


def ref_is_stop(table, codon):
    if _FIXED:
        # FIX 1: stop <=> translates to '*' (was: member of stop_codons).
        try:
            return ref_amino_acid(table, codon) == "*"
        except TranslationError:
            return False
    return codon.upper().replace("T", "U") in table.stop_codons


def ref_scan_amino_acid(table, codon):
    if _FIXED:
        # FIX 2: a scan reads an untranslatable codon as X (was: raise).
        try:
            return ref_amino_acid(table, codon)
        except TranslationError:
            return "X"
    return ref_amino_acid(table, codon)


def ref_scan_strand(text, strand, full_length, table, min_protein_length):
    found = []
    rna = text.replace("T", "U")
    for frame in range(3):
        position = frame
        while position + 3 <= len(rna):
            codon = rna[position:position + 3]
            if not ref_is_start(table, codon):
                position += 3
                continue
            # Extend from this start to the first in-frame stop.
            residues = ["M"]
            stop_at = None
            inner = position + 3
            while inner + 3 <= len(rna):
                inner_codon = rna[inner:inner + 3]
                if ref_is_stop(table, inner_codon):
                    stop_at = inner + 3
                    break
                residues.append(ref_scan_amino_acid(table, inner_codon))
                inner += 3
            if stop_at is not None and len(residues) >= min_protein_length:
                if strand == FORWARD:
                    start, end = position, stop_at
                else:
                    start = full_length - stop_at
                    end = full_length - position
                found.append(OpenReadingFrame(
                    start=start,
                    end=end,
                    strand=strand,
                    frame=frame,
                    protein=ProteinSequence("".join(residues)),
                ))
                position = stop_at  # resume after the stop codon
            else:
                position += 3
    return found


def ref_complement(sequence):
    alphabet = sequence.alphabet
    if not alphabet.has_complement:
        raise SequenceError(
            f"cannot complement a {alphabet.name} sequence"
        )
    complemented = "".join(alphabet.complement(s) for s in str(sequence))
    return type(sequence)(complemented)


def ref_reverse_complement(sequence):
    return ref_complement(sequence).reverse()


def ref_find_orfs(dna, min_protein_length=20, table=STANDARD,
                  both_strands=True):
    text = str(dna)
    orfs = ref_scan_strand(text, FORWARD, len(text), table,
                           min_protein_length)
    if both_strands:
        reverse_text = str(ref_reverse_complement(dna))
        orfs.extend(ref_scan_strand(
            reverse_text, REVERSE, len(text), table, min_protein_length
        ))
    return sorted(orfs, key=lambda orf: (orf.start, orf.end, orf.strand))


def ref_dna_to_rna(dna):
    return RnaSequence(str(dna).replace("T", "U"))


def ref_rna_to_dna(rna):
    return DnaSequence(str(rna).replace("U", "T"))


def ref_six_frame_translation(dna, table=STANDARD):
    result = {}
    for strand, source in (
        (FORWARD, dna),
        (REVERSE, ref_reverse_complement(dna)),
    ):
        rna = str(ref_dna_to_rna(source))
        for frame in range(3):
            residues = [
                ref_scan_amino_acid(table, rna[i:i + 3])
                for i in range(frame, len(rna) - 2, 3)
            ]
            result[(strand, frame)] = ProteinSequence("".join(residues))
    return result


def ref_locate_cds(rna, table):
    text = str(rna)
    for position in range(0, len(text) - 2):
        if ref_is_start(table, text[position:position + 3]):
            return Interval(position, len(text))
    raise TranslationError(
        "mRNA has no start codon and no annotated CDS"
    )


def ref_translate(mrna, table=STANDARD, to_stop=True):
    cds = mrna.cds if mrna.cds is not None else ref_locate_cds(mrna.rna,
                                                               table)
    text = str(mrna.rna)[cds.start:cds.end]
    if len(text) < 3:
        raise TranslationError("coding region shorter than one codon")

    residues = []
    for offset in range(0, len(text) - 2, 3):
        codon = text[offset:offset + 3]
        if offset == 0 and ref_is_start(table, codon):
            # Alternative start codons are read as methionine in vivo.
            residues.append("M")
            continue
        amino = ref_amino_acid(table, codon)
        if amino == "*" and to_stop:
            break
        residues.append(amino)

    return Protein(
        sequence=ProteinSequence("".join(residues)),
        gene_name=mrna.gene_name,
        name=f"{mrna.gene_name} protein" if mrna.gene_name else None,
    )


def ref_gc_content(sequence):
    text = str(sequence)
    gc = sum(text.count(base) for base in "GCS")
    at = sum(text.count(base) for base in "ATUW")
    total = gc + at
    return gc / total if total else 0.0


def ref_base_composition(sequence):
    text = str(sequence)
    return {symbol: text.count(symbol) for symbol in sorted(set(text))}


def _ref_clean(raw):
    return "".join(
        ch for ch in raw if not ch.isdigit() and not ch.isspace()
        and ch not in "/\\.,;:"
    )


def ref_decode(raw):
    return DnaSequence(_ref_clean(raw).upper())


def ref_decode_rna(raw):
    return RnaSequence(_ref_clean(raw).upper())


def ref_decode_protein(raw):
    return ProteinSequence(_ref_clean(raw).upper())


def ref_kmer_profile(sequence, k):
    if k < 1:
        raise SequenceError("k must be positive")
    text = str(sequence)
    return Counter(text[i:i + k] for i in range(len(text) - k + 1))


def ref_jaccard_similarity(first, second, k=4):
    words_a = set(ref_kmer_profile(first, k))
    words_b = set(ref_kmer_profile(second, k))
    if not words_a and not words_b:
        return 1.0
    union = words_a | words_b
    return len(words_a & words_b) / len(union)


def ref_cosine_similarity(first, second, k=4):
    profile_a = ref_kmer_profile(first, k)
    profile_b = ref_kmer_profile(second, k)
    if not profile_a or not profile_b:
        return 1.0 if not profile_a and not profile_b else 0.0
    dot = sum(count * profile_b[word] for word, count in profile_a.items())
    squares_a = sum(c * c for c in profile_a.values())
    squares_b = sum(c * c for c in profile_b.values())
    # FIX 3: one rounded division of exact integers and one root; two
    # roots made a value 0.9999999999999998 like itself.
    return math.sqrt(dot * dot / (squares_a * squares_b))


_RESIDUE_MASS = {
    "A": 71.0788, "R": 156.1875, "N": 114.1038, "D": 115.0886,
    "C": 103.1388, "E": 129.1155, "Q": 128.1307, "G": 57.0519,
    "H": 137.1411, "I": 113.1594, "L": 113.1594, "K": 128.1741,
    "M": 131.1926, "F": 147.1766, "P": 97.1167, "S": 87.0782,
    "T": 101.1051, "W": 186.2132, "Y": 163.1760, "V": 99.1326,
    "U": 150.0388, "O": 237.3018,
}
_WATER_MASS = 18.01524
_DNA_BASE_MASS = {"A": 313.21, "C": 289.18, "G": 329.21, "T": 304.2}
_RNA_BASE_MASS = {"A": 329.21, "C": 305.18, "G": 345.21, "U": 306.17}
_PKA_POSITIVE = {"K": 10.8, "R": 12.5, "H": 6.5}
_PKA_NEGATIVE = {"D": 3.9, "E": 4.1, "C": 8.5, "Y": 10.1}
_PKA_N_TERMINUS = 8.6
_PKA_C_TERMINUS = 3.6
_KYTE_DOOLITTLE = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5,
    "Q": -3.5, "E": -3.5, "G": -0.4, "H": -3.2, "I": 4.5,
    "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8, "P": -1.6,
    "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
}


def ref_melting_temperature(dna):
    text = str(dna)
    if not text:
        raise SequenceError("cannot compute Tm of an empty sequence")
    gc = sum(text.count(base) for base in "GCS")
    at = sum(text.count(base) for base in "ATW")
    other = len(text) - gc - at
    gc_effective = gc + other / 2
    at_effective = at + other / 2
    if len(text) < 14:
        return 2.0 * at_effective + 4.0 * gc_effective
    return 64.9 + 41.0 * (gc_effective - 16.4) / len(text)


def ref_molecular_weight(sequence):
    alphabet = sequence.alphabet
    if isinstance(sequence, ProteinSequence):
        table = _RESIDUE_MASS
        terminal = _WATER_MASS
    elif isinstance(sequence, RnaSequence):
        table = _RNA_BASE_MASS
        terminal = _WATER_MASS + 61.96  # 5'-phosphate adjustment
    elif isinstance(sequence, DnaSequence):
        table = _DNA_BASE_MASS
        terminal = _WATER_MASS + 61.96
    else:
        raise SequenceError(
            f"no mass table for alphabet {alphabet.name!r}"
        )

    total = 0.0
    counted = 0
    for symbol in str(sequence):
        if symbol in ("-", "*"):
            continue
        if symbol in table:
            total += table[symbol]
        else:
            expansion = [table[s] for s in alphabet.expand(symbol)
                         if s in table]
            if not expansion:
                continue
            total += sum(expansion) / len(expansion)
        counted += 1
    return total + terminal if counted else 0.0


def ref_net_charge(composition, ph):
    positive = sum(
        count / (1.0 + 10.0 ** (ph - pka))
        for residue, pka in _PKA_POSITIVE.items()
        for count in (composition.get(residue, 0),)
    )
    positive += 1.0 / (1.0 + 10.0 ** (ph - _PKA_N_TERMINUS))
    negative = sum(
        count / (1.0 + 10.0 ** (pka - ph))
        for residue, pka in _PKA_NEGATIVE.items()
        for count in (composition.get(residue, 0),)
    )
    negative += 1.0 / (1.0 + 10.0 ** (_PKA_C_TERMINUS - ph))
    return positive - negative


def ref_isoelectric_point(protein):
    if not len(protein):
        raise SequenceError("cannot compute pI of an empty protein")
    composition = Counter(str(protein))
    low, high = 0.0, 14.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if ref_net_charge(composition, mid) > 0:
            low = mid
        else:
            high = mid
    return round((low + high) / 2.0, 3)


def ref_hydropathy(protein):
    values = [
        _KYTE_DOOLITTLE[residue]
        for residue in str(protein)
        if residue in _KYTE_DOOLITTLE
    ]
    if not values:
        raise SequenceError("protein has no scoreable residues")
    return sum(values) / len(values)


def ref_hydropathy_profile(protein, window=9):
    if window < 1:
        raise SequenceError("window must be positive")
    text = str(protein)
    scores = [_KYTE_DOOLITTLE.get(residue, 0.0) for residue in text]
    if len(scores) < window:
        return []
    profile = []
    running = sum(scores[:window])
    profile.append(running / window)
    for position in range(window, len(scores)):
        running += scores[position] - scores[position - window]
        profile.append(running / window)
    return profile


def ref_codon_usage(rna, table=STANDARD):
    text = str(rna)
    counts = Counter(
        text[i:i + 3] for i in range(0, len(text) - 2, 3)
    )
    by_amino = Counter()
    amino_of = {}
    for codon, count in counts.items():
        try:
            amino = ref_amino_acid(table, codon)
        except Exception:
            continue
        amino_of[codon] = amino
        by_amino[amino] += count
    return {
        codon: counts[codon] / by_amino[amino_of[codon]]
        for codon in amino_of
    }


def ref_shannon_entropy(sequence):
    text = str(sequence)
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum(
        (count / total) * math.log2(count / total)
        for count in counts.values()
    )


# ===========================================================================
# Comparison machinery
# ===========================================================================

def outcome(function, *args, **kwargs):
    """What a call does: its value, or the error it raises (type and
    message) — so 'raises the same error' is also an ``==``."""
    try:
        return ("value", function(*args, **kwargs))
    except ReproError as error:
        return ("error", type(error), str(error))


def same(new, reference, *args, **kwargs):
    got = outcome(new, *args, **kwargs)
    want = outcome(reference, *args, **kwargs)
    assert got == want, (args, kwargs)
    if got[0] == "value" and isinstance(got[1], float):
        # == on floats lets -0.0 pass for 0.0 and fails nan: be literal.
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])


@pytest.fixture(scope="module")
def runtime_table():
    """A genetic code registered at run time over an existing id.

    It is built to be awkward: ``UGA`` is both a start and a stop,
    ``AUN`` (spelt so) is a start, ``GGN`` is spelt out in the mapping
    (so it never reaches the ambiguity expansion), and ``CCC`` reads a
    lower-case residue.
    """
    original = codon_table(4)
    forward = dict(original._forward)
    forward.update({"UGA": "*", "GGN": "G", "CCC": "p"})
    table = CodonTable(4, "Awkward", forward,
                       frozenset({"AUG", "UGA", "AUN", "CUG"}))
    register_codon_table(table, replace=True)
    assert codon_table(4) is table
    yield table
    register_codon_table(original, replace=True)


SHIPPED = (STANDARD, VERTEBRATE_MITOCHONDRIAL, YEAST_MITOCHONDRIAL,
           MOLD_PROTOZOAN_MITOCHONDRIAL, BACTERIAL)


@pytest.fixture(scope="module")
def tables(runtime_table):
    return SHIPPED + (runtime_table,)


# Mostly concrete bases, some IUPAC codes, the odd gap: 0 %, ~10 % and
# heavy ambiguity all turn up.
nucleotides = st.one_of(
    st.text(alphabet="ACGT", max_size=120),
    st.text(alphabet="ACGT" * 8 + "RYSWKMBDHVN-", max_size=120),
    st.text(alphabet=DNA.symbols, max_size=60),
)
residues = st.text(alphabet=PROTEIN.symbols, max_size=80)
derandomised = settings(derandomize=True, max_examples=300, deadline=None)


# ===========================================================================
# Properties
# ===========================================================================

class TestProperties:
    @derandomised
    @given(text=nucleotides, minimum=st.sampled_from((1, 2, 5, 20)),
           which=st.integers(0, 5), both=st.booleans())
    def test_find_orfs(self, tables, text, minimum, which, both):
        same(ops.find_orfs, ref_find_orfs, DnaSequence(text), minimum,
             tables[which], both)

    @derandomised
    @given(text=nucleotides, which=st.integers(0, 5))
    def test_six_frame_translation(self, tables, text, which):
        same(ops.six_frame_translation, ref_six_frame_translation,
             DnaSequence(text), tables[which])

    @derandomised
    @given(text=nucleotides, which=st.integers(0, 5), to_stop=st.booleans(),
           cds=st.one_of(st.none(), st.tuples(st.integers(0, 30),
                                              st.integers(0, 130))))
    def test_translate(self, tables, text, which, to_stop, cds):
        if cds is not None:
            low, high = sorted(cds)
            cds = Interval(min(low, len(text)), min(high, len(text)))
        mrna = MRna(rna=ref_dna_to_rna(DnaSequence(text)), cds=cds,
                    gene_name="g")
        same(ops.translate, ref_translate, mrna, tables[which], to_stop)

    @derandomised
    @given(text=nucleotides)
    def test_nucleotide_operators(self, text):
        for sequence in (DnaSequence(text),
                         RnaSequence(text.replace("T", "U"))):
            same(ops.complement, ref_complement, sequence)
            same(ops.reverse_complement, ref_reverse_complement, sequence)
            same(ops.gc_content, ref_gc_content, sequence)
            same(ops.base_composition, ref_base_composition, sequence)
            same(ops.molecular_weight, ref_molecular_weight, sequence)
            same(ops.shannon_entropy, ref_shannon_entropy, sequence)
        # Tm is declared over dna alone: RNA is refused, not mis-read.
        same(ops.melting_temperature, ref_melting_temperature,
             DnaSequence(text))
        with pytest.raises(SortMismatchError):
            ops.melting_temperature(RnaSequence(text.replace("T", "U")))
        same(ops.dna_to_rna, ref_dna_to_rna, DnaSequence(text))
        same(ops.rna_to_dna, ref_rna_to_dna,
             RnaSequence(text.replace("T", "U")))
        same(ops.codon_usage, ref_codon_usage,
             RnaSequence(text.replace("T", "U")))

    @derandomised
    @given(text=residues, window=st.integers(1, 12))
    def test_protein_operators(self, text, window):
        protein = ProteinSequence(text)
        same(ops.molecular_weight, ref_molecular_weight, protein)
        same(ops.isoelectric_point, ref_isoelectric_point, protein)
        same(ops.hydropathy, ref_hydropathy, protein)
        same(ops.hydropathy_profile, ref_hydropathy_profile, protein, window)
        same(ops.shannon_entropy, ref_shannon_entropy, protein)
        same(ops.gc_content, ref_gc_content, protein)
        same(ops.base_composition, ref_base_composition, protein)
        same(ops.complement, ref_complement, protein)

    @derandomised
    @given(first=nucleotides, second=nucleotides, k=st.integers(0, 9))
    def test_similarity(self, first, second, k):
        a, b = DnaSequence(first), DnaSequence(second)
        same(ops.kmer_profile, ref_kmer_profile, a, k)
        same(ops.cosine_similarity, ref_cosine_similarity, a, b, k)
        same(ops.jaccard_similarity, ref_jaccard_similarity, a, b, k)
        # Text operands: upper-case text is what the references compared.
        same(ops.kmer_profile, ref_kmer_profile, first, k)
        same(ops.cosine_similarity, ref_cosine_similarity, first, second, k)
        same(ops.cosine_similarity, ref_cosine_similarity, a, second, k)
        same(ops.jaccard_similarity, ref_jaccard_similarity, first, b, k)

    @derandomised
    @given(raw=st.text(
        alphabet=st.one_of(
            st.sampled_from("acgtnACGTN-ryRY 0123456789\n\t/\\.,;:"),
            st.sampled_from("²٣  　ßéx?"),
        ), max_size=80))
    def test_decode(self, raw):
        same(ops.decode, ref_decode, raw)
        same(ops.decode_rna, ref_decode_rna, raw.replace("t", "u"))
        same(ops.decode_protein, ref_decode_protein, raw)

    @derandomised
    @given(counts=st.lists(st.integers(0, 40), min_size=7, max_size=7),
           ph=st.floats(0.0, 14.0))
    def test_net_charge(self, counts, ph):
        composition = dict(zip("KRHDECY", counts))
        positive = [(composition[r], pka)
                    for r, pka in _PKA_POSITIVE.items()]
        negative = [(composition[r], pka)
                    for r, pka in _PKA_NEGATIVE.items()]
        assert (_net_charge(positive, negative, ph)
                == ref_net_charge(composition, ph))


# ===========================================================================
# The grid
# ===========================================================================

class TestCodonGrid:
    def test_every_symbol_in_every_codon_position(self, tables):
        # As the body of an ORF, a frame and a message: all 16³ codons
        # under the standard and the run-time code, every symbol in
        # every position of every concrete codon under the rest.
        for table in tables:
            everything = table in (tables[0], tables[-1])
            for bases in product(DNA.symbols, repeat=3):
                codon = "".join(bases)
                if not everything and len(set(codon) - set("ACGT")) > 1:
                    continue
                dna = DnaSequence("ATG" + codon + "GCATAAC")
                same(ops.find_orfs, ref_find_orfs, dna, 1, table)
                same(ops.six_frame_translation, ref_six_frame_translation,
                     dna, table)
                mrna = MRna(rna=ref_dna_to_rna(dna))
                for to_stop in (True, False):
                    same(ops.translate, ref_translate, mrna, table, to_stop)

    def test_single_codon_api_agrees_with_the_tables(self, tables):
        for table in tables:
            for bases in product(RNA.symbols, repeat=3):
                codon = "".join(bases)
                same(table.amino_acid, lambda c: ref_amino_acid(table, c),
                     codon)
                assert table.is_start(codon) == ref_is_start(table, codon)
                assert table.is_stop(codon) == ref_is_stop(table, codon)
                # stop <=> translates to '*', for every registered table
                assert table.is_stop(codon) == (
                    outcome(table.amino_acid, codon) == ("value", "*"))

    def test_a_gapped_codon_still_raises_from_the_single_codon_api(self):
        with pytest.raises(TranslationError, match="untranslatable"):
            STANDARD.amino_acid("A-A")
        assert not STANDARD.is_stop("A-A") and not STANDARD.is_start("A-A")


ORF_SHAPES = [
    "", "A", "AT", "ATG", "ATGT", "ATGTA", "ATGTAA", "ATGTAAC",   # 0–7
    "ATGAAACCC",                      # start, no stop
    "AAACCCTAA",                      # stop, no start
    "TAATAATAA",                      # stops only
    "ATGATGATG",                      # starts only
    "ATGATGAAATAA",                   # nested start
    "ATGAAATAAATGCCCTAG",             # two ORFs, one frame, last ends at end
    "CATGAAATAGC", "CCATGAAATGAC",    # offset frames
    "TTATTTCAT",                      # reverse strand only
    "ATGAAATAATTATTTCAT",             # both strands
    "ATGGCCAAATARCCCTAA",             # ambiguous stop
    "ATGAAA-AACCCTAA", "A-AATGAAATAA", "ATG---TAA",   # gaps
    "ATGNNNTAA", "NNNATGAAATAA", "ATGAAANNN", "ATGAARTAA", "RTGAAATAA",
    "ATGAGAAGGTAA",                   # AGR: stops in the vertebrate code
    "ATAAAATGA", "ATTAAATAA",         # alternative starts, UGA as sense
    "TGAAAATGA", "TGATGATGA",         # UGA as start *and* stop (run-time)
    "ATGTGAAAACCCTGA",                # … ending a too-short ORF, opening one
    "ATNAAATAA", "CTGCCCGGNTAA",      # spelt-out ambiguous entries
]


class TestOrfGrid:
    @pytest.mark.parametrize("minimum", [0, 1, 2, 3, 4, 20])
    def test_shapes(self, tables, minimum):
        for table in tables:
            for text in ORF_SHAPES:
                for both in (True, False):
                    same(ops.find_orfs, ref_find_orfs, DnaSequence(text),
                         minimum, table, both)

    def test_six_frames_of_every_shape(self, tables):
        for table in tables:
            for text in ORF_SHAPES:
                same(ops.six_frame_translation, ref_six_frame_translation,
                     DnaSequence(text), table)

    def test_translate_every_shape_and_every_cds(self, tables):
        for table in tables:
            for text in ORF_SHAPES:
                rna = ref_dna_to_rna(DnaSequence(text))
                spans = [None] + [Interval(start, end)
                                  for start in range(len(text) + 1)
                                  for end in range(start, len(text) + 1)]
                for cds in spans[:60]:
                    for to_stop in (True, False):
                        same(ops.translate, ref_translate,
                             MRna(rna=rna, cds=cds), table, to_stop)

    def test_the_fixes_change_what_the_parent_did(self):
        global _FIXED
        stop, gap = DnaSequence("ATGGCCAAATARCCCTAA"), \
            DnaSequence("ATGAAA-AACCC")
        _FIXED = False
        try:
            parent_stop = outcome(ref_find_orfs, stop, 1, STANDARD, False)
            parent_gap = outcome(ref_find_orfs, gap, 1)
            parent_frames = outcome(ref_six_frame_translation, gap)
        finally:
            _FIXED = True
        assert str(parent_stop[1][0].protein) == "MAK*P"
        assert parent_gap[:2] == ("error", TranslationError)
        assert parent_frames[:2] == ("error", TranslationError)
        assert [str(orf.protein) for orf in
                ops.find_orfs(stop, 1, both_strands=False)] == ["MAK"]
        assert ops.find_orfs(gap, 1) == []
        assert str(ops.six_frame_translation(gap)[(FORWARD, 0)]) == "MKXP"


class TestDecodeGrid:
    def test_every_separator_digit_and_space(self):
        for noise in "/\\.,;: \t\n\r\x0b\x0c0123456789":
            same(ops.decode, ref_decode, f"ac{noise}gt")
        same(ops.decode, ref_decode, "        1 acgtacgtnn ryswkm\n"
                                     "       61 bdhv--acgt //\n")

    def test_non_ascii_digits_and_whitespace_go_too(self):
        assert str(ops.decode("ac²gt t　a٣")) == "ACGTTA"
        same(ops.decode, ref_decode, "ac²gt t　a٣")
        same(ops.decode_protein, ref_decode_protein, "mk²v l")

    def test_what_is_left_is_still_validated(self):
        for raw in ("acgx", "ac?gt", "acgé", "ß"):
            same(ops.decode, ref_decode, raw)
            same(ops.decode_rna, ref_decode_rna, raw)
        same(ops.decode_protein, ref_decode_protein, "mk1?")


class TestGcClassGrid:
    # PR 19: ``gc_content`` classifies the codes with one ``translate``
    # (``SymbolTables.gc_classes``) and counts twice, and the columnar
    # page kernel reads the same table.  ``ref_gc_content`` — counting
    # letters in ``str(sequence)`` — is still the oracle, symbol by
    # symbol, so no code can sit in the wrong class.
    @pytest.mark.parametrize("klass",
                             (DnaSequence, RnaSequence, ProteinSequence))
    def test_every_symbol_counts_as_its_letter_does(self, klass):
        symbols = klass.alphabet.symbols
        for text in ("", symbols, symbols[::-1] * 3):
            same(ops.gc_content, ref_gc_content, klass(text))
        for symbol in symbols:
            for text in (symbol, symbol + "G", symbol + "A",
                         "GA" + symbol * 3, "C" + symbol + "-"):
                same(ops.gc_content, ref_gc_content, klass(text))

    def test_a_sequence_of_neither_class_has_no_gc_content(self):
        assert ops.gc_content(DnaSequence("NNRY--")) == 0.0
        assert ops.gc_content(DnaSequence("SSWW")) == 0.5
        assert ops.gc_content(RnaSequence("GUN")) == 0.5


# ===========================================================================
# k-mers are integers; a predicate reads its constant operand once
# ===========================================================================

def ref_find_motif(subject, pattern):
    """Two-way IUPAC matching, position by position, symbol by symbol."""
    alphabet = subject.alphabet
    text, motif = str(subject), str(pattern).upper()
    if not motif:
        return []
    return [at for at in range(len(text) - len(motif) + 1)
            if all(alphabet.matches(text[at + i], symbol)
                   for i, symbol in enumerate(motif))]


def ref_extend(query, subject, query_pos, subject_pos, word_size, scheme,
               x_drop):
    """The replaced ``_extend``: two index-walking X-drop loops."""
    score = float(sum(
        scheme.score(query[query_pos + i], subject[subject_pos + i])
        for i in range(word_size)))
    best, best_right, offset, running = score, 0, word_size, score
    while (query_pos + offset < len(query)
           and subject_pos + offset < len(subject)):
        running += scheme.score(query[query_pos + offset],
                                subject[subject_pos + offset])
        offset += 1
        if running > best:
            best = running
            best_right = offset - word_size
        elif best - running > x_drop:
            break
    score = best
    best, best_left, offset, running = score, 0, 1, score
    while query_pos - offset >= 0 and subject_pos - offset >= 0:
        running += scheme.score(query[query_pos - offset],
                                subject[subject_pos - offset])
        if running > best:
            best = running
            best_left = offset
        elif best - running > x_drop:
            break
        offset += 1
    return (query_pos - best_left, query_pos + word_size + best_right,
            subject_pos - best_left, subject_pos + word_size + best_right,
            best)


def ref_blast_search(query, subjects, word_size, min_score=20.0,
                     x_drop=10.0):
    """The parent's ``WordIndex.add`` + ``blast_search``, verbatim but
    for being one function: words are text, looked up as text."""
    from repro.core.ops.align import simple_scoring
    from repro.core.ops.similarity import Hit

    _extend = ref_extend

    scheme = simple_scoring(match=2, mismatch=-3)
    texts, postings = {}, {}
    for subject_id, sequence in subjects.items():
        text = texts[subject_id] = str(sequence)
        for position in range(len(text) - word_size + 1):
            postings.setdefault(text[position:position + word_size],
                                []).append((subject_id, position))
    text = str(query)
    best_hits = {}
    for query_pos in range(len(text) - word_size + 1):
        word = text[query_pos:query_pos + word_size]
        for subject_id, subject_pos in postings.get(word, ()):
            subject = texts[subject_id]
            q_start, q_end, s_start, s_end, score = _extend(
                text, subject, query_pos, subject_pos, word_size, scheme,
                x_drop)
            if score < min_score:
                continue
            matched = sum(a == b for a, b in zip(text[q_start:q_end],
                                                 subject[s_start:s_end]))
            length = q_end - q_start
            hit = Hit(subject_id, q_start, q_end, s_start, s_end, score,
                      matched / length if length else 0.0)
            key = (subject_id, q_start - s_start, q_end)
            if key not in best_hits or hit.score > best_hits[key].score:
                best_hits[key] = hit
    return sorted(best_hits.values(), key=lambda h: -h.score)


_KINDS = st.sampled_from((DnaSequence, RnaSequence, ProteinSequence))
# Related pairs (a mutated copy, a fragment) as well as strangers: the
# cosine has to land on both sides of a threshold.
_related = st.builds(
    lambda text, cut, swaps: (text, "".join(
        "ACGT"[(i + len(text)) % 4] if i in swaps else base
        for i, base in enumerate(text))[cut[0]:len(text) - cut[1]]),
    st.text(alphabet="ACGT", min_size=0, max_size=150),
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    st.sets(st.integers(0, 150), max_size=12))
_pairs = st.one_of(_related, st.tuples(nucleotides, nucleotides))


class TestKmerKernel:
    @derandomised
    @given(klass=_KINDS, data=st.data(), k=st.integers(1, 9))
    def test_equal_keys_for_equal_windows_and_no_more(self, klass, data, k):
        """Position by position — so as a multiset too — and over odd
        lengths (the nibble pad), length < k and the empty buffer."""
        from repro.core.ops._tables import kmer_keys

        text = data.draw(st.text(alphabet=klass.alphabet.symbols,
                                 max_size=70))
        codes = klass(text).codes()
        keys = list(kmer_keys(codes, k))
        windows = [codes[at:at + k] for at in range(len(codes) - k + 1)]
        assert len(keys) == len(windows)
        # A bijection between the keys and the windows they stand at …
        assert (len(set(zip(keys, windows))) == len(set(keys))
                == len(set(windows)))
        # … so the multisets agree up to it.
        pairing = dict(zip(keys, windows))
        assert (Counter(pairing[key] for key in keys)
                == Counter(map(bytes, zip(*(codes[o:] for o in range(k))))))

    @derandomised
    @given(klass=_KINDS, data=st.data(), k=st.integers(0, 9))
    def test_every_alphabet_profiles_as_its_text_does(self, klass, data, k):
        symbols = st.text(alphabet=klass.alphabet.symbols, max_size=60)
        first, second = data.draw(symbols), data.draw(symbols)
        a, b = klass(first), klass(second)
        same(ops.kmer_profile, ref_kmer_profile, a, k)
        same(ops.cosine_similarity, ref_cosine_similarity, a, b, k)
        same(ops.jaccard_similarity, ref_jaccard_similarity, a, b, k)
        same(ops.jaccard_similarity, ref_jaccard_similarity, a, second, k)
        # Text is upper-cased, whichever side it stands on.
        assert (outcome(ops.cosine_similarity, first.lower(), b, k)
                == outcome(ref_cosine_similarity, first, b, k))

    @derandomised
    @given(pair=_pairs, k=st.sampled_from((1, 3, 4, 8, 9)),
           threshold=st.one_of(
               st.none(),  # the pair's own cosine: the boundary itself
               st.sampled_from((-1.0, 0.0, 1e-12, 0.7, 1.0, 1.0 + 1e-12,
                                2.0, math.inf, -math.inf, math.nan)),
               st.floats(0.0, 1.0)),
           nudge=st.sampled_from((0.0, 1e-16, -1e-16, 1e-9, -1e-9)))
    def test_the_bound_never_changes_an_answer(self, pair, k, threshold,
                                               nudge):
        first, second = pair
        exact = ref_cosine_similarity(first, second, k)
        if threshold is None:
            threshold = exact + nudge
        a, b = DnaSequence(first), DnaSequence(second)
        for one, other in ((a, b), (b, a), (first.lower(), b),
                           (a, second.lower()), (first, second)):
            assert (ops.resembles(one, other, threshold, k)
                    is (exact >= threshold)), (one, other, threshold)
            assert ops.cosine_similarity(one, other, k) == exact

    def test_the_bound_rejects_without_counting(self, monkeypatch):
        """A stranger is refused on the one pass over its keys."""
        from repro.core.ops import similarity

        counted = []
        monkeypatch.setattr(
            similarity, "Counter",
            lambda keys: counted.append(keys) or Counter(keys))
        probe = DnaSequence("ACGTTGCAAGGCTTAACCGG" * 3)
        similarity._prepared(DnaSequence, probe, 4)  # counted once, here
        counted.clear()
        assert not ops.resembles(DnaSequence("TTTTTTTTTTTTTTTTTTTT"), probe)
        assert counted == []
        assert ops.resembles(probe[3:50], probe)
        assert len(counted) == 1

    @derandomised
    @given(klass=_KINDS, data=st.data())
    def test_a_prepared_pattern_matches_symbol_by_symbol(self, klass, data):
        symbols = klass.alphabet.symbols
        text = data.draw(st.one_of(
            st.text(alphabet=symbols[:4], max_size=40),
            st.text(alphabet=symbols[:4] * 6 + symbols, max_size=40)))
        subject = klass(text)
        pattern = data.draw(st.one_of(
            st.builds(lambda at, n: text[at:at + n],
                      st.integers(0, 40), st.integers(0, 8)),
            st.text(alphabet=symbols[:4] * 3 + symbols, max_size=5)))
        expected = ref_find_motif(subject, pattern)
        for spelt in (pattern, pattern.lower(), klass(pattern)):
            assert list(ops.find_motif(subject, spelt)) == expected
            assert ops.contains(subject, spelt) is bool(expected)
            assert ops.count_occurrences(subject, spelt) == len(expected)
            assert ops.first_occurrence(subject, spelt) == (
                expected[0] if expected else -1)

    def test_a_pattern_the_subject_cannot_spell_is_refused(self):
        subject = DnaSequence("ACGT")
        for pattern in ("ACGU", "AC GT", RnaSequence("ACGU"),
                        ProteinSequence("ACGT")):
            for function in (ops.contains, ops.count_occurrences,
                             ops.first_occurrence,
                             lambda s, p: list(ops.find_motif(s, p))):
                with pytest.raises(SequenceError):
                    function(subject, pattern)

    @pytest.mark.parametrize("word_size", (4, 8, 10))
    def test_blast_hits_are_unchanged_on_the_a2_corpus(self, word_size):
        import random

        rng = random.Random(7)  # benchmarks/bench_ablation_genomic_index
        subjects = {f"s{i}": "".join(rng.choice("ACGT") for __ in range(300))
                    for i in range(40)}
        query = "".join(rng.choice("ACGT") for __ in range(60))
        subjects["s0"] = subjects["s0"][:100] + query + subjects["s0"][160:]
        subjects["s1"] = DnaSequence(subjects["s1"])
        index = ops.WordIndex(word_size=word_size)
        for name, subject in subjects.items():
            index.add(name, subject)
        for probe, floor in ((query, 40.0), (query, 12.0),
                             (DnaSequence(query[5:40]), 12.0),
                             (str(subjects["s1"])[20:70], 20.0)):
            hits = ops.blast_search(probe, index, min_score=floor)
            assert hits == ref_blast_search(probe, subjects, word_size,
                                            floor)
            assert hits
        assert ("s0", 100) in index.seeds(query[:word_size])
        assert index.seeds(query[:word_size - 1]) == ()

    @derandomised
    @given(query=st.text(alphabet="ACGT", min_size=1, max_size=40),
           subject=st.text(alphabet="ACGT", min_size=1, max_size=40),
           word_size=st.integers(1, 6), x_drop=st.sampled_from(
               (0.0, 2.5, 10.0)), data=st.data())
    def test_the_x_drop_walks_are_the_loops_they_replaced(
            self, query, subject, word_size, x_drop, data):
        from repro.core.ops.align import simple_scoring
        from repro.core.ops.similarity import _extend

        word_size = min(word_size, len(query), len(subject))
        query_pos = data.draw(st.integers(0, len(query) - word_size))
        subject_pos = data.draw(st.integers(0, len(subject) - word_size))
        for scheme in (simple_scoring(match=2, mismatch=-3),
                       simple_scoring(match=1.5, mismatch=-0.5)):
            arguments = (query, subject, query_pos, subject_pos, word_size,
                         scheme, x_drop)
            assert _extend(*arguments) == ref_extend(*arguments)


# ===========================================================================
# A k-mer window is a byte where it fits; express reads the gene's codes
# ===========================================================================

def _codes_of(first, second):
    """The codes *first* is read as beside *second* (as ``kmer_vector``)."""
    if isinstance(first, (DnaSequence, RnaSequence, ProteinSequence)):
        return first.codes()
    if isinstance(second, (DnaSequence, RnaSequence, ProteinSequence)):
        return type(second)(first.upper()).codes()
    return first.upper().encode("ascii")


def dots(first, second, k):
    """(dense?, a·b as the vector reads it, a·b over ``kmer_keys`` alone,
    a·b over the spelt windows)."""
    from repro.core.ops import similarity
    from repro.core.ops._tables import kmer_keys

    vector = similarity.kmer_vector(first, second, k)
    prepared = similarity._prepared(vector.klass, second, k)
    counts, read = prepared[0], vector.dot(prepared)
    keyed = sum(similarity._looked_up(
        counts, kmer_keys(_codes_of(first, second), k)))
    profile_a, profile_b = (ref_kmer_profile(str(operand).upper(), k)
                            for operand in (first, second))
    spelt = sum(count * profile_b[word] for word, count in profile_a.items())
    return vector.dense, read, keyed, spelt


_CONCRETE = set("ACGTU")
#: Mostly concrete DNA with a few IUPAC codes or gaps: runs between them.
ambiguous = st.text(alphabet="ACGT" * 12 + "NRY-", min_size=1,
                    max_size=120)


class TestKmerBytes:
    @derandomised
    @given(first=st.one_of(nucleotides, ambiguous),
           second=st.one_of(nucleotides, ambiguous, st.text(
               alphabet="ACGT", max_size=120)),
           k=st.integers(1, 6), rna=st.booleans())
    def test_the_dense_dot_is_the_keyed_dot(self, first, second, k, rna):
        """Subjects and probes with IUPAC codes and gaps too: an
        ambiguous value against a concrete probe dots its runs."""
        klass = RnaSequence if rna else DnaSequence
        if rna:
            first, second = first.replace("T", "U"), second.replace("T", "U")
        for one, other in ((klass(first), klass(second)),
                           (first.lower(), klass(second)),
                           (klass(first), second), (first, second)):
            dense, read, keyed, spelt = dots(one, other, k)
            assert read == keyed == spelt, (one, other, k)
        assert dots(klass(first), second, k)[0] is (
            k <= 4 and set(first) <= _CONCRETE)

    def test_an_ambiguous_value_against_a_concrete_probe_stays_in_c(
            self, monkeypatch):
        """With the keyed lookup refused once the probes are prepared, a
        value holding an N still answers against an ACGT probe (its runs'
        windows are dotted), and a probe holding one reaches it."""
        from repro.core.ops import similarity

        value = DnaSequence("ATGAAACCCGGGNTTTAAACGTACGTTGCA" * 4)
        probe, ambiguous = (DnaSequence("AAACCCGGGTTTAAACGTACG"),
                            DnaSequence("AAACCNGGG"))
        want = ref_cosine_similarity(value, probe, 4)
        for prepared in (probe, ambiguous):
            similarity._prepared(DnaSequence, prepared, 4)

        def refused(*arguments):
            raise AssertionError("keyed lookup")
        monkeypatch.setattr(similarity, "_looked_up", refused)
        assert not similarity.kmer_vector(value, probe, 4).dense
        assert ops.cosine_similarity(value, probe) == want
        assert ops.resembles(value, probe, want)
        with pytest.raises(AssertionError, match="keyed lookup"):
            ops.cosine_similarity(value, ambiguous)

    @derandomised
    @given(first=residues, second=residues, k=st.integers(1, 6))
    def test_protein_and_text_operands(self, first, second, k):
        for one, other in ((ProteinSequence(first), ProteinSequence(second)),
                           (first, ProteinSequence(second)),
                           (first, second)):
            dense, read, keyed, spelt = dots(one, other, k)
            assert read == keyed == spelt, (one, other, k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_window_repeated_past_255_and_the_empty_edges(self, k):
        """A count past a byte falls back to a dict of window bytes; empty
        operands and ones shorter than k have no windows."""
        from repro.core.ops import similarity

        texts = ("A" * 300, "ACGT" * 80, "AC" * 200 + "N", "", "A",
                 "ACG"[:k - 1], "ACGTACGT"[:k], "AAAAAAAAAAAAAAAAAAAAC")
        for first, second in product(texts, repeat=2):
            for klass in (DnaSequence, RnaSequence):
                a, b = (klass(text.replace("T", "U") if klass is RnaSequence
                              else text) for text in (first, second))
                dense, read, keyed, spelt = dots(a, b, k)
                assert read == keyed == spelt, (first, second, k)
                same(ops.cosine_similarity, ref_cosine_similarity, a, b, k)
                same(ops.jaccard_similarity, ref_jaccard_similarity, a, b, k)
        table = similarity._prepared(DnaSequence, DnaSequence("A" * 300),
                                     k)[2]
        assert type(table) is (bytes if k > 4 else dict)

    def test_a_value_is_exactly_like_itself(self):
        """Failing-first: two rounded roots made dna('ACGTACGT')
        0.9999999999999998 like itself, so resembles(x, x, 1.0) was
        False."""
        value = DnaSequence("ACGTACGT")
        squares = sum(c * c for c in ref_kmer_profile(value, 4).values())
        assert squares / (math.sqrt(squares) * math.sqrt(squares)) < 1.0
        assert ops.cosine_similarity(value, value) == 1.0
        assert ops.resembles(value, value, 1.0)
        # Proportional count vectors are as alike as equal ones.
        assert ops.cosine_similarity(DnaSequence("ACGT"),
                                     DnaSequence("AACCGGTT"), 1) == 1.0

    @derandomised
    @given(text=nucleotides, k=st.integers(1, 9))
    def test_every_value_is_exactly_like_itself(self, text, k):
        for one in (DnaSequence(text), RnaSequence(text.replace("T", "U")),
                    text):
            assert ops.cosine_similarity(one, one, k) == 1.0
            assert ops.resembles(one, one, 1.0, k)

    @pytest.mark.parametrize("length", (4, 100, 5000, 20000))
    def test_up_to_a_20_kb_poly_a(self, length):
        value = DnaSequence("A" * length)
        for k in (1, 4, 8):
            assert ops.cosine_similarity(value, value, k) == 1.0
            assert ops.resembles(value, value, 1.0, k)
            assert ops.cosine_similarity(value, "a" * length, k) == 1.0
        windows = length - 3
        if length == 20000:  # |a|²·|b|² is past a float's 2⁵³
            assert (windows * windows) ** 2 > 2 ** 53


def _gene(text, cuts, name="g"):
    """A gene over *text* whose exons lie between pairs of *cuts*."""
    bounds = sorted({min(cut, len(text)) for cut in cuts})
    exons = tuple(Interval(start, end)
                  for start, end in zip(bounds[::2], bounds[1::2]))
    return Gene(name, DnaSequence(text), exons)


EXPRESS_GRID = [
    ("ATGAAATTTGGGCCCTAA", ()),                  # one exon, the whole gene
    ("ATGAAAGTAAGTTTTTAA", (0, 6, 12, 18)),      # the intron holds a stop
    ("ATGCCCTAAGGGATGTTT", (0, 3, 9, 18)),       # two starts, spliced
    ("CCCATGAAATAGGGGTTTAAA", (2, 8, 12, 21)),   # starts mid-exon
    ("CCCAAATTTGGG", ()),                        # no start codon
    ("ATGAAATTT", (3, 9)),                       # the start is spliced out
    ("ATGAA-CCCTAA", ()),                        # an untranslatable codon
    ("ATGNNNCCCTAA", ()),                        # an ambiguous one: X
    ("ATGAAAAGACCCTGATAA", (0, 3, 6, 18)),       # AGA / UGA: code-dependent
    ("ATGA", ()), ("AT", ()), ("", ()),          # shorter than a codon
]


class TestExpress:
    def test_the_grid_under_every_code(self, tables):
        for table in tables:
            for text, cuts in EXPRESS_GRID:
                gene = _gene(text, cuts)
                composed = outcome(lambda: ops.translate(
                    ops.splice(ops.transcribe(gene)), table))
                assert outcome(ops.express, gene, table) == composed
                spliced = "".join(text[e.start:e.end] for e in gene.exons)
                assert composed == outcome(ref_translate, MRna(
                    rna=ref_dna_to_rna(DnaSequence(spliced)),
                    gene_name="g"), table)
        spliced = _gene("ATGAAAAGACCCTGATAA", (0, 3, 6, 18))
        assert str(ops.express(spliced).sequence) == "MRP"
        assert str(ops.express(spliced, VERTEBRATE_MITOCHONDRIAL)
                   .sequence) == "M"
        assert str(ops.express(_gene("ATGAAAGTAAGTTTTTAA",
                                     (0, 6, 12, 18))).sequence) == "MKF"

    @derandomised
    @given(text=nucleotides, cuts=st.lists(st.integers(0, 130), max_size=8),
           which=st.integers(0, 5))
    def test_express_is_the_composition(self, tables, text, cuts, which):
        gene, table = _gene(text, cuts), tables[which]
        assert outcome(ops.express, gene, table) == outcome(
            lambda: ops.translate(ops.splice(ops.transcribe(gene)), table))


class TestDeclaredSorts:
    @pytest.mark.parametrize("operation, declared", [
        ("transcribe", "gene"), ("splice", "primarytranscript"),
        ("translate", "mrna"), ("express", "gene"),
        ("reverse_transcribe", "mrna")])
    @pytest.mark.parametrize("value, given", [
        (DnaSequence("ATG"), "dna"), ("ATG", "string"),
        (ProteinSequence("M"), "protein_seq")])
    def test_a_wrong_sort_is_refused_by_name(self, operation, declared,
                                             value, given):
        """Failing-first: these read attributes of whatever they were
        given ("'DnaSequence' object has no attribute 'sequence'")."""
        with pytest.raises(SortMismatchError) as raised:
            getattr(ops, operation)(value)
        assert str(raised.value) == (
            f"{operation} is declared over {declared}, not {given}")

"""Every lookup table of ``core.ops``, derived once from its source.

The operators read ``sequence.codes()`` — one small integer per symbol —
with whole-buffer C calls (``bytes.translate`` / ``count`` / ``find``, a
compiled regex); ``str(sequence)`` is for people.  Those calls need
tables indexed by *code*, and this module alone builds them: per
alphabet from :class:`Alphabet`, per genetic code from the mapping a
:class:`CodonTable` is made of, per physical property from the textbook
constants below.  ``tests/test_core_ops_audit.py`` keeps it that way.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from itertools import product
from typing import Mapping, NamedTuple, Sequence

from repro.core.types.alphabet import DNA, PROTEIN, RNA, Alphabet
from repro.errors import AlphabetError, SequenceError, TranslationError

# Both nucleotide alphabets give one base one code, so DNA codes read as
# RNA (and back) unchanged: transcription is a change of class, and a
# reading frame is the same bytes whichever chemistry it came from.
if DNA.symbols.replace("T", "U") != RNA.symbols:
    raise AlphabetError("DNA and RNA no longer share one code layout")


def _codes(alphabet: Alphabet, symbols: str) -> bytes:
    """Codes of those of *symbols* the alphabet has."""
    return bytes(alphabet.code(s) for s in symbols if s in alphabet)


def _all_but(alphabet: Alphabet, symbols: str) -> bytes:
    """Every code but those of *symbols*: deleting these from a code
    buffer leaves the *symbols* in it — one C pass, whatever their number
    (``len(codes.translate(None, all_but))`` counts them)."""
    return bytes(set(range(len(alphabet))) - set(_codes(alphabet, symbols)))


class SymbolTables(NamedTuple):
    """Code-level tables of one alphabet."""

    #: ``bytes.translate`` table code → complement code, if there is one.
    complement: "bytes | None"
    #: Codes of the symbols that stand for themselves (gap included).
    concrete: bytes
    #: ``bytes.translate`` table code → :data:`STRONG` for G, C, S
    #: (G-or-C: the GC numerator), :data:`WEAK` for A, T, U, W (A-or-T:
    #: the rest of the denominator), :data:`NEITHER` for any other.  One
    #: pass classifies a buffer of any number of sequences; ``count`` then
    #: reads each one's share (``gc_content``, row by row or page by page).
    gc_classes: bytes
    #: All but G, C, S …
    not_strong: bytes
    #: … and all but A, T, W: melting temperature is a DNA formula, and a
    #: U counts half like any other stranger.
    not_weak_dna: bytes
    #: ``bytes.translate`` table: a concrete code stays, any other reads
    #: :data:`AMBIGUOUS` — ``split`` there and the concrete runs are left.
    ambiguity: bytes
    #: By code, the ``bytes`` regex class of every code that may denote
    #: the same symbol (``A`` meets ``N``, ``R`` does not meet ``Y``).
    compatible: "tuple[bytes, ...]"
    #: By code, the concrete codes of that class: what a concrete pattern
    #: symbol may be to match it (``N`` → ``ACGT``, ``A`` → ``A``).
    denotes: "tuple[bytes, ...]"


#: The classes of :attr:`SymbolTables.gc_classes`, as ``bytes.count``
#: takes them.
STRONG, WEAK, NEITHER = b"SW."
#: What :attr:`SymbolTables.ambiguity` reads an ambiguity code as: no code.
AMBIGUOUS = b"\xff"


@lru_cache(maxsize=None)
def symbol_tables(alphabet: Alphabet) -> SymbolTables:
    complement = None
    if alphabet.has_complement:
        complement = bytes.maketrans(
            bytes(range(len(alphabet))),
            _codes(alphabet, "".join(map(alphabet.complement, alphabet))))
    concrete_symbols = "".join(
        s for s in alphabet if not alphabet.is_ambiguous(s))
    concrete = _codes(alphabet, concrete_symbols)
    meets = tuple(
        _codes(alphabet, "".join(
            s for s in alphabet if alphabet.matches(s, symbol)))
        for symbol in alphabet)
    return SymbolTables(
        complement,
        concrete,
        bytes(STRONG if symbol in "GCS" else WEAK if symbol in "ATUW"
              else NEITHER for symbol in alphabet.symbols.ljust(256)),
        _all_but(alphabet, "GCS"),
        _all_but(alphabet, "ATW"),
        bytes(code if code in concrete else AMBIGUOUS[0]
              for code in range(256)),
        tuple(b"[" + re.escape(codes) + b"]" for codes in meets),
        tuple(codes.translate(None, _all_but(alphabet, concrete_symbols))
              for codes in meets),
    )


def _is_noise(character: str) -> bool:
    return (character.isdigit() or character.isspace()
            or character in "/\\.,;:")


class _NoiseDeletions(dict):
    """``str.translate`` mapping that drops digits, whitespace and
    separators.  ASCII is spelt out below; any other code point is
    classified when met, so Unicode digits and spaces go too without
    enumerating Unicode at import."""

    def __missing__(self, codepoint: int) -> "int | None":
        return None if _is_noise(chr(codepoint)) else codepoint


#: What ``decode`` strips from raw repository text.
DECODE_DELETIONS = _NoiseDeletions(
    (codepoint, None if _is_noise(chr(codepoint)) else codepoint)
    for codepoint in range(128))


# ---------------------------------------------------------------------------
# physical properties, as vectors indexed by code
# ---------------------------------------------------------------------------

# Average monoisotopic-free residue masses (Da) of amino acids in a chain.
_RESIDUE_MASS = {
    "A": 71.0788, "R": 156.1875, "N": 114.1038, "D": 115.0886,
    "C": 103.1388, "E": 129.1155, "Q": 128.1307, "G": 57.0519,
    "H": 137.1411, "I": 113.1594, "L": 113.1594, "K": 128.1741,
    "M": 131.1926, "F": 147.1766, "P": 97.1167, "S": 87.0782,
    "T": 101.1051, "W": 186.2132, "Y": 163.1760, "V": 99.1326,
    "U": 150.0388, "O": 237.3018,
}
WATER_MASS = 18.01524

# Average masses (Da) of nucleotide monophosphates within a chain.
_DNA_BASE_MASS = {"A": 313.21, "C": 289.18, "G": 329.21, "T": 304.2}
_RNA_BASE_MASS = {"A": 329.21, "C": 305.18, "G": 345.21, "U": 306.17}
_NUCLEOTIDE_TERMINAL = WATER_MASS + 61.96  # 5'-phosphate adjustment

# pKa values for the isoelectric-point calculation (EMBOSS set).
_PKA_POSITIVE = {"K": 10.8, "R": 12.5, "H": 6.5}
_PKA_NEGATIVE = {"D": 3.9, "E": 4.1, "C": 8.5, "Y": 10.1}
PKA_N_TERMINUS = 8.6
PKA_C_TERMINUS = 3.6

# Kyte–Doolittle hydropathy index.
_KYTE_DOOLITTLE = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5,
    "Q": -3.5, "E": -3.5, "G": -0.4, "H": -3.2, "I": 4.5,
    "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8, "P": -1.6,
    "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
}


class MassTable(NamedTuple):
    """Average masses of one alphabet's symbols, by code."""

    #: An ambiguous symbol weighs the mean of its expansions; ``None``
    #: at the codes in :attr:`massless`.
    masses: "tuple[float | None, ...]"
    #: Gap, stop and symbols of no known mass.
    massless: bytes
    #: What the chain's ends add.
    terminal: float


def _mass_table(alphabet: Alphabet, known: Mapping[str, float],
                terminal: float) -> MassTable:
    masses: "list[float | None]" = []
    for symbol in alphabet:
        expansion = [known[s] for s in alphabet.expand(symbol) if s in known]
        if symbol in "-*" or not expansion:
            masses.append(None)
        elif symbol in known:
            masses.append(known[symbol])
        else:
            masses.append(sum(expansion) / len(expansion))
    massless = bytes(c for c, mass in enumerate(masses) if mass is None)
    return MassTable(tuple(masses), massless, terminal)


_MASS_TABLES = {
    PROTEIN: _mass_table(PROTEIN, _RESIDUE_MASS, WATER_MASS),
    RNA: _mass_table(RNA, _RNA_BASE_MASS, _NUCLEOTIDE_TERMINAL),
    DNA: _mass_table(DNA, _DNA_BASE_MASS, _NUCLEOTIDE_TERMINAL),
}


def mass_table(alphabet: Alphabet) -> MassTable:
    try:
        return _MASS_TABLES[alphabet]
    except KeyError:
        raise SequenceError(
            f"no mass table for alphabet {alphabet.name!r}") from None


#: ``(code, pKa)`` of the residues charged positive / negative below
#: their pKa, in the order the charge sum adds them.
PKA_POSITIVE = tuple(
    (PROTEIN.code(residue), pka) for residue, pka in _PKA_POSITIVE.items())
PKA_NEGATIVE = tuple(
    (PROTEIN.code(residue), pka) for residue, pka in _PKA_NEGATIVE.items())

#: Kyte–Doolittle score per protein code, ``0.0`` where there is none …
HYDROPATHY = tuple(_KYTE_DOOLITTLE.get(residue, 0.0) for residue in PROTEIN)
#: … and the codes where there is none.
UNSCORED = _codes(PROTEIN, "".join(
    residue for residue in PROTEIN if residue not in _KYTE_DOOLITTLE))


# ---------------------------------------------------------------------------
# per genetic code
# ---------------------------------------------------------------------------

#: The four bases a codon is spelt in, in code order.
_BASES = RNA.expand("N")

# A reading frame is two bytes per codon.  The *class* byte says what the
# codon does to a scan, and an open reading frame is a pattern over
# classes: a start, read to (not through) the next stop.  A match spans
# start … last sense codon; the byte after it is the stop.
PLAIN, START, STOP, START_AND_STOP = b".S*B"
OPEN_FRAME = re.compile(rb"[SB][^*B]*(?=[*B])")
# The *residue* byte spells the translation in ASCII, or is one of two
# values no residue symbol takes:
_UNRESOLVED = 0xFF         # not one of the 64 concrete codons: look closer
UNTRANSLATABLE = b"\xfe"   # no reading at all (a codon holding a gap)

# Codon index = 16·b1 + 4·b2 + b3 over the four bases.  Any other symbol
# adds 64, so an index ≥ 64 says "look closer" — and three lanes still sum
# inside one byte (3 · 64 < 256).
_LANES = tuple(
    bytes(weight * _BASES.index(symbol) if symbol in _BASES else 64
          for symbol in RNA.symbols.ljust(256))
    for weight in (16, 4, 1))


def codon_indexes(codes: bytes, frame: int = 0) -> bytes:
    """The codon index of every whole codon of one reading frame.

    Three strided slices, three ``translate`` calls and one big-integer
    addition whose byte lanes never carry: no per-codon Python.
    """
    count = (len(codes) - frame) // 3
    if count <= 0:
        return b""
    end = frame + 3 * count
    first, second, third = _LANES
    total = (
        int.from_bytes(codes[frame:end:3].translate(first), "big")
        + int.from_bytes(codes[frame + 1:end:3].translate(second), "big")
        + int.from_bytes(codes[frame + 2:end:3].translate(third), "big"))
    return total.to_bytes(count, "big")


#: By k, (bytes, ``array`` typecode) of the narrowest machine word that
#: holds k codes.
_WORDS = [min((array(code).itemsize, code) for code in "BHIQ"
              if array(code).itemsize >= k) for k in range(9)]


def kmer_keys(codes: bytes, k: int) -> "Sequence[int | tuple]":
    """Every length-*k* window of a code buffer, left to right, as one
    hashable key each: equal keys for equal windows, and no more.

    Up to a machine word a window *is* an integer: byte *j* of every word
    is one strided copy of ``codes[j:]``, so *k* C calls lay the windows
    out, one ``array`` read takes them and none is visited in Python.
    Past a word, a k-tuple of codes.
    """
    if k < 1:
        raise SequenceError("k must be positive")
    count = len(codes) - k + 1
    if count <= 0 or k >= len(_WORDS):
        return list(zip(*(codes[offset:] for offset in range(k))))
    width, typecode = _WORDS[k]
    words = bytearray(width * count)
    for offset in range(k):
        words[offset::width] = codes[offset:offset + count]
    return array(typecode, words)


#: By offset j in a window, ``translate`` table code → ``code << 2j`` …
_SHIFTS = [bytes(code << 2 * j & 0xFF for code in range(256))
           for j in range(4)]
#: … for the codes A, C, G, T/U: runs of them, and what deletes them.
BELOW_4_RUNS, _BELOW_4 = re.compile(rb"[\x00-\x03]+"), bytes(range(4))


def kmer_bytes(codes: bytes, k: int) -> "bytes | None":
    """Every length-*k* window of a code buffer as one byte, ``Σ code_j <<
    2j``, if *k* ≤ 4 and every code is below 4 (DNA or RNA without
    ambiguity codes or gaps); else ``None``.  One ``translate`` per offset
    lays its code's bits out, and the lanes OR as one integer sum."""
    count = max(len(codes) - k + 1, 0)
    if not 1 <= k <= 4 or codes.translate(None, _BELOW_4):
        return None
    return sum(int.from_bytes(codes[j:j + count].translate(_SHIFTS[j]), "big")
               for j in range(k)).to_bytes(count, "big")


class CodonLookup:
    """The byte tables of one genetic code: what a
    :class:`~repro.core.ops.codon.CodonTable` reads frames through."""

    def __init__(self, forward: Mapping[str, str],
                 start_codons: "frozenset[str]") -> None:
        self._forward = forward
        self._start_codons = start_codons
        concrete = [self._classify("".join(bases))
                    for bases in product(_BASES, repeat=3)]
        rest = bytes([_UNRESOLVED]) * (256 - len(concrete))
        self._residues = bytes(residue for residue, _ in concrete) + rest
        self._classes = bytes(kind for _, kind in concrete) + rest
        # The ambiguous-codon remainder, filled as codons are met: there
        # are 16³ − 64 of them and real data uses a handful.
        self._remainder: "dict[bytes, tuple[int, int]]" = {}
        #: The start codons as code strings, for ``bytes.find``.
        self.start_codes = tuple(
            RNA.encode(codon) for codon in sorted(start_codons)
            if len(codon) == 3 and all(base in RNA for base in codon))

    def amino_of(self, codon: str) -> str:
        """The reading of one upper-case RNA codon (``*`` for stop).

        A codon holding ambiguity codes reads ``X`` unless every
        expansion agrees (``GCN`` → ``A``, ``UAR`` → ``*``).
        """
        direct = self._forward.get(codon)
        if direct is not None:
            return direct
        candidates = {
            self._forward[expansion]
            for expansion in map("".join, product(*map(RNA.expand, codon)))
            if expansion in self._forward
        }
        if not candidates:
            raise TranslationError(f"untranslatable codon {codon!r}")
        return candidates.pop() if len(candidates) == 1 else "X"

    def _classify(self, codon: str) -> "tuple[int, int]":
        """(residue byte, class byte) of one codon."""
        start = codon in self._start_codons
        try:
            amino = self.amino_of(codon)
        except TranslationError:
            return UNTRANSLATABLE[0], START if start else PLAIN
        if len(amino) != 1 or not amino.isascii():
            raise TranslationError(
                f"codon {codon!r} reads {amino!r}: not one residue symbol")
        kinds = (PLAIN, START, STOP, START_AND_STOP)
        return ord(amino), kinds[start + 2 * (amino == "*")]

    def read(self, codes: bytes, frame: int = 0) -> "tuple[bytes, bytes]":
        """(residues, classes) of one reading frame.

        Never raises over a codon it cannot read: that residue is
        :data:`UNTRANSLATABLE`, and the caller says whether that is an
        error (``translate``) or an ``X`` (whole-sequence scans).
        """
        indexes = codon_indexes(codes, frame)
        residues = indexes.translate(self._residues)
        classes = indexes.translate(self._classes)
        at = residues.find(_UNRESOLVED)
        if at == -1:
            return residues, classes
        residues, classes = bytearray(residues), bytearray(classes)
        while at != -1:
            codon = codes[frame + 3 * at:frame + 3 * at + 3]
            if codon not in self._remainder:
                self._remainder[codon] = self._classify(RNA.decode(codon))
            residues[at], classes[at] = self._remainder[codon]
            at = residues.find(_UNRESOLVED, at + 1)
        return bytes(residues), bytes(classes)

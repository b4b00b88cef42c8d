"""IUPAC alphabets for nucleotide and amino-acid sequences.

An :class:`Alphabet` is an ordered set of single-character symbols with a
stable integer code for each symbol.  The codes are what
:class:`~repro.core.types.sequence.PackedSequence` packs into its compact
byte buffer, so **the symbol order of the module-level alphabets must never
change** once data has been serialized with them.

The nucleotide alphabets include the full IUPAC ambiguity codes; each
ambiguous symbol expands to the set of concrete bases it may stand for,
which is what motif matching with ambiguity (problem C9 in the paper: data
whose exact reading is uncertain) relies on.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import AlphabetError


class Alphabet:
    """An ordered, immutable set of single-character symbols.

    Parameters
    ----------
    name:
        Human-readable name (``"dna"``, ``"protein"``...).
    symbols:
        The symbols in code order; code *i* is ``symbols[i]``.
    ambiguity:
        Maps an ambiguous symbol to the string of concrete symbols it may
        stand for.  Concrete symbols map to themselves implicitly.
    complement:
        Maps each symbol to its complement symbol; empty for alphabets
        without a complement (proteins).
    """

    def __init__(
        self,
        name: str,
        symbols: str,
        ambiguity: Mapping[str, str] | None = None,
        complement: Mapping[str, str] | None = None,
    ) -> None:
        if len(set(symbols)) != len(symbols):
            raise AlphabetError(f"duplicate symbols in alphabet {name!r}")
        self.name = name
        self.symbols = symbols
        self._codes = {symbol: code for code, symbol in enumerate(symbols)}
        self._ambiguity = dict(ambiguity or {})
        for symbol in symbols:
            self._ambiguity.setdefault(symbol, symbol)
        self._complement = dict(complement or {})
        self.bits_per_symbol = max(1, (len(symbols) - 1).bit_length())
        # Translation tables for bulk encode/decode via bytes.translate,
        # which runs in C and dominates naive per-symbol loops.
        code_bytes = bytes(range(len(symbols)))
        symbol_bytes = symbols.encode("ascii")
        self._encode_table = bytes.maketrans(symbol_bytes, code_bytes)
        self._decode_table = bytes.maketrans(code_bytes, symbol_bytes)
        self._symbol_set = frozenset(symbols)
        # Immutable, and a key of every ``core.ops`` table lookup.
        self._hash = hash((name, symbols))

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._codes

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({self.name!r}, {len(self)} symbols)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.name == other.name and self.symbols == other.symbols

    def __hash__(self) -> int:
        return self._hash

    # -- coding ------------------------------------------------------------

    def code(self, symbol: str) -> int:
        """Return the integer code of *symbol*.

        Raises :class:`AlphabetError` for symbols outside the alphabet.
        """
        try:
            return self._codes[symbol]
        except KeyError:
            raise AlphabetError(
                f"symbol {symbol!r} is not in alphabet {self.name!r}"
            ) from None

    def symbol(self, code: int) -> str:
        """Return the symbol with integer code *code*."""
        try:
            return self.symbols[code]
        except IndexError:
            raise AlphabetError(
                f"code {code} is out of range for alphabet {self.name!r}"
            ) from None

    def encode(self, text: str) -> bytes:
        """Encode *text* to one code byte per symbol (pre-packing form)."""
        invalid = set(text) - self._symbol_set
        if invalid:
            bad = sorted(invalid)[0]
            raise AlphabetError(
                f"symbol {bad!r} is not in alphabet {self.name!r}"
            )
        return text.encode("ascii").translate(self._encode_table)

    def decode(self, codes: bytes) -> str:
        """Inverse of :meth:`encode`."""
        return codes.translate(self._decode_table).decode("ascii")

    # -- ambiguity and complement -------------------------------------------

    def expand(self, symbol: str) -> str:
        """Return the concrete symbols an (ambiguous) symbol stands for."""
        if symbol not in self._codes:
            raise AlphabetError(
                f"symbol {symbol!r} is not in alphabet {self.name!r}"
            )
        return self._ambiguity[symbol]

    def is_ambiguous(self, symbol: str) -> bool:
        """True if *symbol* stands for more than one concrete symbol."""
        return len(self.expand(symbol)) > 1

    def matches(self, first: str, second: str) -> bool:
        """True if two (possibly ambiguous) symbols can denote the same base.

        ``matches('N', 'A')`` is true, ``matches('R', 'Y')`` is false
        (purine vs. pyrimidine sets are disjoint).
        """
        return bool(set(self.expand(first)) & set(self.expand(second)))

    @property
    def has_complement(self) -> bool:
        return bool(self._complement)

    def complement(self, symbol: str) -> str:
        """Return the complement of *symbol* (nucleotide alphabets only)."""
        if not self._complement:
            raise AlphabetError(f"alphabet {self.name!r} has no complement")
        if symbol not in self._codes:
            raise AlphabetError(
                f"symbol {symbol!r} is not in alphabet {self.name!r}"
            )
        return self._complement[symbol]


def _nucleotide_ambiguity(t_or_u: str) -> dict[str, str]:
    """IUPAC ambiguity table with ``t_or_u`` as the thymine/uracil symbol."""
    t = t_or_u
    return {
        "R": "AG",
        "Y": "C" + t,
        "S": "CG",
        "W": "A" + t,
        "K": "G" + t,
        "M": "AC",
        "B": "CG" + t,
        "D": "AG" + t,
        "H": "AC" + t,
        "V": "ACG",
        "N": "ACG" + t,
    }


def _nucleotide_complement(t_or_u: str) -> dict[str, str]:
    t = t_or_u
    return {
        "A": t, t: "A", "C": "G", "G": "C",
        "R": "Y", "Y": "R", "S": "S", "W": "W",
        "K": "M", "M": "K", "B": "V", "V": "B",
        "D": "H", "H": "D", "N": "N", "-": "-",
    }


#: DNA with full IUPAC ambiguity codes and a gap symbol (16 symbols, 4 bits).
DNA = Alphabet(
    "dna",
    "ACGTRYSWKMBDHVN-",
    ambiguity=_nucleotide_ambiguity("T"),
    complement=_nucleotide_complement("T"),
)

#: RNA with full IUPAC ambiguity codes and a gap symbol (16 symbols, 4 bits).
RNA = Alphabet(
    "rna",
    "ACGURYSWKMBDHVN-",
    ambiguity=_nucleotide_ambiguity("U"),
    complement=_nucleotide_complement("U"),
)

#: The 20 standard amino acids, ambiguity codes (B, Z, J, X), stop (*),
#: selenocysteine (U), pyrrolysine (O) and a gap symbol.
PROTEIN = Alphabet(
    "protein",
    "ACDEFGHIKLMNPQRSTVWYBZJXUO*-",
    ambiguity={
        "B": "DN",
        "Z": "EQ",
        "J": "IL",
        "X": "ACDEFGHIKLMNPQRSTVWY",
    },
)

#: Unambiguous DNA (used by generators that must emit concrete bases).
STRICT_DNA = Alphabet(
    "strict_dna",
    "ACGT",
    complement={"A": "T", "T": "A", "C": "G", "G": "C"},
)


_BY_NAME = {
    alphabet.name: alphabet for alphabet in (DNA, RNA, PROTEIN, STRICT_DNA)
}


def alphabet_by_name(name: str) -> Alphabet:
    """Look up one of the module-level alphabets by its name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlphabetError(f"no registered alphabet named {name!r}") from None

"""Genetic codes (codon tables) and codon-level translation machinery.

The standard genetic code plus the common NCBI variants the paper's
extensibility story needs (new tables can be registered at run time, which
is exactly the "integration of new specialty evaluation functions" of
requirement C14).

Tables are keyed by their NCBI ``transl_table`` id, which is what GenBank
feature qualifiers (``/transl_table=2``) carry and what the wrappers pass
through.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator

from repro.core.ops._tables import CodonLookup
from repro.errors import AlphabetError, TranslationError

_BASES = "UCAG"

#: The standard code in NCBI's compact 64-character layout: the amino acid
#: for codon (b1, b2, b3) with bases ordered U, C, A, G and b1 varying
#: slowest.  '*' marks stop codons.
_STANDARD_AAS = (
    "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
)


def _codons() -> Iterator[str]:
    return map("".join, product(_BASES, repeat=3))


class CodonTable:
    """A genetic code: codon → amino acid, with start and stop codon sets."""

    def __init__(
        self,
        table_id: int,
        name: str,
        forward: Dict[str, str],
        start_codons: frozenset[str],
    ) -> None:
        self.table_id = table_id
        self.name = name
        self._forward = dict(forward)
        self.start_codons = frozenset(start_codons)
        self.stop_codons = frozenset(
            codon for codon, amino in self._forward.items() if amino == "*"
        )
        #: The code as byte tables: what the operators read frames through.
        self.lookup = CodonLookup(self._forward, self.start_codons)

    def __repr__(self) -> str:
        return f"CodonTable({self.table_id}, {self.name!r})"

    def amino_acid(self, codon: str) -> str:
        """Translate one RNA codon (``*`` for stop).

        Codons containing ambiguity codes translate to ``X`` unless every
        expansion agrees (e.g. ``GCN`` → ``A`` because all four GC_ codons
        encode alanine).
        """
        codon = codon.upper().replace("T", "U")
        if len(codon) != 3:
            raise TranslationError(f"codon must have 3 bases, got {codon!r}")
        return self.lookup.amino_of(codon)

    def is_start(self, codon: str) -> bool:
        """True for a codon spelt exactly as one of :attr:`start_codons`.

        Set membership, not translation: an ambiguous codon is never a
        start, even when every expansion of it is one.
        """
        return codon.upper().replace("T", "U") in self.start_codons

    def is_stop(self, codon: str) -> bool:
        """True when the codon translates to ``*``.

        The same table translation reads, so ``UAR`` (UAA or UAG) is a
        stop under the standard code; a codon with no translation at all
        is not.
        """
        try:
            return self.amino_acid(codon) == "*"
        except (TranslationError, AlphabetError):
            return False

    @classmethod
    def from_differences(
        cls,
        table_id: int,
        name: str,
        differences: Dict[str, str],
        start_codons: frozenset[str],
    ) -> "CodonTable":
        """Build a variant code as deltas from the standard table."""
        forward = dict(zip(_codons(), _STANDARD_AAS))
        forward.update(differences)
        return cls(table_id, name, forward, start_codons)


STANDARD = CodonTable(
    1,
    "Standard",
    dict(zip(_codons(), _STANDARD_AAS)),
    frozenset({"AUG", "GUG", "UUG"}),
)

VERTEBRATE_MITOCHONDRIAL = CodonTable.from_differences(
    2,
    "Vertebrate Mitochondrial",
    {"AGA": "*", "AGG": "*", "AUA": "M", "UGA": "W"},
    frozenset({"AUG", "AUA", "AUU", "AUC", "GUG"}),
)

YEAST_MITOCHONDRIAL = CodonTable.from_differences(
    3,
    "Yeast Mitochondrial",
    {"AUA": "M", "CUU": "T", "CUC": "T", "CUA": "T", "CUG": "T", "UGA": "W"},
    frozenset({"AUA", "AUG", "GUG"}),
)

MOLD_PROTOZOAN_MITOCHONDRIAL = CodonTable.from_differences(
    4,
    "Mold/Protozoan Mitochondrial and Mycoplasma",
    {"UGA": "W"},
    frozenset({"AUG", "AUA", "AUU", "AUC", "GUG", "UUG", "UUA", "CUG"}),
)

BACTERIAL = CodonTable.from_differences(
    11,
    "Bacterial, Archaeal and Plant Plastid",
    {},
    frozenset({"AUG", "GUG", "UUG", "AUA", "AUU", "AUC", "CUG"}),
)


_TABLES: Dict[int, CodonTable] = {
    table.table_id: table
    for table in (
        STANDARD,
        VERTEBRATE_MITOCHONDRIAL,
        YEAST_MITOCHONDRIAL,
        MOLD_PROTOZOAN_MITOCHONDRIAL,
        BACTERIAL,
    )
}


def codon_table(table_id: int) -> CodonTable:
    """Look up a genetic code by NCBI ``transl_table`` id."""
    try:
        return _TABLES[table_id]
    except KeyError:
        raise TranslationError(
            f"no codon table registered with id {table_id}"
        ) from None


def register_codon_table(table: CodonTable, replace: bool = False) -> None:
    """Register a user-defined genetic code (extensibility, C14)."""
    if table.table_id in _TABLES and not replace:
        raise TranslationError(
            f"codon table id {table.table_id} already registered"
        )
    _TABLES[table.table_id] = table


def available_codon_tables() -> tuple[int, ...]:
    """The registered ``transl_table`` ids, ascending."""
    return tuple(sorted(_TABLES))

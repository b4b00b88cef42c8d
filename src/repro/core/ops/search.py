"""Subsequence and motif search, including IUPAC-ambiguity matching.

``contains`` is the paper's worked example of a genomic predicate embedded
in SQL (section 6.3)::

    SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA')

Exact search runs on the packed code buffers (a C-speed ``bytes.find``);
ambiguous search compares symbol sets position by position, so a pattern
like ``TATAWAW`` (the TATA box) matches every concrete instantiation, and
an ambiguous *subject* base like ``N`` matches any pattern base — which is
how uncertain repository data (C9) still participates in queries.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

from repro.core.ops._tables import symbol_tables
from repro.core.types.alphabet import Alphabet
from repro.core.types.sequence import PackedSequence
from repro.errors import SequenceError


def _pattern_sequence(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> PackedSequence:
    if isinstance(pattern, PackedSequence):
        if pattern.alphabet != subject.alphabet:
            raise SequenceError(
                f"pattern alphabet {pattern.alphabet.name!r} does not match "
                f"subject alphabet {subject.alphabet.name!r}"
            )
        return pattern
    return type(subject)(pattern)


def concrete_codes(alphabet: Alphabet) -> bytes:
    """Codes of the symbols that stand for themselves: deleting them from
    a code buffer (``codes.translate(None, …)``) leaves its ambiguity."""
    return symbol_tables(alphabet).concrete


def has_ambiguity(alphabet: Alphabet, codes: bytes) -> bool:
    """True when *codes* hold a symbol that stands for more than itself."""
    return bool(codes.translate(None, concrete_codes(alphabet)))


def find_exact(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> Iterator[int]:
    """Yield every (possibly overlapping) exact occurrence start."""
    needle = _pattern_sequence(subject, pattern).codes()
    haystack = subject.codes()
    if not needle:
        return
    position = haystack.find(needle)
    while position != -1:
        yield position
        position = haystack.find(needle, position + 1)


@lru_cache(maxsize=512)
def _compatibility_class(alphabet_name: str, pattern_symbol: str) -> str:
    """All alphabet symbols whose expansion intersects the pattern's."""
    from repro.core.types.alphabet import alphabet_by_name

    alphabet = alphabet_by_name(alphabet_name)
    return "".join(
        symbol for symbol in alphabet.symbols
        if alphabet.matches(symbol, pattern_symbol)
    )


@lru_cache(maxsize=512)
def _motif_regex(alphabet_name: str, pattern_text: str) -> "re.Pattern[str]":
    """A compiled regex matching the motif under two-way IUPAC semantics.

    Each pattern symbol becomes a character class of every subject symbol
    it could denote (pattern ``A`` matches subject ``N`` because N may be
    an A), so both pattern- and subject-side ambiguity are honoured by a
    single C-speed scan.  The lookahead wrapper yields overlapping hits.
    """
    classes = "".join(
        "[" + re.escape(_compatibility_class(alphabet_name, symbol)) + "]"
        for symbol in pattern_text
    )
    return re.compile(f"(?={classes})")


def find_motif(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> Iterator[int]:
    """Yield every occurrence start, honouring IUPAC ambiguity both ways.

    A position matches when the symbol sets of pattern base and subject
    base intersect (``alphabet.matches``).  Uses the fast exact scanner
    when neither side contains ambiguity codes, and a compiled
    compatibility-class regex otherwise.
    """
    alphabet = subject.alphabet
    pattern_seq = _pattern_sequence(subject, pattern)
    if not pattern_seq or len(pattern_seq) > len(subject):
        return
    if not (has_ambiguity(alphabet, pattern_seq.codes())
            or has_ambiguity(alphabet, subject.codes())):
        yield from find_exact(subject, pattern_seq)
        return

    regex = _motif_regex(alphabet.name, str(pattern_seq))
    for match in regex.finditer(str(subject)):
        yield match.start()


def contains(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> bool:
    """The SQL-embeddable predicate of section 6.3 (ambiguity-aware)."""
    return next(find_motif(subject, pattern), None) is not None


def count_occurrences(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> int:
    """Number of (possibly overlapping) motif occurrences."""
    return sum(1 for _ in find_motif(subject, pattern))


def first_occurrence(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> int:
    """Start of the first motif occurrence, or ``-1`` when absent."""
    return next(find_motif(subject, pattern), -1)

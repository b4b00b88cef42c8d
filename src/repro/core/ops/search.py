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
from functools import cached_property, lru_cache
from typing import Iterator, Type

from repro.core.ops._tables import symbol_tables
from repro.core.types.alphabet import Alphabet
from repro.core.types.sequence import PackedSequence
from repro.errors import SequenceError


def has_ambiguity(alphabet: Alphabet, codes: bytes) -> bool:
    """True when *codes* hold a symbol that stands for more than itself
    (deleting the concrete codes leaves something)."""
    return bool(codes.translate(None, symbol_tables(alphabet).concrete))


class Pattern:
    """A pattern operand read as a value of the subject's type: text is
    upper-cased and alphabet-checked, a sequence must share the alphabet.

    The one reading of a pattern under the predicates, both genomic
    indexes and the page kernel, so none can find what another refuses.
    """

    def __init__(self, klass: Type[PackedSequence],
                 pattern: "PackedSequence | str") -> None:
        if isinstance(pattern, str):
            pattern = klass(pattern)
        elif pattern.alphabet != klass.alphabet:
            raise SequenceError(
                f"pattern alphabet {pattern.alphabet.name!r} does not match "
                f"subject alphabet {klass.alphabet.name!r}"
            )
        self.sequence = pattern
        self.codes = pattern.codes()
        self.ambiguous = has_ambiguity(klass.alphabet, self.codes)

    @cached_property
    def regex(self) -> "re.Pattern[bytes]":
        """The motif under two-way IUPAC semantics, over code buffers.

        Each pattern code becomes the class of every subject code it could
        denote (pattern ``A`` matches subject ``N`` because N may be an
        A), so both pattern- and subject-side ambiguity are honoured by a
        single C-speed scan.  The lookahead wrapper yields overlapping hits.
        """
        classes = symbol_tables(self.sequence.alphabet).compatible
        return re.compile(
            b"(?=" + b"".join(map(classes.__getitem__, self.codes)) + b")")


#: A predicate's constant operand is read once per distinct value, not
#: once per row.
read_pattern = lru_cache(maxsize=512)(Pattern)


def pattern_or_none(klass: Type[PackedSequence],
                    pattern: object) -> "Pattern | None":
    """:func:`read_pattern`, or ``None`` where there is no reading: an
    access path (index, page kernel) then leaves the rows to the
    predicate, which says why it refuses."""
    if not isinstance(pattern, (str, PackedSequence)):
        return None
    try:
        return read_pattern(klass, pattern)
    except SequenceError:  # AlphabetError included
        return None


def find_exact(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> Iterator[int]:
    """Yield every (possibly overlapping) exact occurrence start."""
    return _find_exact(subject.codes(),
                       read_pattern(type(subject), pattern).codes)


def _find_exact(haystack: bytes, needle: bytes) -> Iterator[int]:
    if not needle:
        return
    position = haystack.find(needle)
    while position != -1:
        yield position
        position = haystack.find(needle, position + 1)


def find_motif(
    subject: PackedSequence, pattern: "PackedSequence | str"
) -> Iterator[int]:
    """Yield every occurrence start, honouring IUPAC ambiguity both ways.

    A position matches when the symbol sets of pattern base and subject
    base intersect (``alphabet.matches``).  Uses the fast exact scanner
    when neither side contains ambiguity codes, and the pattern's
    compatibility-class regex otherwise.
    """
    read = read_pattern(type(subject), pattern)
    haystack = subject.codes()
    if not read.codes or len(read.codes) > len(haystack):
        return
    if read.ambiguous or has_ambiguity(subject.alphabet, haystack):
        for match in read.regex.finditer(haystack):
            yield match.start()
    else:
        yield from _find_exact(haystack, read.codes)


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

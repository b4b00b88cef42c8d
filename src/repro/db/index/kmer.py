"""A k-mer inverted index for genomic ``contains`` queries (section 6.5).

For every indexed sequence, all length-*k* words are recorded in an
inverted index ``word → {row ids}``.  A ``contains(column, pattern)``
query intersects the posting sets of the pattern's k-mers: any row truly
containing the pattern must contain every one of its k-mers, so the
intersection is a sound candidate set.  The executor re-verifies each
candidate against the real predicate, so over-approximation is fine —
what must never happen is a missed true match.

Ambiguity codes (the uncertain data of C9) threaten exactly that, in two
directions, and both are handled:

- **ambiguous subjects**: a stored ``ATN`` matches the pattern ``ATG``
  under IUPAC semantics, but its k-mers differ.  Rows holding any
  ambiguity code of their alphabet are kept in a *wildcard set* that is
  always added to the candidates.
- **ambiguous patterns**: a pattern k-mer like ``ATW`` never occurs
  literally in concrete subjects, so only fully concrete k-mers are
  posted or probed; a pattern with no concrete k-mer cannot be narrowed
  (``None`` → scan).

Patterns shorter than *k* cannot be narrowed either, nor can one the
predicate would refuse.  A word is ``kmer_keys``' integer, never text.
"""

from __future__ import annotations

from typing import Any

from repro.core.ops._tables import AMBIGUOUS, kmer_keys, symbol_tables
from repro.core.ops.search import Pattern
from repro.db.index.base import SequenceIndex
from repro.errors import DatabaseError


class KmerIndex(SequenceIndex):
    """Inverted k-mer index over a sequence-valued column."""

    def __init__(self, name: str, table_name: str, column: str,
                 k: int = 8) -> None:
        super().__init__(name, table_name, column)
        if k < 2:
            raise DatabaseError("k-mer length must be at least 2")
        self.k = k
        self._postings: dict["int | tuple", set[int]] = {}
        self._rows: set[int] = set()
        self._wildcard_rows: set[int] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._postings.clear()
        self._rows.clear()
        self._wildcard_rows.clear()

    def _words(self, read: Pattern) -> "set[int | tuple]":
        """The concrete k-mers of a value: those of its concrete runs."""
        if not read.ambiguous:
            return set(kmer_keys(read.codes, self.k))
        tables = symbol_tables(read.sequence.alphabet)
        words: set = set()
        for run in read.codes.translate(tables.ambiguity).split(AMBIGUOUS):
            words.update(kmer_keys(run, self.k))
        return words

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        read = self._value(key)
        self._rows.add(row_id)
        if read.ambiguous:
            self._wildcard_rows.add(row_id)
        for word in self._words(read):
            self._postings.setdefault(word, set()).add(row_id)

    def delete(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        self._rows.discard(row_id)
        self._wildcard_rows.discard(row_id)
        for word in self._words(self._value(key)):
            bucket = self._postings.get(word)
            if bucket is not None:
                bucket.discard(row_id)
                if not bucket:
                    del self._postings[word]

    def search_contains(self, pattern: Any) -> "set[int] | None":
        read = self._pattern(pattern)
        words = self._words(read) if read is not None else ()
        if not words:
            # Refused by the predicate, shorter than k, or ambiguous in
            # every k-mer: cannot narrow; caller must scan.
            return None
        # Smallest posting lists first: an empty intersection stays free.
        postings = sorted(
            (self._postings.get(word, set()) for word in words), key=len)
        # Ambiguous subjects can match without sharing literal k-mers.
        return set.intersection(*postings) | self._wildcard_rows

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
  under IUPAC semantics, but its k-mers differ.  Rows whose text contains
  any symbol from ``ambiguous_symbols`` are kept in a *wildcard set* that
  is always added to the candidates.
- **ambiguous patterns**: a pattern k-mer like ``ATW`` never occurs
  literally in concrete subjects, so only the pattern's fully concrete
  k-mers participate in the intersection; a pattern with no concrete
  k-mer cannot be narrowed (``None`` → scan).

Patterns shorter than *k* cannot be narrowed either.
"""

from __future__ import annotations

from typing import Any

from repro.core.ops.similarity import windows
from repro.db.index.base import Index
from repro.errors import DatabaseError

#: IUPAC nucleotide ambiguity codes (the default; pass ``"BZJX"`` for
#: protein columns).
NUCLEOTIDE_AMBIGUITY = "RYSWKMBDHVN"


def _text_of(value: Any) -> str | None:
    """The indexable text of a value: a str or anything str()-able
    sequence-like (PackedSequence)."""
    if value is None:
        return None
    return str(value)


class KmerIndex(Index):
    """Inverted k-mer index over a sequence-valued column."""

    supports_contains = True

    def __init__(self, name: str, table_name: str, column: str,
                 k: int = 8,
                 ambiguous_symbols: str = NUCLEOTIDE_AMBIGUITY) -> None:
        super().__init__(name, table_name, column)
        if k < 2:
            raise DatabaseError("k-mer length must be at least 2")
        self.k = k
        self._ambiguous = frozenset(ambiguous_symbols)
        self._postings: dict[str, set[int]] = {}
        self._rows: set[int] = set()
        self._wildcard_rows: set[int] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._postings.clear()
        self._rows.clear()
        self._wildcard_rows.clear()

    def _words(self, text: str) -> set[str]:
        return set(map("".join, windows(text, self.k)))

    def _is_concrete(self, text: str) -> bool:
        return not (set(text) & self._ambiguous)

    def insert(self, key: Any, row_id: int) -> None:
        text = _text_of(key)
        if text is None:
            return
        self._rows.add(row_id)
        if not self._is_concrete(text):
            self._wildcard_rows.add(row_id)
        for word in self._words(text):
            self._postings.setdefault(word, set()).add(row_id)

    def delete(self, key: Any, row_id: int) -> None:
        text = _text_of(key)
        if text is None:
            return
        self._rows.discard(row_id)
        self._wildcard_rows.discard(row_id)
        for word in self._words(text):
            bucket = self._postings.get(word)
            if bucket is not None:
                bucket.discard(row_id)
                if not bucket:
                    del self._postings[word]

    def search_contains(self, pattern: str) -> "set[int] | None":
        text = str(pattern)
        if len(text) < self.k:
            return None  # cannot narrow; caller must scan
        concrete_words = [
            word for word in self._words(text) if self._is_concrete(word)
        ]
        if not concrete_words:
            return None  # fully ambiguous pattern: cannot narrow
        # Intersect smallest posting lists first for an early exit.
        postings = sorted(
            (self._postings.get(word, set()) for word in concrete_words),
            key=len,
        )
        candidates: set[int] | None = None
        for posting in postings:
            candidates = (set(posting) if candidates is None
                          else candidates & posting)
            if not candidates:
                break
        matched = candidates if candidates is not None else set()
        # Ambiguous subjects can match without sharing literal k-mers.
        return matched | self._wildcard_rows

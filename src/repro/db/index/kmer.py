"""A k-mer inverted index for genomic ``contains`` queries (section 6.5).

For every distinct indexed sequence, all length-*k* words are recorded
in an inverted index ``word → {value ids}``; a value id names one stored
value and the rows holding it.  A ``contains(column, pattern)`` query
intersects the posting sets of the pattern's k-mers and answers the rows
of the surviving values: any row truly containing the pattern must
contain every one of its k-mers, so the intersection is a sound
candidate set.  The executor re-verifies each candidate against the real
predicate, so over-approximation is fine — what must never happen is a
missed true match.

Values, not rows, are posted because an upsert is a DELETE and an INSERT
of (usually) the same sequence.  A DELETE only detaches its row; a value
whose last row left stays posted as the one *vacant* value, which the
next insert of an equal value adopts without touching a posting.  Any
other insert (or ``clear``) purges it first.

Ambiguity codes (the uncertain data of C9) threaten soundness, in two
directions, and both are handled:

- **ambiguous subjects**: a stored ``ATN`` matches the pattern ``ATG``
  under IUPAC semantics, but its k-mers differ.  Rows holding any
  ambiguity code of their alphabet are kept in a *wildcard set* that is
  always added to the candidates — so their words are never posted.
- **ambiguous patterns**: a pattern k-mer like ``ATW`` never occurs
  literally in concrete subjects, so only fully concrete k-mers are
  probed; a pattern with no concrete k-mer cannot be narrowed (``None``
  → scan).

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
        self.clear()

    def __len__(self) -> int:
        return len(self._value_of) + len(self._wildcard_rows)

    def clear(self) -> None:
        self._postings: dict["int | tuple", set[int]] = {}
        #: concrete stored value (the row's own object) → value id
        self._ids: dict[Any, int] = {}
        #: value id → rows holding it (empty only for the vacant value)
        self._holders: dict[int, set[int]] = {}
        #: row id → value id, for rows of concrete values
        self._value_of: dict[int, int] = {}
        self._wildcard_rows: set[int] = set()
        #: ``(value id, value)`` posted with no row left, or ``None``
        self._vacant: "tuple[int, Any] | None" = None
        self._next_id = 0

    def _words(self, read: Pattern) -> "set[int | tuple]":
        """The concrete k-mers of a value: those of its concrete runs."""
        if not read.ambiguous:
            return set(kmer_keys(read.codes, self.k))
        tables = symbol_tables(read.sequence.alphabet)
        words: set = set()
        for run in read.codes.translate(tables.ambiguity).split(AMBIGUOUS):
            words.update(kmer_keys(run, self.k))
        return words

    def _purge(self) -> None:
        """Unpost the vacant value, if there is one."""
        if self._vacant is None:
            return
        vid, key = self._vacant
        self._vacant = None
        del self._ids[key], self._holders[vid]
        for word in self._words(self._value(key)):
            bucket = self._postings[word]
            bucket.discard(vid)
            if not bucket:
                del self._postings[word]

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        vid = self._ids.get(key)
        if self._vacant is not None and self._vacant[0] == vid:
            self._vacant = None             # adopted: nothing to post
        else:
            self._purge()
        if vid is None:
            read = self._value(key)
            if read.ambiguous:
                self._wildcard_rows.add(row_id)
                return
            vid = self._next_id
            self._next_id += 1
            self._ids[key] = vid
            self._holders[vid] = set()
            postings = self._postings
            for word in self._words(read):
                postings.setdefault(word, set()).add(vid)
        self._holders[vid].add(row_id)
        self._value_of[row_id] = vid

    def delete(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        vid = self._value_of.pop(row_id, None)
        if vid is None:
            self._wildcard_rows.discard(row_id)
            return
        rows = self._holders[vid]
        rows.discard(row_id)
        if not rows:
            self._purge()
            self._vacant = (vid, key)

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
        return self._wildcard_rows.union(
            *map(self._holders.__getitem__, set.intersection(*postings)))

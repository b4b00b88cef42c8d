"""A k-mer inverted index for genomic ``contains`` queries (section 6.5).

For every distinct indexed sequence, all length-*k* words are recorded
in an inverted index ``word → (value ids)``; a value id names one stored
value and the rows holding it.  A ``contains(column, pattern)`` query
intersects the postings of the pattern's k-mers and answers the rows of
the surviving values: any row truly containing the pattern must contain
every one of its k-mers, so the intersection is a sound candidate set.
The executor re-verifies each candidate against the real predicate, so
over-approximation is fine — what must never happen is a missed true
match.  A posting is a tuple, not a set: most words name one value.

Values, not rows, are posted because an upsert is a DELETE and an INSERT
of (usually) the same sequence.  A DELETE only detaches its row; a value
whose last row left stays posted as the one *vacant* value.  The next
insert of an equal value adopts it without touching a posting; the next
new value takes over its id and re-posts only the words that differ.

Ambiguity codes (the uncertain data of C9) threaten soundness, in two
directions, and both are handled:

- **ambiguous subjects**: a stored ``ATN`` matches the pattern ``ATG``
  under IUPAC semantics, but its k-mers differ.  A concrete k-mer
  matches a window exactly when it is one of the window's *spellings*,
  so a window holding one ambiguity code is posted once per concrete
  code it may denote (``SymbolTables.denotes``: four for ``N``).  Only a
  value with two ambiguity codes closer than *k* is left unposted, in a
  *wildcard set* that is always added to the candidates.
- **ambiguous patterns**: a pattern k-mer like ``ATW`` is never posted,
  so only fully concrete k-mers are probed; a pattern with no concrete
  k-mer cannot be narrowed (``None`` → scan).

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
        self._postings: dict["int | tuple", tuple[int, ...]] = {}
        #: posted stored value (the row's own object) → value id
        self._ids: dict[Any, int] = {}
        #: value id → rows holding it (empty only for the vacant value)
        self._holders: dict[int, set[int]] = {}
        #: row id → value id, for rows of posted values
        self._value_of: dict[int, int] = {}
        self._wildcard_rows: set[int] = set()
        #: ``(value id, value)`` posted with no row left, or ``None``
        self._vacant: "tuple[int, Any] | None" = None
        self._next_id = 0

    def _words(self, read: Pattern) -> "set[int | tuple]":
        """The concrete k-mers of a pattern: those of its concrete runs."""
        if not read.ambiguous:
            return set(kmer_keys(read.codes, self.k))
        tables = symbol_tables(read.sequence.alphabet)
        words: set = set()
        for run in read.codes.translate(tables.ambiguity).split(AMBIGUOUS):
            words.update(kmer_keys(run, self.k))
        return words

    def _spellings(self, read: Pattern) -> "set[int | tuple] | None":
        """Every spelling of every window of a stored value, or ``None``
        when two ambiguity codes are closer than *k*."""
        k, codes = self.k, read.codes
        keys = kmer_keys(codes, k)
        words = set(keys)
        if not read.ambiguous:
            return words
        tables = symbol_tables(read.sequence.alphabet)
        marked = codes.translate(tables.ambiguity)
        previous, at = -k, marked.find(AMBIGUOUS)
        while at != -1:
            if at - previous < k:
                return None
            # The windows holding this code: drop them as stored, then
            # add them once per concrete code it denotes — every spelling
            # in one buffer, one ``kmer_keys``, each spelling's windows
            # sliced out (the ones across two spellings are not).
            start = max(at - k + 1, 0)
            words.difference_update(keys[start:at + 1])
            head, tail = codes[start:at], codes[at + 1:at + k]
            width = len(head) + 1 + len(tail)
            denoted = tables.denotes[codes[at]]
            spelt = kmer_keys(b"".join(
                head + bytes((code,)) + tail for code in denoted), k)
            for offset in range(0, len(denoted) * width, width):
                words.update(spelt[offset:offset + width - k + 1])
            previous, at = at, marked.find(AMBIGUOUS, at + 1)
        return words

    def _post(self, vid: int, words: "set[int | tuple]") -> None:
        # ``() + alone`` is ``alone``: a value's one-value postings share
        # one tuple.
        postings, alone = self._postings, (vid,)
        for word in words:
            postings[word] = postings.get(word, ()) + alone

    def _unpost(self, vid: int, words: "set[int | tuple]") -> None:
        postings = self._postings
        for word in words:
            ids = postings[word]
            if len(ids) == 1:
                del postings[word]
            else:
                at = ids.index(vid)
                postings[word] = ids[:at] + ids[at + 1:]

    def _purge(self) -> None:
        """Unpost the vacant value, if there is one."""
        if self._vacant is None:
            return
        vid, key = self._vacant
        self._vacant = None
        del self._ids[key], self._holders[vid]
        self._unpost(vid, self._spellings(self._value(key)))

    def _add_value(self, key: Any) -> "int | None":
        """Post a new value; its id, or ``None`` if it is a wildcard.

        The vacant value, if any, is re-spelt as this one: it keeps its
        id and only the words the two do not share change.
        """
        words = self._spellings(self._value(key))
        if words is None:
            return None
        if self._vacant is None:
            vid = self._next_id
            self._next_id += 1
            self._holders[vid] = set()
            self._post(vid, words)
        else:
            vid, old = self._vacant
            self._vacant = None
            del self._ids[old]
            old_words = self._spellings(self._value(old))
            self._unpost(vid, old_words - words)
            self._post(vid, words - old_words)
        self._ids[key] = vid
        return vid

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        vid = self._ids.get(key)
        if vid is None:
            vid = self._add_value(key)
            if vid is None:
                self._wildcard_rows.add(row_id)
                return
        elif self._vacant is not None and self._vacant[0] == vid:
            self._vacant = None             # adopted: nothing to post
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
        # A set from the shortest posting: an empty one keeps it free.
        shortest, *rest = sorted(
            (self._postings.get(word, ()) for word in words), key=len)
        # Values too ambiguous to spell can match without sharing a word.
        return self._wildcard_rows.union(*map(
            self._holders.__getitem__, set(shortest).intersection(*rest)))

"""A suffix-array index for exact genomic substring search (section 6.5).

All indexed texts are concatenated (separated by a sentinel below any
alphabet symbol) and one suffix array is built over the corpus with the
**prefix-doubling** algorithm — O(n log² n) time, O(n) memory, no suffix
strings ever materialized.  A substring query binary-searches the array
for the pattern's prefix range and maps the matching corpus positions
back to their owning rows.

Exact for concrete patterns over concrete subjects; rows holding
ambiguity codes are kept as wildcard candidates (the executor's residual
filter re-verifies them), and ambiguous patterns — like any the
predicate would refuse — fall back to a scan, so IUPAC matching stays
sound.  The array is rebuilt lazily after
mutations, matching warehouse usage (bulk load, then read-mostly).
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.db.index.base import SequenceIndex

#: Separator between documents in the corpus; sorts below every symbol
#: and never occurs in sequence data, so matches cannot cross documents.
_SEPARATOR = "\x00"


def build_suffix_array(text: str) -> list[int]:
    """The suffix array of *text* by prefix doubling (O(n log² n))."""
    n = len(text)
    if n == 0:
        return []
    order = list(range(n))
    rank = [ord(ch) for ch in text]
    step = 1
    while True:
        def sort_key(position: int) -> tuple[int, int]:
            tail = rank[position + step] if position + step < n else -1
            return (rank[position], tail)

        order.sort(key=sort_key)
        next_rank = [0] * n
        previous_key = sort_key(order[0])
        for index in range(1, n):
            current_key = sort_key(order[index])
            next_rank[order[index]] = (
                next_rank[order[index - 1]]
                + (1 if current_key != previous_key else 0)
            )
            previous_key = current_key
        rank = next_rank
        if rank[order[-1]] == n - 1:
            return order
        step *= 2


class SuffixArrayIndex(SequenceIndex):
    """Global suffix array over a sequence-valued column."""

    def __init__(self, name: str, table_name: str, column: str) -> None:
        super().__init__(name, table_name, column)
        self._texts: dict[int, str] = {}        # row id -> text
        self._wildcard_rows: set[int] = set()
        self._corpus = ""
        self._suffix_array: list[int] = []
        self._document_starts: list[int] = []   # corpus offset per document
        self._document_rows: list[int] = []     # parallel: owning row id
        self._dirty = True

    def __len__(self) -> int:
        return len(self._texts)

    def clear(self) -> None:
        self._texts.clear()
        self._wildcard_rows.clear()
        self._corpus = ""
        self._suffix_array = []
        self._document_starts = []
        self._document_rows = []
        self._dirty = True

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            return
        read = self._value(key)
        self._texts[row_id] = str(read.sequence)
        if read.ambiguous:
            self._wildcard_rows.add(row_id)
        self._dirty = True

    def delete(self, key: Any, row_id: int) -> None:
        if self._texts.pop(row_id, None) is not None:
            self._wildcard_rows.discard(row_id)
            self._dirty = True

    def _rebuild(self) -> None:
        pieces: list[str] = []
        starts: list[int] = []
        rows: list[int] = []
        position = 0
        for row_id in sorted(self._texts):
            text = self._texts[row_id]
            starts.append(position)
            rows.append(row_id)
            pieces.append(text)
            pieces.append(_SEPARATOR)
            position += len(text) + 1
        self._corpus = "".join(pieces)
        self._suffix_array = build_suffix_array(self._corpus)
        self._document_starts = starts
        self._document_rows = rows
        self._dirty = False

    def _row_of_position(self, position: int) -> int:
        slot = bisect.bisect_right(self._document_starts, position) - 1
        return self._document_rows[slot]

    def _prefix_range(self, pattern: str) -> tuple[int, int]:
        """[lo, hi) of suffix-array slots whose suffix starts with pattern."""
        corpus = self._corpus
        array = self._suffix_array
        m = len(pattern)

        lo, hi = 0, len(array)
        while lo < hi:
            mid = (lo + hi) // 2
            if corpus[array[mid]:array[mid] + m] < pattern:
                lo = mid + 1
            else:
                hi = mid
        first = lo

        lo, hi = first, len(array)
        while lo < hi:
            mid = (lo + hi) // 2
            if corpus[array[mid]:array[mid] + m] <= pattern:
                lo = mid + 1
            else:
                hi = mid
        return first, lo

    def search_contains(self, pattern: Any) -> "set[int] | None":
        read = self._pattern(pattern)
        if read is None or read.ambiguous:
            # Refused by the predicate, or not to be located literally:
            # fall back.
            return None
        if not read.codes:
            return set(self._texts)
        if self._dirty:
            self._rebuild()
        first, last = self._prefix_range(str(read.sequence))
        # Matches cannot cross documents: the separator never appears in
        # a pattern, so any suffix starting with the pattern lies wholly
        # inside one document.
        matched = {
            self._row_of_position(self._suffix_array[slot])
            for slot in range(first, last)
        }
        # Ambiguous subjects can match a concrete pattern without a
        # literal occurrence (an N may stand for the needed base).
        return matched | self._wildcard_rows
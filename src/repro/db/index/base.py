"""The index interface the engine's optimizer and executor program against.

Section 6.5 of the paper: "As we add the ability to store genomic data, a
need arises for indexing these data by using domain-specific, i.e.,
genomic, indexing techniques … The DBMS must then offer a mechanism to
integrate these user-defined index structures."  That mechanism is this
interface: any object implementing it can be registered with the catalog
and the optimizer will consider it.  Five implementations ship:

- :class:`~repro.db.index.btree.BTreeIndex` — equality + range.
- :class:`~repro.db.index.hashindex.HashIndex` — equality only.
- :class:`~repro.db.index.hashindex.UniqueHashIndex` — equality on a
  PRIMARY KEY / UNIQUE column; built by the table, enforces the key.
- :class:`~repro.db.index.kmer.KmerIndex` — genomic ``contains`` candidates.
- :class:`~repro.db.index.suffix.SuffixArrayIndex` — exact genomic
  substring search.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.ops.search import Pattern, pattern_or_none
from repro.core.types.sequence import DnaSequence, PackedSequence
from repro.errors import DatabaseError


class Index:
    """Abstract index over one column of one table.

    Row ids are the engine's internal, stable integer handles; an index
    maps column values (or structures derived from them) to row ids.
    """

    #: Class-level capability flags the optimizer reads.
    supports_equality = False
    supports_range = False
    supports_contains = False
    #: True when each key maps to at most one row (a key constraint).
    unique = False

    def __init__(self, name: str, table_name: str, column: str) -> None:
        self.name = name.lower()
        self.table_name = table_name.lower()
        self.column = column.lower()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r} on "
                f"{self.table_name}.{self.column})")

    # -- maintenance (called by the table on every mutation) ------------------

    def insert(self, key: Any, row_id: int) -> None:
        raise NotImplementedError

    def delete(self, key: Any, row_id: int) -> None:
        raise NotImplementedError

    # -- lookups ----------------------------------------------------------------

    def search_equal(self, key: Any) -> Iterable[int]:
        """Row ids whose column value equals *key*."""
        raise DatabaseError(f"{type(self).__name__} has no equality search")

    def search_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterable[int]:
        """Row ids whose column value lies in the given range, key order."""
        raise DatabaseError(f"{type(self).__name__} has no range search")

    def search_contains(self, pattern: str) -> "set[int] | None":
        """Row ids whose value may contain *pattern* as a subsequence.

        Returns a **candidate set**: implementations may over-approximate
        (the executor re-checks the predicate) but must never miss a true
        match.  ``None`` means "cannot narrow; scan everything".
        """
        raise DatabaseError(f"{type(self).__name__} has no contains search")


class SequenceIndex(Index):
    """An index over a sequence-valued column, answering ``contains``.

    Stored values and searched patterns are read as the predicate reads a
    pattern (:class:`~repro.core.ops.search.Pattern`), so the index cannot
    miss what the re-check would find.  Text is a value of the column's
    sequence type — that of the sequences seen, DNA before any.
    """

    supports_contains = True
    _klass: "type[PackedSequence]" = DnaSequence

    def _value(self, key: Any) -> Pattern:
        """A stored value (not cached: there is one per row)."""
        if isinstance(key, PackedSequence):
            self._klass = type(key)
            return Pattern(self._klass, key)
        return Pattern(self._klass, str(key))

    def _pattern(self, pattern: Any) -> "Pattern | None":
        """A searched pattern; ``None`` (scan) when it has no reading."""
        return pattern_or_none(self._klass, pattern)

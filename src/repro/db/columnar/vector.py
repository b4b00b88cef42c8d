"""Genomic UDF kernels over packed column pages.

A kernel evaluates one tagged function over a whole SEQ page at once, from
the page as :class:`~repro.db.columnar.pages.SeqPage` parsed it — lengths,
offsets, the one packed buffer, its codes un-nibbled in one go: ``length``
is the lengths array, ``gc_content`` one ``translate`` of the page and a
bounded ``count`` per row, ``contains`` one ``find`` per hit.  No
:class:`PackedSequence` is built unless a row needs the registered
function after all, and every table is ``core.ops``' own
(``tests/test_core_ops_audit.py``).

Bit-identity contract: every cell is either (a) computed from the same
integers / the same ``find`` the registered SQL function would use on the
decoded cell, or (b) that function's answer for the individual row (NULLs,
ambiguity codes, foreign or mixed alphabets, odd arguments, non-SEQ
pages).  ``tests/db/test_columnar_differential.py`` is the judge.

A kernel is only attached to a call whose catalog entry carries the
matching ``kernel=`` tag (``Evaluator.kernel_position``): a user function
that merely shares a builtin's name is never vectorized.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Callable

from repro.core.ops._tables import NEITHER, STRONG, WEAK, symbol_tables
from repro.core.ops.search import pattern_or_none
from repro.db.values import NULL


class KernelError:
    """A captured per-cell failure, deferred until consumption.

    A compiled expression evaluates whole batches, and a kernel whole
    pages — including tombstoned ordinals, rows a filter goes on to
    discard and rows past a ``LIMIT`` — which row-at-a-time evaluation
    never touches.  A failure is captured as the cell's value and raised
    by the operator that evaluated the column only when that row is
    consumed (``repro.db.sql.expressions.settled``).
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


# -- kernels: ``(page, fallback, args)`` over a one-alphabet page → a result
# per non-null row, or None where the registered function must answer

def _kernel_length(page, fallback, args) -> "list | None":
    return None if args else list(page.lengths)


def _kernel_gc_content(page, fallback, args) -> "list | None":
    """One ``translate`` classifies the page's codes; each row is then a
    bounded count or two — the integers ``ops.gc_content`` divides."""
    if args:
        return None
    codes, starts, ends = page.spans()
    tables = symbol_tables(page.classes[0].alphabet)
    classes = codes.translate(tables.gc_classes)
    strong = list(map(classes.count, repeat(STRONG), starts, ends))
    totals = page.lengths
    if NEITHER in classes:  # a gap or an ambiguity code somewhere
        totals = map(int.__add__, strong,
                     map(classes.count, repeat(WEAK), starts, ends))
    return [gc / total if total else 0.0 for gc, total in zip(strong, totals)]


def _kernel_contains(page, fallback, args) -> "list | None":
    klass = page.classes[0]
    needle = _exact_needle(klass, args)
    if needle is None:  # motif semantics, or the function's error
        return None
    codes, starts, ends = page.spans()
    # One ``find`` per hit, not per row.  A hit belongs to the row it
    # starts in, if it ends there too (`…AC` | `GT…` holds no ACGT); a row
    # that has its answer is skipped.
    found = [False] * len(starts)
    at = codes.find(needle)
    while at != -1:
        row = bisect_right(starts, at) - 1
        if at + len(needle) <= ends[row]:
            found[row] = True
            at = ends[row] - 1
        at = codes.find(needle, at + 1)
    concrete = symbol_tables(klass.alphabet).concrete
    if codes.translate(None, concrete):
        # An ambiguity code may stand for a symbol of the needle: a row
        # that holds one is the registered function's.
        rows = page.rows()
        for i, (start, end) in enumerate(zip(starts, ends)):
            if codes[start:end].translate(None, concrete):
                found[i] = fallback(rows[i], *args)
    return found


def _exact_needle(klass, args: tuple) -> "bytes | None":
    """Pattern codes when the exact scan is valid for sequences of *klass*;
    ``None`` when the pattern is none at all, is empty, has ambiguity codes,
    belongs to another alphabet, or does not encode (the function raises)."""
    read = pattern_or_none(klass, args[0]) if len(args) == 1 else None
    return None if read is None or read.ambiguous else read.codes or None


def _paged(kernel: Callable) -> Callable:
    """Lift *kernel* to ``(page, values_fn, fallback, args)`` → one cell per
    position.  ``page`` is ``GroupView.seq_rows``: None for the tail and a
    non-SEQ page, whose ``values_fn()`` the registered function
    (``fallback``, failures captured) answers cell by cell — as it does the
    rows *kernel* has no reading of, and every NULL cell."""
    def column(page, values_fn, fallback, args) -> list:
        if page is None:
            return [fallback(value, *args) for value in values_fn()]
        one = len(page.classes) == 1
        present = kernel(page, fallback, args) if one else None
        if present is None:
            present = [fallback(row, *args) for row in page.rows()]
        if page.nulls is None:
            return present
        cells = iter(present)
        return [fallback(NULL, *args) if null else next(cells)
                for null in page.nulls]
    return column


#: Kernel registry: ``SqlFunction.kernel`` tag → page-wise implementation.
KERNELS: "dict[str, Callable]" = {
    "length": _paged(_kernel_length),
    "gc_content": _paged(_kernel_gc_content),
    "reverse_complement": _paged(lambda page, fallback, args: None),
    "contains": _paged(_kernel_contains),
}

"""Genomic UDF kernels over packed column pages.

A kernel evaluates one tagged function over a whole SEQ-encoded page at
once, from the packed code buffers exactly as stored, where the plain
compiled call would first decode every cell.  The operators of
``core.ops`` read codes themselves, so most kernels are just that: the
registered operator applied to each raw page row (``gc_content``,
``reverse_complement``).  ``contains`` adds what only a page-wise view
can: it encodes the pattern once per page and answers the common exact
case with ``needle in codes``.  This module builds no table of its own —
every alphabet-level lookup is ``core.ops``' (``tests/test_core_ops_
audit.py``).

Bit-identity contract: every kernel either (a) computes a value provably
equal to calling the registered SQL function on the decoded cell, or
(b) calls that function for the individual row (NULLs, ambiguity codes,
foreign alphabets, non-SEQ pages).  The differential suite in
``tests/db/test_columnar_differential.py`` holds the engine to this.

A kernel is only ever attached to a call when the catalog entry for the
function carries the matching ``kernel=`` tag (see
:class:`repro.db.catalog.SqlFunction` and ``Evaluator.kernel_position``)
— a user function that merely shares a builtin's name is never
vectorized.
"""

from __future__ import annotations

from typing import Callable

from repro.core.ops.search import concrete_codes, has_ambiguity
from repro.core.types.sequence import PackedSequence, sequence_class_for
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


def _materialize(alphabet_name: str, length: int,
                 packed: bytes) -> PackedSequence:
    return sequence_class_for(alphabet_name)._from_packed(length, packed)


# ---------------------------------------------------------------------------
# kernels — each takes (raw, values_fn, fallback, args) and returns the
# per-row result list.  ``raw`` is the positional ``(alphabet, length,
# packed) | NULL`` rows of a SEQ page (:func:`pages.seq_raw_body`) or
# None; ``values_fn()`` lazily decodes the page for the fallback path.
# ---------------------------------------------------------------------------

def _row_fallback(values_fn: Callable[[], list],
                  fallback: Callable, args: tuple) -> list:
    return [fallback(value, *args) for value in values_fn()]


def _kernel_length(raw, values_fn, fallback, args) -> list:
    if raw is None or args:
        return _row_fallback(values_fn, fallback, args)
    return [fallback(NULL) if row is NULL else row[1] for row in raw]


def _kernel_operator(raw, values_fn, fallback, args) -> list:
    """``gc_content`` / ``reverse_complement``: the registered operator
    applied to each raw page row.  It reads codes, and a row's codes
    are the page's own packed buffer — there is nothing to add."""
    if raw is None or args:
        return _row_fallback(values_fn, fallback, args)
    return [fallback(NULL if row is NULL else _materialize(*row))
            for row in raw]


def _kernel_contains(raw, values_fn, fallback, args) -> list:
    if (raw is None or len(args) != 1
            or not isinstance(args[0], (str, PackedSequence))):
        return _row_fallback(values_fn, fallback, args)
    pattern = args[0]
    # alphabet name -> (sequence class, needle, its concrete codes)
    by_alphabet: dict[str, tuple] = {}
    out = []
    for row in raw:
        if row is NULL:
            out.append(fallback(NULL, pattern))
            continue
        name, length, packed = row
        entry = by_alphabet.get(name)
        if entry is None:
            klass = sequence_class_for(name)
            entry = by_alphabet[name] = (
                klass, _exact_needle(name, pattern),
                concrete_codes(klass.alphabet))
        klass, needle, concrete = entry
        subject = klass._from_packed(length, packed)
        if needle is None or (
                codes := subject.codes()).translate(None, concrete):
            # ambiguity on either side, a foreign alphabet, an empty or
            # an invalid pattern: motif semantics (or the function's
            # error) apply
            out.append(fallback(subject, pattern))
        else:
            out.append(needle in codes)
    return out


def _exact_needle(alphabet_name: str,
                  pattern: "str | PackedSequence") -> "bytes | None":
    """Pattern codes when the exact scan is valid for this alphabet.

    ``None`` means the kernel must defer to the registered function:
    the pattern is empty, has ambiguity codes, belongs to another
    alphabet, or does not encode at all (so the function's error
    surfaces verbatim).
    """
    try:
        if isinstance(pattern, str):
            pattern = sequence_class_for(alphabet_name)(pattern)
    except Exception:
        return None
    if (pattern.alphabet.name != alphabet_name
            or has_ambiguity(pattern.alphabet, pattern.codes())):
        return None
    return pattern.codes() or None


#: Kernel registry: ``SqlFunction.kernel`` tag → page-wise implementation.
KERNELS: "dict[str, Callable]" = {
    "length": _kernel_length,
    "gc_content": _kernel_operator,
    "reverse_complement": _kernel_operator,
    "contains": _kernel_contains,
}

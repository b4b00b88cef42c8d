"""Vectorized genomic UDF kernels over packed column pages.

The row-at-a-time path for ``SELECT gc_content(seq) FROM t`` decodes
every cell into a :class:`PackedSequence`, stringifies it, and counts
characters.  The kernels here evaluate the same functions over a whole
SEQ-encoded page at once, reading the packed code buffers exactly as
stored — no sequence objects, no strings — via C-speed ``bytes``
primitives (``translate``, ``count``, ``find``).

Bit-identity contract: every kernel either (a) computes a value provably
equal to calling the registered SQL function on the decoded cell, or
(b) falls back to calling that function for the individual row (NULLs,
ambiguity codes, foreign alphabets, non-SEQ pages).  The differential
suite in ``tests/db/test_columnar_differential.py`` holds the engine to
this.

A kernel is only ever attached to a call when the catalog entry for the
function carries the matching ``kernel=`` tag (see
:class:`repro.db.catalog.SqlFunction`) — a user function that merely
shares a builtin's name is never vectorized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.core.types.alphabet import alphabet_by_name
from repro.core.types.sequence import (
    PackedSequence,
    _unpack4,
    sequence_class_for,
)
from repro.db.values import NULL


class KernelError:
    """A captured per-row kernel failure, deferred until consumption.

    Vectorized kernels evaluate whole pages — including tombstoned
    ordinals and rows a later filter would discard — which the
    row-at-a-time path never touches.  Failures are captured as values
    and re-raised only when an expression actually reads the cell
    (``Evaluator._eval_columnref``) or an operator consumes it
    directly, preserving the legacy error surface exactly.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


@lru_cache(maxsize=16)
def _tables(alphabet_name: str):
    """Per-alphabet code tables the kernels index by alphabet name."""
    alphabet = alphabet_by_name(alphabet_name)
    gc_codes = bytes(alphabet.code(s) for s in "GCS" if s in alphabet)
    at_codes = bytes(alphabet.code(s) for s in "ATUW" if s in alphabet)
    concrete = bytes(
        alphabet.code(s) for s in alphabet.symbols
        if not alphabet.is_ambiguous(s)
    )
    comp_table = None
    if alphabet.has_complement:
        source = bytes(range(len(alphabet)))
        target = bytes(
            alphabet.code(alphabet.complement(s)) for s in alphabet.symbols
        )
        comp_table = bytes.maketrans(source, target)
    nibble = len(alphabet) <= 16
    return gc_codes, at_codes, concrete, comp_table, nibble


def _codes_of(alphabet_name: str, length: int, packed: bytes) -> bytes:
    _, _, _, _, nibble = _tables(alphabet_name)
    return _unpack4(packed, length) if nibble else packed


def _materialize(alphabet_name: str, length: int,
                 packed: bytes) -> PackedSequence:
    klass = sequence_class_for(alphabet_name)
    instance = klass.__new__(klass)
    instance._length = length
    instance._packed = packed
    return instance


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
    out = []
    for row in raw:
        if row is NULL:
            out.append(fallback(NULL))
        else:
            out.append(row[1])
    return out


def _kernel_gc_content(raw, values_fn, fallback, args) -> list:
    if raw is None or args:
        return _row_fallback(values_fn, fallback, args)
    out = []
    for row in raw:
        if row is NULL:
            out.append(fallback(NULL))
            continue
        name, length, packed = row
        gc_codes, at_codes, _, _, _ = _tables(name)
        codes = _codes_of(name, length, packed)
        gc = sum(codes.count(code) for code in gc_codes)
        at = sum(codes.count(code) for code in at_codes)
        total = gc + at
        out.append(gc / total if total else 0.0)
    return out


def _kernel_reverse_complement(raw, values_fn, fallback, args) -> list:
    if raw is None or args:
        return _row_fallback(values_fn, fallback, args)
    out = []
    for row in raw:
        if row is NULL:
            out.append(fallback(NULL))
            continue
        name, length, packed = row
        _, _, _, comp_table, _ = _tables(name)
        if comp_table is None:
            # no complement for this alphabet: the registered function
            # raises; reproduce its exact behaviour
            out.append(fallback(_materialize(name, length, packed)))
            continue
        codes = _codes_of(name, length, packed)
        klass = sequence_class_for(name)
        out.append(klass.from_codes(codes.translate(comp_table)[::-1]))
    return out


def _kernel_contains(raw, values_fn, fallback, args) -> list:
    if raw is None or len(args) != 1:
        return _row_fallback(values_fn, fallback, args)
    pattern = args[0]
    if not isinstance(pattern, (str, PackedSequence)):
        return _row_fallback(values_fn, fallback, args)
    needle_cache: dict[str, "bytes | None"] = {}
    missing = object()
    out = []
    for row in raw:
        if row is NULL:
            out.append(fallback(NULL, pattern))
            continue
        name, length, packed = row
        needle = needle_cache.get(name, missing)
        if needle is missing:
            needle = _exact_needle(name, pattern)
            needle_cache[name] = needle
        if needle is None:
            # ambiguous / foreign-alphabet / invalid pattern: per-row
            out.append(fallback(_materialize(name, length, packed),
                                pattern))
            continue
        if not needle or len(needle) > length:
            out.append(False)
            continue
        codes = _codes_of(name, length, packed)
        _, _, concrete, _, _ = _tables(name)
        if codes.translate(None, delete=concrete):
            # subject carries ambiguity codes: motif semantics apply
            out.append(fallback(_materialize(name, length, packed),
                                pattern))
        else:
            out.append(needle in codes)
    return out


def _exact_needle(alphabet_name: str,
                  pattern: "str | PackedSequence") -> "bytes | None":
    """Pattern codes when the exact scan is valid for this alphabet.

    ``None`` means the kernel must defer to the registered function:
    the pattern has ambiguity codes, belongs to another alphabet, or
    does not encode at all (so the function's error surfaces verbatim).
    """
    try:
        if isinstance(pattern, PackedSequence):
            if pattern.alphabet.name != alphabet_name:
                return None
            codes = pattern.codes()
        else:
            klass = sequence_class_for(alphabet_name)
            codes = klass(pattern.upper()).codes()
    except Exception:
        return None
    _, _, concrete, _, _ = _tables(alphabet_name)
    if codes.translate(None, delete=concrete):
        return None
    return codes


#: Kernel registry: ``SqlFunction.kernel`` tag → page-wise implementation.
KERNELS: "dict[str, Callable]" = {
    "length": _kernel_length,
    "gc_content": _kernel_gc_content,
    "reverse_complement": _kernel_reverse_complement,
    "contains": _kernel_contains,
}


def apply_kernel(kernel_name: str, raw, values_fn: Callable[[], list],
                 fallback: Callable, args: "tuple[Any, ...]") -> list:
    """Evaluate one tagged function over one page; see module docstring."""
    return KERNELS[kernel_name](raw, values_fn, fallback, args)

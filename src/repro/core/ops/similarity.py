"""Sequence similarity: k-mer profiles and BLAST-style seed-and-extend.

``resembles`` is the paper's example of a user-defined comparison operator
plugged into SQL (section 6.3).  The paper's substrate for similarity was
the external BLAST program family; here the same role is played by a
self-contained seed-and-extend search (:func:`blast_search`) over an
in-memory word index, plus cheap k-mer profile distances for coarse
screening.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import eq, mul
from typing import Iterable, Mapping, Sequence

from repro.core.ops._tables import BELOW_4_RUNS, kmer_bytes, kmer_keys
from repro.core.ops.align import Alignment, ScoringScheme, simple_scoring
from repro.core.ops.search import read_pattern
from repro.core.types.sequence import PackedSequence
from repro.errors import SequenceError

def _text_codes(text: str) -> bytes:
    """Text with no sequence to say its type: ASCII, a byte per symbol."""
    try:
        return text.encode("ascii")
    except UnicodeEncodeError:
        raise SequenceError("a sequence spelt as text is ASCII") from None


def kmer_profile(sequence: "PackedSequence | str", k: int) -> Counter:
    """Multiset of the k-length words of a sequence (text is upper-cased)."""
    if isinstance(sequence, str):
        codes, spell = _text_codes(sequence.upper()), bytes.decode
    else:
        codes, spell = sequence.codes(), sequence.alphabet.decode
    keys = kmer_keys(codes, k)
    found = dict(zip(keys, range(len(keys))))  # a place each key stands at
    return Counter({spell(codes[found[key]:found[key] + k]): count
                    for key, count in Counter(keys).items()})


def _run_bytes(codes: bytes, k: int) -> bytes:
    """The windows of *codes* that hold no code past 3 (an ambiguity code
    or gap in DNA / RNA), a ``kmer_bytes`` byte each, run after run."""
    return b"".join(kmer_bytes(run, k) or b""
                    for run in BELOW_4_RUNS.findall(codes))


@lru_cache(maxsize=512)
def _prepared(klass: "type[PackedSequence] | None",
              operand: "PackedSequence | str",
              k: int) -> "tuple[dict, int, bytes | dict, tuple, bool]":
    """(key → count, ``|b|²``, window byte → count: a ``translate`` table
    while no count passes 255, its distinct counts, whether every window
    is a byte) of an operand b read as a *klass* value — once per
    distinct operand, not once per row."""
    codes = (read_pattern(klass, operand).codes if klass
             else _text_codes(operand.upper()))
    keys, runs = kmer_keys(codes, k), _run_bytes(codes, k)
    counts, dense = dict(Counter(keys)), Counter(runs)
    levels = tuple(set(dense.values()))
    dense = (bytes(_looked_up(dense, range(256)))
             if max(levels, default=0) < 256 else dict(dense))
    return (counts, sum(map(mul, counts.values(), counts.values())), dense,
            levels, len(runs) == len(keys))


def _looked_up(counts: "bytes | dict", windows: "Sequence") -> Iterable[int]:
    """The count of each of *windows*: a byte each through a table."""
    if type(counts) is bytes:
        return windows.translate(counts)
    return map(counts.get, windows, repeat(0))


class KmerVector:
    """The k-mer windows, by position, of codes read as a *klass* value
    (or as text) — ``kmer_bytes`` if it reads them (``dense``), else
    ``kmer_keys`` — and, each made on first use, the ``kmer_bytes`` of
    its runs of codes below 4 (``runs``, k ≤ 4) and its square-sum
    ``|a|²``."""

    __slots__ = ("klass", "k", "keys", "dense", "runs", "_codes", "_squares")

    def __init__(self, klass: "type[PackedSequence] | None", codes: bytes,
                 k: int) -> None:
        keys = kmer_bytes(codes, k)
        self.klass, self.k, self.dense = klass, k, keys is not None
        self.keys = keys if self.dense else kmer_keys(codes, k)
        self.runs, self._codes = keys, None if self.dense or k > 4 else codes
        self._squares: "int | None" = None

    def squares(self) -> int:
        if self._squares is None:
            own = Counter(self.keys).values()
            self._squares = sum(map(mul, own, own))
        return self._squares

    def dot(self, prepared: tuple) -> int:
        """``a·b = Σᵢ b[windowᵢ]``, b being *prepared*.  A window with a
        code past 3 counts nothing against a b with none, so then a's
        ``runs`` are read through b's byte table, one C ``count`` per
        distinct count; else each window by its key."""
        counts, __, dense, levels, whole = prepared
        if whole and self._codes is not None:
            self.runs, self._codes = _run_bytes(self._codes, self.k), None
        if self.runs is None or not (whole or self.dense):
            return sum(_looked_up(counts, self.keys))
        if type(dense) is dict:  # a count past 255
            return sum(_looked_up(dense, self.runs))
        translated = self.runs.translate(dense)
        return sum(map(mul, levels, map(translated.count, levels)))


def kmer_vector(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int
) -> KmerVector:
    """*first*'s k-mer vector, read as the type both operands are read as.

    Text is read as a value of the other operand's type — upper-cased and
    alphabet-checked, exactly as ``contains`` reads a text pattern — and
    two sequences are counted over their codes; two plain strings compare
    upper-cased.
    """
    if isinstance(first, PackedSequence):
        klass, codes = type(first), first.codes()
    elif isinstance(second, PackedSequence):
        klass = type(second)
        codes = read_pattern(klass, first).codes
    else:
        klass, codes = None, _text_codes(first.upper())
    return KmerVector(klass, codes, k)


def jaccard_similarity(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int = 4
) -> float:
    """Jaccard index of the k-mer *sets* of two sequences (in ``[0, 1]``)."""
    vector = kmer_vector(first, second, k)
    counts, __, dense = _prepared(vector.klass, second, k)[:3]
    words_a = set(vector.keys)
    shared = sum(map(bool, _looked_up(dense, bytes(words_a)) if vector.dense
                     else _looked_up(counts, words_a)))
    union = len(words_a) + len(counts) - shared
    return shared / union if union else 1.0


def kmer_cosine(vector: KmerVector, second: "PackedSequence | str",
                floor: float) -> float:
    """The cosine of the k-mer count vectors a (*vector*) and b
    (*second*'s, read as *vector*'s type) — or, when that is under
    *floor*, an upper bound of it that is too.

    ``a·b`` (:meth:`KmerVector.dot`) is read before a is counted.  The
    cosine ``√(a·b² / (|a|²·|b|²))`` rounds once on exact
    integers, then roots: equal vectors give 1.0.  And ``|a|² ≥`` the
    number of windows, so that in place of ``|a|²`` bounds it from above
    — in floats too: ``/`` and ``sqrt`` round monotonically.
    """
    keys = vector.keys
    prepared = _prepared(vector.klass, second, vector.k)
    squares = prepared[1]
    if not keys or not squares:
        return 1.0 if not keys and not squares else 0.0
    dot = vector.dot(prepared)
    ceiling = math.sqrt(dot * dot / (len(keys) * squares))
    if ceiling < floor:
        return ceiling
    return math.sqrt(dot * dot / (vector.squares() * squares))


def cosine_similarity(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int = 4
) -> float:
    """Cosine similarity of k-mer count vectors (in ``[0, 1]``)."""
    return kmer_cosine(kmer_vector(first, second, k), second, -math.inf)


def resembles(
    first: "PackedSequence | str",
    second: "PackedSequence | str",
    threshold: float = 0.7,
    k: int = 4,
) -> bool:
    """The `resembles` predicate: k-mer cosine similarity above threshold."""
    return kmer_cosine(kmer_vector(first, second, k), second,
                       threshold) >= threshold


# ---------------------------------------------------------------------------
# Seed-and-extend (BLAST-style) search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hit:
    """A high-scoring segment pair between the query and one subject."""

    subject_id: str
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    score: float
    identity: float

    def __len__(self) -> int:
        return self.query_end - self.query_start


class WordIndex:
    """An inverted index word → (subject id, position) for seeding.

    Text and sequences of any type mix here and a :class:`ScoringScheme`
    scores symbols, so the spelling is text: a word is its k-mer key.
    """

    def __init__(self, word_size: int = 8) -> None:
        if word_size < 2:
            raise SequenceError("word size must be at least 2")
        self.word_size = word_size
        self._postings: dict["int | tuple", list[tuple[str, int]]] = {}
        self._subjects: dict[str, str] = {}

    def add(self, subject_id: str, sequence: "PackedSequence | str") -> None:
        """Index one subject sequence."""
        if subject_id in self._subjects:
            raise SequenceError(f"subject {subject_id!r} already indexed")
        text = str(sequence)
        self._subjects[subject_id] = text
        for position, word in enumerate(self.words(text)):
            self._postings.setdefault(word, []).append((subject_id, position))

    def __len__(self) -> int:
        return len(self._subjects)

    def subject(self, subject_id: str) -> str:
        return self._subjects[subject_id]

    def words(self, text: str) -> Sequence:
        """The key of every word of *text*, by position."""
        return kmer_keys(_text_codes(text), self.word_size)

    def seeds(self, word: str) -> Sequence[tuple[str, int]]:
        keys = self.words(word)
        return self._postings.get(keys[0], ()) if len(keys) == 1 else ()


def _extend(
    query: str,
    subject: str,
    query_pos: int,
    subject_pos: int,
    word_size: int,
    scheme: ScoringScheme,
    x_drop: float,
) -> tuple[int, int, int, int, float]:
    """Ungapped X-drop extension of a seed: rightward, then leftward from
    the best score the rightward walk reached.

    Returns (query_start, query_end, subject_start, subject_end, score).
    """
    best = running = float(sum(
        scheme.score(query[query_pos + i], subject[subject_pos + i])
        for i in range(word_size)
    ))
    right = left = 0  # symbols taken on at each end
    for step, (one, other) in enumerate(zip(
            query[query_pos + word_size:], subject[subject_pos + word_size:]),
            1):
        running += scheme.score(one, other)
        if running > best:
            best, right = running, step
        elif best - running > x_drop:
            break
    running = best
    for step, (one, other) in enumerate(zip(
            reversed(query[:query_pos]), reversed(subject[:subject_pos])), 1):
        running += scheme.score(one, other)
        if running > best:
            best, left = running, step
        elif best - running > x_drop:
            break
    return (query_pos - left, query_pos + word_size + right,
            subject_pos - left, subject_pos + word_size + right, best)


def blast_search(
    query: "PackedSequence | str",
    index: WordIndex,
    min_score: float = 20.0,
    scoring: ScoringScheme | None = None,
    x_drop: float = 10.0,
) -> list[Hit]:
    """Seed-and-extend search of *query* against an indexed subject set.

    Every exact word match seeds an ungapped X-drop extension; extensions
    scoring at least *min_score* are reported, deduplicated per subject,
    best first.  This mirrors (ungapped) BLAST closely enough to play its
    architectural role as the similarity substrate.
    """
    scheme = scoring or simple_scoring(match=2, mismatch=-3)
    text = str(query)
    w = index.word_size
    best_hits: dict[tuple[str, int, int], Hit] = {}

    for query_pos, word in enumerate(index.words(text)):
        for subject_id, subject_pos in index._postings.get(word, ()):
            subject = index.subject(subject_id)
            q_start, q_end, s_start, s_end, score = _extend(
                text, subject, query_pos, subject_pos, w, scheme, x_drop
            )
            if score < min_score:
                continue
            matched = sum(map(
                eq, text[q_start:q_end], subject[s_start:s_end]))
            length = q_end - q_start
            hit = Hit(
                subject_id=subject_id,
                query_start=q_start,
                query_end=q_end,
                subject_start=s_start,
                subject_end=s_end,
                score=score,
                identity=matched / length if length else 0.0,
            )
            key = (subject_id, q_start - s_start, q_end)
            existing = best_hits.get(key)
            if existing is None or hit.score > existing.score:
                best_hits[key] = hit

    return sorted(best_hits.values(), key=lambda h: -h.score)


def best_hit(
    query: "PackedSequence | str",
    index: WordIndex,
    min_score: float = 20.0,
) -> Hit | None:
    """The single best :func:`blast_search` hit, or ``None``."""
    hits = blast_search(query, index, min_score=min_score)
    return hits[0] if hits else None


def naive_similarity_scan(
    query: "PackedSequence | str",
    subjects: Mapping[str, "PackedSequence | str"] | Iterable[tuple[str, str]],
    scoring: ScoringScheme | None = None,
) -> list[tuple[str, Alignment]]:
    """Full Smith–Waterman of the query against every subject (baseline).

    This is the no-index baseline the genomic-index benchmark (A2)
    compares against.
    """
    from repro.core.ops.align import local_align

    pairs = subjects.items() if isinstance(subjects, Mapping) else subjects
    results = [
        (subject_id, local_align(query, subject, scoring))
        for subject_id, subject in pairs
    ]
    return sorted(results, key=lambda pair: -pair[1].score)

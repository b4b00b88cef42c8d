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
from itertools import repeat
from operator import eq, mul
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.ops.align import Alignment, ScoringScheme, simple_scoring
from repro.core.ops.search import _pattern_sequence
from repro.core.types.sequence import PackedSequence
from repro.errors import SequenceError


def windows(buffer: "str | bytes", k: int) -> Iterator[tuple]:
    """Every length-*k* window of a buffer, left to right, as a k-tuple.

    One C-level ``zip`` over *k* shifted views: characters of a ``str``
    (``"".join`` gives the word back), integer codes of a ``bytes``.
    """
    if k < 1:
        raise SequenceError("k must be positive")
    return zip(*(buffer[offset:] for offset in range(k)))


def kmer_profile(sequence: "PackedSequence | str", k: int) -> Counter:
    """Multiset of the k-length words of a sequence (text is upper-cased)."""
    text = sequence.upper() if isinstance(sequence, str) else str(sequence)
    return Counter(map("".join, windows(text, k)))


def _profiles(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int
) -> tuple[Counter, Counter]:
    """The two k-mer multisets, counted over one common spelling.

    Text is read as a value of the other operand's type — upper-cased and
    alphabet-checked, exactly as ``contains`` reads a text pattern — and
    two sequences are counted over their codes; two plain strings compare
    upper-cased.
    """
    if isinstance(first, PackedSequence):
        spelt = first.codes(), _pattern_sequence(first, second).codes()
    elif isinstance(second, PackedSequence):
        spelt = _pattern_sequence(second, first).codes(), second.codes()
    else:
        spelt = first.upper(), second.upper()
    return Counter(windows(spelt[0], k)), Counter(windows(spelt[1], k))


def jaccard_similarity(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int = 4
) -> float:
    """Jaccard index of the k-mer *sets* of two sequences (in ``[0, 1]``)."""
    profile_a, profile_b = _profiles(first, second, k)
    words_a, words_b = profile_a.keys(), profile_b.keys()
    if not words_a and not words_b:
        return 1.0
    return len(words_a & words_b) / len(words_a | words_b)


def cosine_similarity(
    first: "PackedSequence | str", second: "PackedSequence | str", k: int = 4
) -> float:
    """Cosine similarity of k-mer count vectors (in ``[0, 1]``)."""
    profile_a, profile_b = _profiles(first, second, k)
    if not profile_a or not profile_b:
        return 1.0 if not profile_a and not profile_b else 0.0
    # One probe per word of the poorer profile; a word the richer one
    # lacks contributes 0 without troubling ``Counter.__missing__``.
    few, many = sorted((profile_a, profile_b), key=len)
    dot = sum(map(mul, few.values(), map(many.get, few, repeat(0))))
    counts_a, counts_b = profile_a.values(), profile_b.values()
    norm_a = math.sqrt(sum(map(mul, counts_a, counts_a)))
    norm_b = math.sqrt(sum(map(mul, counts_b, counts_b)))
    return dot / (norm_a * norm_b)


def resembles(
    first: "PackedSequence | str",
    second: "PackedSequence | str",
    threshold: float = 0.7,
    k: int = 4,
) -> bool:
    """The `resembles` predicate: k-mer cosine similarity above threshold."""
    return cosine_similarity(first, second, k) >= threshold


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
    """An inverted index word → (subject id, position) for seeding."""

    def __init__(self, word_size: int = 8) -> None:
        if word_size < 2:
            raise SequenceError("word size must be at least 2")
        self.word_size = word_size
        self._postings: dict[str, list[tuple[str, int]]] = {}
        self._subjects: dict[str, str] = {}

    def add(self, subject_id: str, sequence: "PackedSequence | str") -> None:
        """Index one subject sequence."""
        if subject_id in self._subjects:
            raise SequenceError(f"subject {subject_id!r} already indexed")
        text = str(sequence)
        self._subjects[subject_id] = text
        words = map("".join, windows(text, self.word_size))
        for position, word in enumerate(words):
            self._postings.setdefault(word, []).append((subject_id, position))

    def __len__(self) -> int:
        return len(self._subjects)

    def subject(self, subject_id: str) -> str:
        return self._subjects[subject_id]

    def seeds(self, word: str) -> Sequence[tuple[str, int]]:
        return self._postings.get(word, ())


def _extend(
    query: str,
    subject: str,
    query_pos: int,
    subject_pos: int,
    word_size: int,
    scheme: ScoringScheme,
    x_drop: float,
) -> tuple[int, int, int, int, float]:
    """Ungapped X-drop extension of a seed in both directions.

    Returns (query_start, query_end, subject_start, subject_end, score).
    """
    score = float(sum(
        scheme.score(query[query_pos + i], subject[subject_pos + i])
        for i in range(word_size)
    ))

    # Extend right.
    best = score
    best_right = 0
    offset = word_size
    running = score
    while query_pos + offset < len(query) and subject_pos + offset < len(subject):
        running += scheme.score(query[query_pos + offset],
                                subject[subject_pos + offset])
        offset += 1
        if running > best:
            best = running
            best_right = offset - word_size
        elif best - running > x_drop:
            break
    score = best

    # Extend left.
    best = score
    best_left = 0
    offset = 1
    running = score
    while query_pos - offset >= 0 and subject_pos - offset >= 0:
        running += scheme.score(query[query_pos - offset],
                                subject[subject_pos - offset])
        if running > best:
            best = running
            best_left = offset
        elif best - running > x_drop:
            break
        offset += 1
    score = best

    return (
        query_pos - best_left,
        query_pos + word_size + best_right,
        subject_pos - best_left,
        subject_pos + word_size + best_right,
        score,
    )


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

    for query_pos, word in enumerate(map("".join, windows(text, w))):
        for subject_id, subject_pos in index.seeds(word):
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

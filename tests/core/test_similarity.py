"""Tests for k-mer similarity and the BLAST-style search."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ops.similarity import (
    WordIndex,
    best_hit,
    blast_search,
    cosine_similarity,
    jaccard_similarity,
    kmer_profile,
    naive_similarity_scan,
    resembles,
)
from repro.core.types import DnaSequence, ProteinSequence
from repro.errors import AlphabetError, SequenceError

dna_text = st.text(alphabet="ACGT", min_size=8, max_size=60)


class TestKmerProfiles:
    def test_profile_counts(self):
        profile = kmer_profile("ATAT", 2)
        assert profile == {"AT": 2, "TA": 1}

    def test_k_must_be_positive(self):
        with pytest.raises(SequenceError):
            kmer_profile("ACGT", 0)

    def test_accepts_packed_sequence(self):
        assert kmer_profile(DnaSequence("ACGT"), 2)

    def test_identical_sequences_jaccard_one(self):
        assert jaccard_similarity("ACGTACGT", "ACGTACGT") == 1.0

    def test_disjoint_sequences_jaccard_zero(self):
        assert jaccard_similarity("AAAAAAA", "CCCCCCC", k=3) == 0.0

    def test_cosine_identical(self):
        assert cosine_similarity("ACGTACGT", "ACGTACGT") == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine_similarity("AAAAAAA", "CCCCCCC", k=3) == 0.0

    def test_empty_sequences(self):
        assert jaccard_similarity("", "") == 1.0
        assert cosine_similarity("", "") == 1.0
        assert cosine_similarity("ACGTACGT", "") == 0.0

    def test_text_operands_are_read_like_a_contains_pattern(self):
        # Was 0.0: the text was compared as spelt, against 'ACGT…'.
        packed = DnaSequence("ACGTACGT")
        itself = cosine_similarity(packed, packed)
        assert itself == pytest.approx(1.0)
        assert cosine_similarity("acgtacgt", packed) == itself
        assert cosine_similarity(packed, "acgtacgt") == itself
        assert cosine_similarity("acgtacgt", "ACGTACGT") == itself
        assert jaccard_similarity("acgtacgt", packed) == 1.0
        assert resembles(packed, "acgtacgt", threshold=0.99)
        assert kmer_profile("atat", 2) == {"AT": 2, "TA": 1}

    def test_text_is_checked_against_the_other_operand(self):
        packed = DnaSequence("ACGTACGT")
        with pytest.raises(AlphabetError):
            cosine_similarity(packed, "ACGTXZ")
        with pytest.raises(AlphabetError):
            resembles("ACGTXZ", packed)
        with pytest.raises(SequenceError, match="alphabet"):
            cosine_similarity(packed, ProteinSequence("ACGT"))

    def test_resembles_threshold(self):
        assert resembles("ACGTACGTACGT", "ACGTACGTACGT", threshold=0.99)
        assert not resembles("AAAAAAAA", "CCCCCCCC", threshold=0.1)

    @given(dna_text)
    def test_self_similarity_is_one(self, text):
        assert cosine_similarity(text, text, k=4) == pytest.approx(1.0)

    @given(dna_text, dna_text)
    def test_similarity_symmetric(self, a, b):
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(b, a)
        )
        assert jaccard_similarity(a, b) == pytest.approx(
            jaccard_similarity(b, a)
        )

    @given(dna_text, dna_text)
    def test_similarity_bounded(self, a, b):
        assert 0.0 <= cosine_similarity(a, b) <= 1.0 + 1e-9
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0


class TestWordIndex:
    def test_add_and_seed(self):
        index = WordIndex(4)
        index.add("s1", "ACGTACGT")
        assert ("s1", 0) in index.seeds("ACGT")
        assert ("s1", 4) in index.seeds("ACGT")

    def test_duplicate_subject_rejected(self):
        index = WordIndex(4)
        index.add("s1", "ACGTACGT")
        with pytest.raises(SequenceError):
            index.add("s1", "ACGT")

    def test_word_size_validated(self):
        with pytest.raises(SequenceError):
            WordIndex(1)

    def test_len_counts_subjects(self):
        index = WordIndex(4)
        index.add("a", "ACGTACGT")
        index.add("b", "TTTTTTTT")
        assert len(index) == 2


class TestBlastSearch:
    @pytest.fixture
    def index(self):
        index = WordIndex(6)
        index.add("target", "GGGGGG" + "ATGGCCATTGTAATGGGCCGC" + "GGGGGG")
        index.add("decoy", "TTTTTTTTTTTTTTTTTTTTTTTTTTTT")
        return index

    def test_finds_exact_region(self, index):
        hits = blast_search("ATGGCCATTGTAATGGGCCGC", index, min_score=20)
        assert hits
        assert hits[0].subject_id == "target"
        assert hits[0].identity == 1.0

    def test_no_hit_below_min_score(self, index):
        assert blast_search("CACACACA", index, min_score=30) == []

    def test_mismatch_tolerated(self, index):
        # One substitution in the middle of the query.
        query = "ATGGCCATTGTAATGGGCCGC".replace("TTG", "TAG")
        hits = blast_search(query, index, min_score=20)
        assert hits
        assert hits[0].identity < 1.0
        assert hits[0].identity > 0.8

    def test_hits_sorted_by_score(self, index):
        index.add("second", "ATGGCCATT" + "CCCCCCCCCCCC")
        hits = blast_search("ATGGCCATTGTAATGGGCCGC", index, min_score=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_best_hit(self, index):
        hit = best_hit("ATGGCCATTGTAATGGGCCGC", index)
        assert hit is not None
        assert hit.subject_id == "target"
        assert best_hit("CACACACACA", index, min_score=100) is None

    def test_hit_length(self, index):
        hit = best_hit("ATGGCCATTGTAATGGGCCGC", index)
        assert len(hit) == hit.query_end - hit.query_start


class TestNaiveScan:
    def test_orders_by_alignment_score(self):
        subjects = {
            "good": "TTTATGGCCATTTTT",
            "bad": "GGGGGGGGGGGGGGG",
        }
        ranked = naive_similarity_scan("ATGGCCATT", subjects)
        assert ranked[0][0] == "good"
        assert ranked[0][1].score > ranked[1][1].score

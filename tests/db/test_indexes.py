"""Tests for hash, k-mer and suffix-array indexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.index.hashindex import HashIndex
from repro.db.index.kmer import KmerIndex
from repro.db.index.suffix import SuffixArrayIndex
from repro.core.types import DnaSequence
from repro.errors import DatabaseError

dna_text = st.text(alphabet="ACGT", min_size=0, max_size=60)


class TestHashIndex:
    def test_insert_and_find(self):
        index = HashIndex("h", "t", "c")
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert sorted(index.search_equal("a")) == [1, 2]
        assert list(index.search_equal("b")) == [3]
        assert list(index.search_equal("z")) == []

    def test_delete(self):
        index = HashIndex("h", "t", "c")
        index.insert("a", 1)
        index.delete("a", 1)
        assert list(index.search_equal("a")) == []
        index.delete("a", 99)  # no-op

    def test_null_ignored(self):
        index = HashIndex("h", "t", "c")
        index.insert(None, 1)
        assert len(index) == 0

    def test_unhashable_keys_handled(self):
        index = HashIndex("h", "t", "c")
        index.insert([1, 2], 1)
        assert list(index.search_equal([1, 2])) == [1]

    def test_no_range_support(self):
        index = HashIndex("h", "t", "c")
        with pytest.raises(DatabaseError):
            list(index.search_range(1, 2))

    def test_a_probe_an_index_lacks_is_refused(self):
        with pytest.raises(DatabaseError):
            KmerIndex("k", "t", "c", k=4).search_equal("ACGT")
        with pytest.raises(DatabaseError):
            HashIndex("h", "t", "c").search_contains("ACGT")


class TestKmerIndex:
    def test_candidates_contain_true_matches(self):
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGGCCATTGTA", 1)
        index.insert("CCCCCCCCCCCC", 2)
        candidates = index.search_contains("GCCATT")
        assert candidates == {1}

    def test_no_false_negatives(self):
        index = KmerIndex("k", "t", "c", k=4)
        texts = {1: "ATGGCCATTGTA", 2: "TTGGCCATAGGG", 3: "AAAACCCCGGGG"}
        for row_id, text in texts.items():
            index.insert(text, row_id)
        pattern = "GCCAT"
        candidates = index.search_contains(pattern)
        true_matches = {r for r, t in texts.items() if pattern in t}
        assert true_matches <= candidates

    def test_short_pattern_cannot_narrow(self):
        index = KmerIndex("k", "t", "c", k=8)
        index.insert("ATGGCCATT", 1)
        assert index.search_contains("ATG") is None

    def test_absent_pattern_empty(self):
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGGCCATT", 1)
        assert index.search_contains("TTTTTTTT") == set()

    def test_delete(self):
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGGCCATT", 1)
        index.delete("ATGGCCATT", 1)
        assert index.search_contains("ATGGCC") == set()
        assert len(index) == 0

    def test_packed_sequence_values(self):
        index = KmerIndex("k", "t", "c", k=4)
        index.insert(DnaSequence("ATGGCCATT"), 1)
        assert index.search_contains("GGCCA") == {1}

    def test_k_validated(self):
        with pytest.raises(DatabaseError):
            KmerIndex("k", "t", "c", k=1)

    def test_ambiguous_subject_always_candidate(self):
        # An 'N' subject can match patterns it shares no k-mers with.
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGNNCATT", 1)
        index.insert("CCCCCCCCC", 2)
        candidates = index.search_contains("ATGGCCATT")
        assert 1 in candidates

    def test_ambiguous_pattern_kmers_excluded(self):
        # Pattern 'ATGGCCATW': its concrete k-mers still narrow, and the
        # row matching via W=T must remain a candidate.
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGGCCATT", 1)
        index.insert("CCCCCCCCC", 2)
        candidates = index.search_contains("ATGGCCATW")
        assert candidates == {1}

    def test_fully_ambiguous_pattern_cannot_narrow(self):
        index = KmerIndex("k", "t", "c", k=4)
        index.insert("ATGGCCATT", 1)
        assert index.search_contains("NNNNN") is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(dna_text, max_size=12), dna_text)
    def test_candidate_soundness(self, texts, pattern):
        # Every true containment must appear in the candidate set.
        index = KmerIndex("k", "t", "c", k=4)
        for row_id, text in enumerate(texts):
            index.insert(text, row_id)
        candidates = index.search_contains(pattern)
        if candidates is None:
            return
        for row_id, text in enumerate(texts):
            if pattern in text:
                assert row_id in candidates


class TestSuffixArrayConstruction:
    def test_known_example(self):
        from repro.db.index.suffix import build_suffix_array

        # banana: suffixes sorted -> a, ana, anana, banana, na, nana.
        assert build_suffix_array("banana") == [5, 3, 1, 0, 4, 2]

    def test_empty_and_single(self):
        from repro.db.index.suffix import build_suffix_array

        assert build_suffix_array("") == []
        assert build_suffix_array("A") == [0]

    def test_homopolymer(self):
        from repro.db.index.suffix import build_suffix_array

        assert build_suffix_array("AAAA") == [3, 2, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ACGT", max_size=80))
    def test_matches_naive_sort(self, text):
        from repro.db.index.suffix import build_suffix_array

        naive = sorted(range(len(text)), key=lambda i: text[i:])
        assert build_suffix_array(text) == naive


class TestSuffixArrayIndex:
    def test_exact_answer(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("ATGGCCATTGTA", 1)
        index.insert("CCCCCC", 2)
        assert index.search_contains("GCCATT") == {1}
        assert index.search_contains("CCC") == {2}
        assert index.search_contains("CC") == {1, 2}

    def test_empty_pattern_matches_all(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("AC", 1)
        index.insert("GG", 2)
        assert index.search_contains("") == {1, 2}

    def test_delete_and_rebuild(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("ATGGCC", 1)
        assert index.search_contains("TGG") == {1}
        index.delete("ATGGCC", 1)
        assert index.search_contains("TGG") == set()

    def test_lazy_rebuild_after_insert(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("AAAA", 1)
        assert index.search_contains("AA") == {1}
        index.insert("AACC", 2)
        assert index.search_contains("CC") == {2}

    def test_ambiguous_subject_always_candidate(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("ATGNNCATT", 1)
        index.insert("CCCCCC", 2)
        assert 1 in index.search_contains("ATGGCCATT")

    def test_ambiguous_pattern_falls_back(self):
        index = SuffixArrayIndex("s", "t", "c")
        index.insert("ATGGCC", 1)
        assert index.search_contains("ATGW") is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(dna_text, max_size=10), dna_text)
    def test_exactness(self, texts, pattern):
        # Suffix array answers must match Python's `in` exactly.
        index = SuffixArrayIndex("s", "t", "c")
        for row_id, text in enumerate(texts):
            index.insert(text, row_id)
        result = index.search_contains(pattern)
        expected = {row_id for row_id, text in enumerate(texts)
                    if pattern in text}
        assert result == expected

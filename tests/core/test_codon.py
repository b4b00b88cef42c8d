"""Tests for genetic codes."""

import pytest

from repro.core.ops.codon import (
    BACTERIAL,
    STANDARD,
    VERTEBRATE_MITOCHONDRIAL,
    YEAST_MITOCHONDRIAL,
    CodonTable,
    available_codon_tables,
    codon_table,
    register_codon_table,
)
from repro.errors import TranslationError


class TestStandardCode:
    def test_start_codon(self):
        assert STANDARD.amino_acid("AUG") == "M"
        assert STANDARD.is_start("AUG")

    def test_stop_codons(self):
        assert STANDARD.stop_codons == {"UAA", "UAG", "UGA"}
        for codon in ("UAA", "UAG", "UGA"):
            assert STANDARD.amino_acid(codon) == "*"
            assert STANDARD.is_stop(codon)

    def test_well_known_codons(self):
        assert STANDARD.amino_acid("UUU") == "F"
        assert STANDARD.amino_acid("UGG") == "W"
        assert STANDARD.amino_acid("GGC") == "G"
        assert STANDARD.amino_acid("AAA") == "K"

    def test_dna_letters_accepted(self):
        assert STANDARD.amino_acid("ATG") == "M"

    def test_lowercase_accepted(self):
        assert STANDARD.amino_acid("aug") == "M"

    def test_bad_length(self):
        with pytest.raises(TranslationError):
            STANDARD.amino_acid("AU")

    def test_sixty_four_codons(self):
        assert len(STANDARD._forward) == 64


class TestAmbiguousCodons:
    def test_fourfold_degenerate_family(self):
        # GCN is alanine for every N.
        assert STANDARD.amino_acid("GCN") == "A"

    def test_conflicting_expansion_gives_x(self):
        assert STANDARD.amino_acid("NNN") == "X"

    def test_twofold_with_y(self):
        # UAY = UAU/UAC = Tyr either way.
        assert STANDARD.amino_acid("UAY") == "Y"


class TestVariantCodes:
    def test_mitochondrial_uga_is_trp(self):
        assert VERTEBRATE_MITOCHONDRIAL.amino_acid("UGA") == "W"
        assert STANDARD.amino_acid("UGA") == "*"

    def test_mitochondrial_aga_is_stop(self):
        assert VERTEBRATE_MITOCHONDRIAL.amino_acid("AGA") == "*"

    def test_yeast_cun_family_is_thr(self):
        assert YEAST_MITOCHONDRIAL.amino_acid("CUU") == "T"

    def test_bacterial_matches_standard_codons(self):
        assert BACTERIAL.amino_acid("CUG") == STANDARD.amino_acid("CUG")

    def test_bacterial_has_more_starts(self):
        assert "AUU" in BACTERIAL.start_codons
        assert "AUU" not in STANDARD.start_codons


class TestStopIsWhatTranslatesToStop:
    """``is_stop`` and ``amino_acid`` are one table: a codon is a stop
    exactly when it translates to ``*``."""

    def test_ambiguous_stop(self):
        assert STANDARD.amino_acid("UAR") == "*"
        assert STANDARD.is_stop("UAR") and STANDARD.is_stop("TAR")
        assert not STANDARD.is_stop("UAN")  # UAU / UAC are tyrosine

    def test_tra_is_a_stop_only_where_uga_is(self):
        assert STANDARD.is_stop("TRA")  # UAA, UGA
        assert not VERTEBRATE_MITOCHONDRIAL.is_stop("TRA")  # UGA reads W

    def test_mitochondrial_agr(self):
        assert VERTEBRATE_MITOCHONDRIAL.is_stop("AGR")
        assert not STANDARD.is_stop("AGR")

    def test_an_ambiguous_codon_is_never_a_start(self):
        # AUG, GUG and UUG all start under the standard code; "DUG",
        # which stands for exactly those three, still does not.
        assert not STANDARD.is_start("DUG")

    def test_a_codon_without_translation_is_neither(self):
        for codon in ("A-A", "AU", "AUGA", ""):
            assert not STANDARD.is_stop(codon)
            assert not STANDARD.is_start(codon)


class TestRegistry:
    def test_lookup_by_id(self):
        assert codon_table(1) is STANDARD
        assert codon_table(2) is VERTEBRATE_MITOCHONDRIAL

    def test_unknown_id(self):
        with pytest.raises(TranslationError):
            codon_table(99)

    def test_available_ids_sorted(self):
        ids = available_codon_tables()
        assert list(ids) == sorted(ids)
        assert 1 in ids and 11 in ids

    def test_register_custom_table(self):
        custom = CodonTable.from_differences(
            901, "custom", {"UGA": "U"}, frozenset({"AUG"})
        )
        register_codon_table(custom)
        try:
            assert codon_table(901).amino_acid("UGA") == "U"
            with pytest.raises(TranslationError):
                register_codon_table(custom)
            register_codon_table(custom, replace=True)
        finally:
            from repro.core.ops import codon as codon_module
            codon_module._TABLES.pop(901, None)

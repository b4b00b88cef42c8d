"""Tests for ORF finding and six-frame translation."""

from repro.adapter import install_genomics
from repro.core.ops import express
from repro.core.ops.basic import reverse_complement
from repro.core.ops.orf import find_orfs, six_frame_translation
from repro.core.types import DnaSequence, Gene, Interval
from repro.core.types.annotation import FORWARD, REVERSE
from repro.db import Database

# ATG AAA CCC TAA -> MKP stop
SIMPLE_ORF = "ATGAAACCCTAA"


class TestFindOrfs:
    def test_simple_forward_orf(self):
        orfs = find_orfs(DnaSequence(SIMPLE_ORF), min_protein_length=3,
                         both_strands=False)
        assert len(orfs) == 1
        orf = orfs[0]
        assert (orf.start, orf.end) == (0, 12)
        assert orf.strand == FORWARD
        assert str(orf.protein) == "MKP"

    def test_min_length_filter(self):
        orfs = find_orfs(DnaSequence(SIMPLE_ORF), min_protein_length=10,
                         both_strands=False)
        assert orfs == []

    def test_orf_in_offset_frame(self):
        orfs = find_orfs(DnaSequence("CC" + SIMPLE_ORF),
                         min_protein_length=3, both_strands=False)
        assert len(orfs) == 1
        assert orfs[0].frame == 2
        assert (orfs[0].start, orfs[0].end) == (2, 14)

    def test_reverse_strand_orf(self):
        text = str(reverse_complement(DnaSequence(SIMPLE_ORF)))
        orfs = find_orfs(DnaSequence(text), min_protein_length=3)
        reverse_orfs = [o for o in orfs if o.strand == REVERSE]
        assert len(reverse_orfs) == 1
        orf = reverse_orfs[0]
        assert str(orf.protein) == "MKP"
        assert (orf.start, orf.end) == (0, 12)

    def test_orf_without_stop_not_reported(self):
        orfs = find_orfs(DnaSequence("ATGAAACCC"), min_protein_length=1,
                         both_strands=False)
        assert orfs == []

    def test_two_orfs_same_frame(self):
        text = SIMPLE_ORF + SIMPLE_ORF
        orfs = find_orfs(DnaSequence(text), min_protein_length=3,
                         both_strands=False)
        assert [(o.start, o.end) for o in orfs] == [(0, 12), (12, 24)]

    def test_nested_start_not_double_reported(self):
        # ATG ATG AAA TAA: the inner ATG is inside the first ORF.
        orfs = find_orfs(DnaSequence("ATGATGAAATAA"), min_protein_length=2,
                         both_strands=False)
        frame0 = [o for o in orfs if o.frame == 0]
        assert len(frame0) == 1
        assert str(frame0[0].protein) == "MMK"

    def test_results_sorted_by_start(self):
        text = "CCC" + SIMPLE_ORF + "G" + SIMPLE_ORF
        orfs = find_orfs(DnaSequence(text), min_protein_length=3)
        starts = [o.start for o in orfs]
        assert starts == sorted(starts)


class TestScansAgreeWithTranslation:
    GENE = "ATGGCCAAATARCCCTAA"  # ATG GCC AAA TAR(stop) CCC TAA

    def test_an_ambiguous_stop_ends_the_orf(self):
        # express() of the same gene stops at TAR; find_orfs used to read
        # through it and report 'MAK*P', a protein with a stop inside.
        orfs = find_orfs(DnaSequence(self.GENE), 1, both_strands=False)
        assert [str(orf.protein) for orf in orfs] == ["MAK"]
        assert (orfs[0].start, orfs[0].end) == (0, 12)

    def test_and_agrees_with_express(self):
        gene = Gene(name="g", sequence=DnaSequence(self.GENE),
                    exons=(Interval(0, len(self.GENE)),))
        assert str(express(gene).sequence) == "MAK"


class TestScansAreTotal:
    """A whole-sequence scan never fails over a symbol of its alphabet."""

    def test_gap_after_the_start(self):
        # Raised TranslationError("untranslatable codon '-AA'") though
        # there is no ORF to report; a gap *before* the start was fine.
        assert find_orfs(DnaSequence("ATGAAA-AACCC"), 1) == []
        assert len(find_orfs(DnaSequence("A-AATGAAATAA"), 1)) == 1

    def test_a_gapped_codon_reads_x_and_is_read_through(self):
        orfs = find_orfs(DnaSequence("ATGAAA-AACCCTAA"), 1,
                         both_strands=False)
        assert [str(orf.protein) for orf in orfs] == ["MKXP"]

    def test_six_frames_of_a_gapped_sequence(self):
        frames = six_frame_translation(DnaSequence("ATGAAA-AACCC"))
        assert str(frames[(FORWARD, 0)]) == "MKXP"
        assert len(frames) == 6

    def test_one_gapped_row_does_not_fail_a_sql_scan(self):
        db = Database()
        install_genomics(db)
        db.execute("CREATE TABLE reads (id INTEGER, seq DNA)")
        db.execute("INSERT INTO reads VALUES (1, dna('ATGAAACCCTAA'))")
        db.execute("INSERT INTO reads VALUES (2, dna('ATGAAA-AACCC'))")
        db.execute("INSERT INTO reads VALUES (3, dna('ATGAAA-AACCCTAA'))")
        rows = db.query(
            "SELECT id, orf_count(seq, 1) FROM reads ORDER BY id").rows
        assert rows == [(1, 1), (2, 0), (3, 1)]


class TestSixFrame:
    def test_six_frames_present(self):
        frames = six_frame_translation(DnaSequence("ATGAAACCCTAA"))
        assert set(frames) == {
            (FORWARD, 0), (FORWARD, 1), (FORWARD, 2),
            (REVERSE, 0), (REVERSE, 1), (REVERSE, 2),
        }

    def test_frame_zero_translation(self):
        frames = six_frame_translation(DnaSequence("ATGAAACCCTAA"))
        assert str(frames[(FORWARD, 0)]) == "MKP*"

    def test_frame_lengths(self):
        frames = six_frame_translation(DnaSequence("A" * 20))
        assert len(frames[(FORWARD, 0)]) == 6
        assert len(frames[(FORWARD, 1)]) == 6
        assert len(frames[(FORWARD, 2)]) == 6

    def test_reverse_frame_is_reverse_complement_translation(self):
        dna = DnaSequence("ATGAAACCCTAA")
        frames = six_frame_translation(dna)
        reverse_frames = six_frame_translation(reverse_complement(dna))
        assert str(frames[(REVERSE, 0)]) == str(reverse_frames[(FORWARD, 0)])

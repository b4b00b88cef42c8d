"""Tests for the Table 1 capability matrix reproduction."""

import pytest

from repro.evaluation import (
    NO,
    PAPER_MATRIX,
    PART,
    PROBES,
    REQUIREMENT_IDS,
    REQUIREMENTS,
    YES,
    CapabilityMatrix,
    ProbeEnvironment,
)


@pytest.fixture(scope="module")
def environment():
    return ProbeEnvironment.build(seed=23, size=40)


@pytest.fixture(scope="module")
def matrix(environment):
    return CapabilityMatrix.build(environment)


class TestEncoding:
    def test_fifteen_requirements(self):
        assert len(REQUIREMENTS) == 15
        assert REQUIREMENT_IDS[0] == "C1"
        assert REQUIREMENT_IDS[-1] == "C15"

    def test_six_literature_systems(self):
        assert set(PAPER_MATRIX) == {
            "SRS", "BioNavigator", "K2/Kleisli", "DiscoveryLink",
            "TAMBIS", "GUS",
        }

    def test_every_cell_graded(self):
        for system, verdicts in PAPER_MATRIX.items():
            assert set(verdicts) == set(REQUIREMENT_IDS), system
            assert all(v in (YES, PART, NO) for v in verdicts.values())

    def test_key_paper_facts_encoded(self):
        # Spot-check the distinctive cells of Table 1.
        assert PAPER_MATRIX["TAMBIS"]["C8"] == YES   # reconciliation
        assert PAPER_MATRIX["GUS"]["C15"] == YES     # archiving
        assert PAPER_MATRIX["GUS"]["C13"] == YES     # user data
        assert PAPER_MATRIX["K2/Kleisli"]["C4"] == NO  # not user-level
        # No existing system handles uncertainty or high-level treatment.
        for system in PAPER_MATRIX:
            assert PAPER_MATRIX[system]["C9"] == NO
            assert PAPER_MATRIX[system]["C12"] == NO
            assert PAPER_MATRIX[system]["C14"] == NO


class TestProbes:
    def test_probe_per_requirement(self):
        assert set(PROBES) == set(REQUIREMENT_IDS)

    @pytest.mark.parametrize("req_id", REQUIREMENT_IDS)
    def test_each_probe_passes_live(self, environment, req_id):
        verdict, evidence = PROBES[req_id](environment)
        assert verdict == YES, f"{req_id} probe failed: {evidence}"
        assert evidence


class TestMatrix:
    def test_columns(self, matrix):
        assert matrix.columns[-1] == "GenAlg+UDB"
        assert len(matrix.columns) == 7

    def test_genalg_column_all_yes(self, matrix):
        assert matrix.genalg_matches_claim()

    def test_literature_column_fidelity(self, matrix):
        assert matrix.literature_matches_paper()

    def test_proposed_system_dominates(self, matrix):
        # The paper's point: the proposal addresses everything the
        # others address, and more.
        order = {NO: 0, PART: 1, YES: 2}
        for system in PAPER_MATRIX:
            for req_id in REQUIREMENT_IDS:
                ours = order[matrix.cells[("GenAlg+UDB", req_id)]]
                theirs = order[matrix.cells[(system, req_id)]]
                assert ours >= theirs

    def test_rendering(self, matrix):
        text = matrix.to_text()
        assert "GenAlg+UDB" in text
        assert "C15" in text
        assert "evidence" in text.lower()

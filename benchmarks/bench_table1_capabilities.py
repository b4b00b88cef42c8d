"""Experiment T1 — Table 1: the capability matrix, reproduced live.

The paper's only "table of results" is qualitative: six integration
systems scored against requirements C1-C15.  This benchmark

1. re-derives the GenAlg+UDB column by **running** the fifteen probes
   against this implementation,
2. checks the literature columns against the published table, and
3. times the probe suite (the cost of demonstrating every capability).

Standalone report:  python benchmarks/bench_table1_capabilities.py
"""

import pytest

from repro.evaluation import (
    NO,
    PART,
    YES,
    CapabilityMatrix,
    ProbeEnvironment,
    PROBES,
    REQUIREMENT_IDS,
)


@pytest.fixture(scope="module")
def environment():
    return ProbeEnvironment.build(seed=1203, size=60)


@pytest.fixture(scope="module")
def matrix(environment):
    return CapabilityMatrix.build(environment)


class TestTable1Reproduction:
    def test_genalg_column_is_all_yes(self, matrix):
        assert matrix.genalg_matches_claim()

    def test_literature_columns_match_paper(self, matrix):
        assert matrix.literature_matches_paper()

    def test_proposed_system_dominates_every_cell(self, matrix):
        order = {NO: 0, PART: 1, YES: 2}
        for column in matrix.columns[:-1]:
            for req_id in REQUIREMENT_IDS:
                assert (order[matrix.cells[("GenAlg+UDB", req_id)]]
                        >= order[matrix.cells[(column, req_id)]])


@pytest.mark.benchmark(group="table1-probes")
def test_bench_full_probe_suite(benchmark, environment):
    """Time of running all fifteen capability probes."""

    def run_all():
        return [PROBES[req_id](environment) for req_id in REQUIREMENT_IDS]

    verdicts = benchmark(run_all)
    assert all(verdict == YES for verdict, __ in verdicts)


@pytest.mark.benchmark(group="table1-probes")
def test_bench_single_query_probe(benchmark, environment):
    """The cheapest probe (C5, one BiQL query) for scale."""
    result = benchmark(PROBES["C5"], environment)
    assert result[0] == YES


def report() -> dict:
    environment = ProbeEnvironment.build(seed=1203, size=60)
    matrix = CapabilityMatrix.build(environment)
    print(matrix.to_text())
    print()
    print(f"GenAlg+UDB all-YES claim reproduced: "
          f"{matrix.genalg_matches_claim()}")
    print(f"literature columns match Table 1:    "
          f"{matrix.literature_matches_paper()}")
    return {
        "genalg_matches_claim": matrix.genalg_matches_claim(),
        "literature_matches_paper": matrix.literature_matches_paper(),
        "matrix": matrix.to_text(),
    }


if __name__ == "__main__":
    from conftest import write_bench_json

    write_bench_json("table1_capabilities", report())

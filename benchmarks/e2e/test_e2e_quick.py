"""The benchmark's own checks: it must fail when an answer is wrong.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
tier-1 suite (``testpaths = tests``) does not collect this directory.
"""

import json
import subprocess
import sys
from pathlib import Path

import compare
import harness
import run
from names import END_TO_END, PER_LAYER, WORKLOADS
from opgen import Op

HERE = Path(__file__).resolve().parent
WORKLOAD = "analytics_fit"        # the cheapest one to build


def run_quick(*extra, trace=0):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
         "--seed", "1203", "--quick", "--seconds", "0.5",
         "--trace", str(trace), *extra],
        capture_output=True, text=True)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_quick_run_is_correct_and_emits_every_end_to_end_metric():
    status, result = run_quick()
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == [name for name, __, ___ in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    status, result = run_quick(trace=1)
    assert status == 0 and result["correct"]
    assert list(result["metrics"]) == [name for name, __, ___ in PER_LAYER]
    metrics = result["metrics"]
    # in memory: no faults, no evictions, no spill
    for name in ("db.columnar.page_fault_ratio",
                 "db.columnar.pages_evicted_per_op",
                 "db.columnar.spill_bytes_per_op"):
        assert metrics[name]["value"] == 0
    assert metrics["db.columnar.zone_skip_ratio"]["value"] > 0


def test_a_wrong_expected_digest_fails_the_run(tmp_path):
    stored = json.loads((HERE / "expected_digests.json").read_text())
    assert stored["quick"][WORKLOAD]["1203"], "quick digest not recorded"
    stored["quick"][WORKLOAD]["1203"] = ["0" * 64]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(stored))
    status, result = run_quick("--digests", str(wrong))
    assert status != 0
    assert not result["correct"] and result["failed"] > 0


class Doubling(harness.Workload):
    """Answers 2 × the payload; the oracle knows that."""

    name = "analytics_fit"       # any declared workload: names its classes
    oracle_classes = ("range", "sort")

    def __init__(self, ops, wrong=()):
        self.ops, self.wrong = ops, wrong

    def oracle_ops(self):
        return self.ops

    def run(self, op):
        return op.payload * (3 if op in self.wrong else 2)

    def oracle(self, op, answer):
        return answer == op.payload * 2


def oracle_pass_failures(workload):
    done = harness.Run(workload, expected=None, import_s=0.0)
    done.oracle_pass()
    return done.failures


def test_oracle_pass_wants_every_oracle_class_checked_and_right():
    enough = [Op(cls, n) for cls in ("range", "sort")
              for n in range(harness.ORACLE_CHECKS_PER_CLASS)]
    assert oracle_pass_failures(Doubling(enough)) == []
    [line] = oracle_pass_failures(Doubling(enough, wrong=enough[-1:]))
    assert line.startswith("sort: oracle disagrees")
    [line] = oracle_pass_failures(Doubling(enough[:-1]))
    assert line.startswith("sort: 3 oracle checks")


def test_slowdown_is_applied_by_unit():
    quiet = harness.at_reference_speed
    assert quiet("p50_ms", 3.0, 1.5) == 2.0
    assert quiet("setup_s", 3.0, 1.5) == 2.0
    assert quiet("adapter.encode.us_per_value", 3.0, 1.5) == 2.0
    assert quiet("ops_per_s", 2.0, 1.5) == 3.0
    assert quiet("mediator.cache.hit_ratio", 0.75, 1.5) == 0.75
    assert quiet("peak_rss_mb", 40.0, 1.5) == 40.0


def test_manifest_declares_what_names_spells():
    assert run.check_manifest() == []
    manifest = json.loads(run.MANIFEST.read_text())
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert len(manifest["workloads"]) == len(WORKLOADS) == 6
    bounds = {entry["name"]: entry["bound"]
              for entry in manifest["end_to_end"]}
    # the contract: at most 0.25, and set-up time carries the largest
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_compare_verdicts():
    def label(a, b, better="lower", bound=0.25):
        return compare.verdict(a, b, better, bound)[0]

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert label(steady, [value * 1.3 for value in steady]) == "worse"
    assert label(steady, [value * 1.3 for value in steady],
                 better="higher") == "better"
    assert label(steady, steady) == "same"
    # a gain far inside the bound still shows when B wins every pair
    # by more than A's own quartile distance
    assert label(steady, [value * 0.95 for value in steady]) == "better"
    noisy = [100.0, 160.0, 70.0, 130.0, 95.0]
    assert label(steady, noisy) == "unresolved"
    # every run better than every parent run wins despite the spread
    assert label(noisy, [10.0, 30.0, 20.0]) == "better"

"""Compare two sets of benchmark runs under ``BENCHMARK.json``'s bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a file written by
``run.py --out``, or a directory of such files — ideally ten or more
runs a side, taken in alternating pairs.  One row is printed per
end-to-end metric × workload:

- **better** — B wins at least nine tenths of the pairs (the i-th run
  of A against the i-th run of B) and the medians differ by more than
  the distance between A's quartiles; or every run of B reads better
  than every run of A.  This is the only row that may carry a claim,
  and it does not depend on the bound;
- **unresolved** — either side's own run-to-run spread (the distance
  between its quartiles, as a share of its median) is wider than the
  metric's bound, so the runs cannot tell; a wide spread is never "same";
- **worse** — B's median is worse than A's by more than the bound;
- **same** — anything else.

plus one failed-share row per workload.  Exit status 1 when any row
reads worse or unresolved, or more operations failed in B than in A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict[str, list[dict]]:
    """workload → its end-to-end (``--trace 0``) runs, from one
    ``--out`` file or from every ``*.json`` in a directory."""
    side = Path(path)
    grouped: dict[str, list[dict]] = {}
    for file in sorted(side.glob("*.json")) if side.is_dir() else [side]:
        for run in json.loads(file.read_text())["runs"]:
            if not run.get("trace"):
                grouped.setdefault(run["workload"], []).append(run)
    return grouped


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, __, third = statistics.quantiles(values, n=4)
    return third - first


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    return quartile_distance(values) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """(row label, B's median change as a share of A's with + = worse,
    share of the pairs B wins)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = sign * (median_b - median_a) / median_a
    pairs = list(zip(a, b))
    wins = sum(1 for one, other in pairs
               if sign * (other - one) < 0) / len(pairs)
    apart = ((max(b) < min(a)) if better == "lower"
             else (min(b) > max(a)))
    if apart or (wins >= 0.9 and change < 0
                 and abs(median_b - median_a) > quartile_distance(a)):
        return "better", change, wins
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change, wins
    return ("worse" if change > bound else "same"), change, wins


def failed_share(runs: list[dict]) -> float:
    return (sum(run["failed"] for run in runs)
            / max(1, sum(run["attempted"] for run in runs)))


def compare(path_a: str, path_b: str) -> int:
    manifest = json.loads(MANIFEST.read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"{'workload':<21} {'metric':<14} {'A median':>11} "
          f"{'B median':>11} {'change':>8} {'B wins':>7} {'spread A':>9} "
          f"{'spread B':>9} {'bound':>6}  verdict")
    for entry in manifest["workloads"]:
        workload = entry["name"]
        side_a, side_b = runs_a.get(workload), runs_b.get(workload)
        if not side_a or not side_b:
            print(f"{workload:<21} (missing from "
                  f"{'A' if not side_a else 'B'})")
            status = 1
            continue
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in side_a]
            b = [run["metrics"][name]["value"] for run in side_b]
            label, change, wins = verdict(a, b, metric["better"],
                                          metric["bound"])
            if label in ("worse", "unresolved"):
                status = 1
            print(f"{workload:<21} {name:<14} "
                  f"{statistics.median(a):>11.5g} "
                  f"{statistics.median(b):>11.5g} {change:>+8.1%} "
                  f"{wins:>7.0%} {spread(a):>9.1%} {spread(b):>9.1%} "
                  f"{metric['bound']:>6.0%}  {label}")
        share_a, share_b = failed_share(side_a), failed_share(side_b)
        label = "worse" if share_b > share_a else "same"
        if label == "worse":
            status = 1
        print(f"{workload:<21} {'failed share':<14} {share_a:>11.5g} "
              f"{share_b:>11.5g} {'':>8} {'':>7} {'':>9} {'':>9} {'0':>6}  "
              f"{label}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))

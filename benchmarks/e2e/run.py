"""The repo's wall-clock benchmark: six workloads through the real stack.

One workload, the way the driver calls it (last stdout line is the
result object; ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload biql_interactive \\
        --seed 1203 --seconds 10 --trace 0

Every workload, both passes, each in a fresh interpreter::

    python3 benchmarks/e2e/run.py --seed 1203 [--out runs.json]

CI smoke (tenth scale, no timing bounds: schema, oracles, digests, and
every declared metric emitted)::

    python3 benchmarks/e2e/run.py --quick --check

Exit status is non-zero when any operation failed an oracle, a digest
or raised — and when the program under test is not there to measure.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()   # set-up is counted from here

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "expected_digests.json"
MANIFEST = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

from names import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402

#: workload → (module, class); imported only in the run that needs it.
_WORKLOAD_CLASSES = {
    "biql_interactive": ("wl_biql", "BiqlInteractive"),
    "algebra_scan": ("wl_biql", "AlgebraScan"),
    "analytics_fit": ("wl_analytics", "AnalyticsFit"),
    "analytics_outofcore": ("wl_analytics", "AnalyticsOutOfCore"),
    "federated_mix": ("wl_federated", "FederatedMix"),
    "etl_durable": ("wl_etl", "EtlDurable"),
}

#: Share of ``--seconds`` a ``--trace 1`` run spends on untraced rounds
#: (the baseline its traced pass is compared with) before tracing.
TRACE_BASELINE_SHARE = 0.45
EXTRA_SETUPS = 2


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all six, each "
                             "in its own interpreter)")
    parser.add_argument("--seed", type=int, default=1203)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                             "BENCHMARK.json's run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-scale data and op lists")
    parser.add_argument("--check", action="store_true",
                        help="also verify BENCHMARK.json against names.py "
                             "and that every declared metric is emitted")
    parser.add_argument("--digests", default=str(DIGESTS),
                        help="expected answers_digest file")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the expected "
                             "ones for its seed and scale")
    parser.add_argument("--trace-out",
                        help="write the traced pass's spans (JSONL)")
    parser.add_argument("--out", help="suite mode: write every run's "
                                      "result here (input of compare.py)")
    return parser.parse_args(argv)


def default_seconds(quick: bool) -> float:
    if quick:
        return 1.0
    return float(json.loads(MANIFEST.read_text())["run_seconds"])


# -- one workload ---------------------------------------------------------------


def load_digests(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def run_single(args: argparse.Namespace) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"nothing to measure: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # Everything the run writes (WAL, images, page and sort spills)
    # stays under the benchmark's own directory.
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args: argparse.Namespace, workdir: str) -> int:
    import importlib

    from harness import Run

    module, name = _WORKLOAD_CLASSES[args.workload]
    workload = getattr(importlib.import_module(module), name)(
        args.seed, args.quick, workdir)
    import_s = time.perf_counter() - _STARTED
    seconds = (args.seconds if args.seconds is not None
               else default_seconds(args.quick))
    scale = "quick" if args.quick else "full"
    stored = load_digests(args.digests)
    expected = (stored.get(scale, {}).get(args.workload, {})
                .get(str(args.seed)))
    run = Run(workload, import_s=import_s,
              expected=None if args.record_digests else expected)

    run.set_up()
    run.oracle_pass()
    run.timed_rounds(seconds * (TRACE_BASELINE_SHARE if args.trace else 1))
    trace = run.traced_pass() if args.trace else None
    for line in workload.finish():
        run.fail(line)
    if trace is not None:
        metrics = run.per_layer(trace)
        if args.trace_out:
            trace.rec.dump(args.trace_out)
    workload.close()
    if trace is None:
        for __ in range(EXTRA_SETUPS):
            run.set_up()
            workload.close()
        metrics = run.end_to_end()

    if args.record_digests:
        stored.setdefault(scale, {}).setdefault(args.workload, {})[
            str(args.seed)] = (run.digests[:1] if workload.stationary
                               else run.digests)
        with open(args.digests, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")

    samples = sum(len(batch.ops) for batch in run.rounds)
    print(f"{args.workload}  seed={args.seed}  scale={scale}  "
          f"rounds={len(run.rounds)}  timed ops n={samples}  "
          f"answers_digest={run.digests[0][:16]}…"
          f"{'' if expected else '  (no stored digest for this seed)'}"
          f"  box slowdown ×{run.box_slowdown():.3f}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {UNITS[name]}")
    for line in run.failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


# -- the whole suite -------------------------------------------------------------


def check_manifest() -> list[str]:
    """BENCHMARK.json must declare exactly what names.py spells."""
    manifest = json.loads(MANIFEST.read_text())
    problems = []
    if [entry["name"] for entry in manifest["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from names.WORKLOADS")
    for key, declared in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        listed = [(entry["name"], entry["unit"], entry["better"])
                  for entry in manifest[key]]
        if sorted(listed) != sorted(declared):
            problems.append(f"{key} differs from names.py")
    return problems


def run_suite(args: argparse.Namespace) -> int:
    problems = check_manifest() if args.check else []
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--trace", str(trace), "--digests", args.digests]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            if args.record_digests:
                command.append("--record-digests")
            done = subprocess.run(command, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{workload} --trace {trace}: no result "
                                f"(exit {done.returncode})\n{done.stderr}")
                continue
            if done.returncode or not result["correct"]:
                problems.append(
                    f"{workload} --trace {trace}: {result['failed']} of "
                    f"{result['attempted']} operations failed")
            declared = PER_LAYER if trace else END_TO_END
            missing = [name for name, __, ___ in declared
                       if name not in result["metrics"]]
            if missing:
                problems.append(f"{workload} --trace {trace}: metrics "
                                f"not emitted: {missing}")
            runs.append({"workload": workload, "seed": args.seed,
                         "trace": trace, **result})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)
            handle.write("\n")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_arguments(argv)
    return run_single(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())

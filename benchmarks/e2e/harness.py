"""The phases every workload runs through, and the numbers they yield.

Method (see README.md for the reasons):

- **Closed loop, one client.**  The next operation is issued when the
  previous one returns; the generator adds no threads of its own.
- **One fresh interpreter per workload** (``run.py`` is invoked once
  per workload), so peak RSS, GC state and caches never leak across.
- **Phases:** set-up (build + load + warm-up) → an untimed *oracle
  pass* (every op class that has an oracle is checked
  ``ORACLE_CHECKS_PER_CLASS`` times) → timed *rounds* with tracing off
  until ``--seconds`` is spent, ``gc.collect()`` between rounds, GC left
  on → (``--trace 1`` only) one traced pass for the per-layer numbers →
  end-of-run checks → (``--trace 0`` only) two more set-ups, so
  ``setup_s`` is a median of three.
- **Reference-speed time.**  Every timing — set-up, per-op latency,
  CPU, spans, replays — is divided by the *slowdown* of the stretch it
  was taken in (see ``SPIN_NOMINAL_S``).  Latency percentiles pool the
  samples of all rounds; ``ops_per_s`` is the median over the rounds.
- **Correctness:** every answer is reduced to a canonical text.  A
  stationary workload replays one op list each round and every round
  must reproduce round 0 answer for answer; a workload whose state
  advances (sources churn) runs consecutive rounds of one seeded op
  stream.  Round digests are compared with ``expected_digests.json``
  when it knows the seed.  A mismatch or an exception is a failed op.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable

from names import CLASSES, PER_LAYER, UNITS
from opgen import Op, canon, digest
from spans import Recorder

#: The box this runs on is a small shared VM whose speed drifts by up
#: to 1.9× over tens of seconds to minutes — longer than a run, so no
#: statistic taken inside a run removes it (README, "The box drifts").  Every
#: timed stretch is therefore interleaved with a short calibration loop
#: (pure interpreter arithmetic, none of the program's code), and every
#: timing of the stretch is divided by its *slowdown*: the mean loop time
#: over the nominal one.  The nominal time is a definition, not a
#: measurement: timings read "milliseconds on a box where the loop takes
#: 1 ms" (the build box, when quiet, takes 1.0 ms).  Runs are comparable
#: only if every run divides by the same constant, which is why it is
#: not estimated inside the run.
SPIN_ITERATIONS = 20_000
SPIN_NOMINAL_S = 1.0e-3
#: Work (seconds) between two calibration loops: ~3 % overhead.
SPIN_EVERY_S = 0.04

#: Oracle checks per op class in the oracle pass (oracles recompute an
#: answer the slow, independent way; a handful per class is the point).
ORACLE_CHECKS_PER_CLASS = 4


class Workload:
    """What a workload must provide; see the ``wl_*`` modules."""

    name = ""
    #: True when every round replays one op list (no state advances).
    stationary = True
    #: Span names that together make up one traced op.
    stages: tuple[str, ...] = ()
    #: Per-layer metric → value measured inside :meth:`build`.
    build_metrics: dict[str, float] = {}

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    @property
    def oracle_classes(self) -> tuple[str, ...]:
        """Op classes :meth:`oracle` can check (default: all of them);
        the oracle pass fails when one of them goes unchecked."""
        return CLASSES[self.name]

    def build(self) -> None:
        """Build and load the system under test (timed as set-up).
        May be called again after :meth:`close` for a fresh system."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, once: op lists and oracle twins."""

    def close(self) -> None:
        """Release what :meth:`build` opened."""

    def warmup_ops(self) -> list[Op]:
        ops = self.round_ops(0)
        return ops[:max(1, len(ops) // 10)]

    def oracle_ops(self) -> list[Op]:
        """Ops of the untimed oracle pass: at least
        ``ORACLE_CHECKS_PER_CLASS`` of every class in
        :attr:`oracle_classes`, whatever the scale of the run."""
        raise NotImplementedError

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        """The one-call form of *op*; returns its answer."""
        raise NotImplementedError

    def run_traced(self, op: Op, rec: Recorder) -> Any:
        """*op* as its stages, each under a span; same answer."""
        raise NotImplementedError

    def canon(self, op: Op, answer: Any) -> str:
        return canon(answer)

    def oracle(self, op: Op, answer: Any) -> bool:
        """Recompute the answer of an op of one of the
        :attr:`oracle_classes` independently; do they agree?"""
        raise NotImplementedError

    def timing_key(self, op: Op, answer: Any) -> Any:
        """Ops sharing a key are comparable in cost."""
        return op.cls

    def begin_trace(self, rec: Recorder) -> None:
        """Install counters/sinks for the traced pass."""

    def end_trace(self, rec: Recorder) -> None:
        """Remove what :meth:`begin_trace` installed."""

    def layer_metrics(self, trace: "TracedPass") -> dict[str, float]:
        return {}

    def finish(self) -> list[str]:
        """End-of-run checks; returns one line per failure."""
        return []


class Failure:
    """The answer of an operation that raised."""

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"Failure({type(self.error).__name__}: {self.error})"


@dataclass
class Batch:
    """One executed op list: what ran, how long, what came back."""

    ops: list[Op]                 # timed ops only
    seconds: list[float]
    answers: list[Any]
    cpu_s: float
    #: Mean calibration-loop time during this batch over the nominal.
    slowdown: float
    texts: list[str] = field(default_factory=list)
    #: Workload.timing_key of every op (filled in by verification).
    keys: list[Any] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.seconds)


@dataclass
class TracedPass:
    """Everything :meth:`Workload.layer_metrics` may read."""

    rec: Recorder
    batch: Batch
    #: What the same ops cost untraced (seconds, summed).
    untraced_s: float
    #: Untraced per-class latency samples (seconds).
    samples: dict[str, list[float]]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def third_of_each_class(ops: list[Op]) -> list[int]:
    """Positions of the first ⌈n/3⌉ ops of every class, in list order —
    so a traced pass meets every class, rare ones included."""
    quota: dict[str, int] = {}
    for op in ops:
        quota[op.cls] = quota.get(op.cls, 0) + 1
    quota = {cls: math.ceil(count / 3) for cls, count in quota.items()}
    slots = []
    for slot, op in enumerate(ops):
        if quota[op.cls] > 0:
            quota[op.cls] -= 1
            slots.append(slot)
    return slots


def spin() -> tuple[float, float]:
    """One calibration loop: (wall seconds, CPU seconds)."""
    cpu_start = process_time()
    start = perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value % 7
    return perf_counter() - start, process_time() - cpu_start


class Calibration:
    """Calibration loops interleaved with one stretch of work."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpu_s = 0.0
        self.sample()

    @property
    def wall_s(self) -> float:
        """Wall time spent in the loops so far."""
        return sum(self.walls)

    def sample(self) -> None:
        wall, cpu = spin()
        self.walls.append(wall)
        self.cpu_s += cpu
        self._last = perf_counter()

    def tick(self) -> None:
        """Sample if enough work has passed since the last loop."""
        if perf_counter() - self._last >= SPIN_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Close the stretch with one more loop; mean loop time over
        the nominal one."""
        self.sample()
        return statistics.fmean(self.walls) / SPIN_NOMINAL_S


def at_reference_speed(name: str, value: float, slowdown: float) -> float:
    """A metric measured under *slowdown*, as the reference-speed box
    would read it: times shrink, rates grow, counts and ratios stay."""
    unit = UNITS[name]
    if unit in ("s", "ms", "us"):
        return value / slowdown
    return value * slowdown if unit == "1/s" else value


def execute(ops: list[Op], runner: Callable[[Op], Any],
            before: "Callable[[int], None] | None" = None) -> Batch:
    """Run *ops* back to back; time each timed one.

    Answers are kept and canonicalised by the caller afterwards, so the
    loop holds the program's work, two clock reads per op and the
    calibration loops (whose CPU time is taken out of the CPU window)."""
    timed: list[Op] = []
    seconds: list[float] = []
    answers: list[Any] = []
    cpu_start = process_time()
    calibration = Calibration()
    for op in ops:
        if not op.timed:
            runner(op)
            continue
        if before is not None:
            before(len(timed))     # the op's position in the batch
        start = perf_counter()
        try:
            answer = runner(op)
        except Exception as error:   # a failed op is a result, not a crash
            answer = Failure(error)
        seconds.append(perf_counter() - start)
        timed.append(op)
        answers.append(answer)
        calibration.tick()
    slowdown = calibration.slowdown()
    return Batch(timed, seconds, answers,
                 process_time() - cpu_start - calibration.cpu_s, slowdown)


class Run:
    """One workload, one seed, one pass through the phases."""

    def __init__(self, workload: Workload, *,
                 expected: "list[str] | None", import_s: float) -> None:
        self.wl = workload
        self.expected = expected
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self.rounds: list[Batch] = []
        self.digests: list[str] = []
        self.reference: "list[str] | None" = None
        self.peak_rss_mb = 0.0
        self.build_metrics: dict[str, float] = {}

    # -- bookkeeping ------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def _verify(self, batch: Batch, round_index: "int | None",
                slots: "list[int] | None" = None) -> None:
        """Canonicalise a batch's answers and check them.  *slots* are
        the batch's positions in a stationary op list (default: all)."""
        wl = self.wl
        self.attempted += len(batch.ops)
        for op, answer in zip(batch.ops, batch.answers):
            if isinstance(answer, Failure):
                batch.texts.append(repr(answer))
                batch.keys.append(op.cls)
                self.fail(f"{op.cls}: {answer!r}")
            else:
                batch.texts.append(wl.canon(op, answer))
                batch.keys.append(wl.timing_key(op, answer))
        if wl.stationary:
            if self.reference is None:
                self.reference = batch.texts
            else:
                wanted = (self.reference if slots is None
                          else [self.reference[slot] for slot in slots])
                for op, text, want in zip(batch.ops, batch.texts, wanted):
                    if text != want:
                        self.fail(f"{op.cls}: answer differs from round 0")
        if round_index is None:
            return
        got = digest(batch.texts)
        self.digests.append(got)
        if self.expected:
            slot = 0 if wl.stationary else round_index
            if slot < len(self.expected) and got != self.expected[slot]:
                self.fail(f"round {round_index}: answers_digest {got[:16]}… "
                          f"is not the stored {self.expected[slot][:16]}…")

    # -- phases -----------------------------------------------------------

    def _run_untimed(self, op: Op, phase: str) -> Any:
        """Run one op outside the timed rounds; a raise still counts."""
        try:
            answer = self.wl.run(op)
        except Exception as error:
            answer = Failure(error)
        if op.timed:
            self.attempted += 1
            if isinstance(answer, Failure):
                self.fail(f"{phase} {op.cls}: {answer!r}")
        return answer

    def set_up(self) -> None:
        """Build + warm-up; one ``setup_s`` sample.  The one-off
        :meth:`Workload.prepare` (op lists, oracle twins) is benchmark
        overhead and is left out of the sample."""
        wl = self.wl
        first = not self.setup_samples
        calibration = Calibration()
        start = perf_counter()
        wl.build()
        build_s = perf_counter() - start
        calibration.sample()
        if first:
            wl.prepare()
        spun_s = calibration.wall_s
        start = perf_counter()
        for op in wl.warmup_ops():
            self._run_untimed(op, "warm-up")
            calibration.tick()
        warm_s = perf_counter() - start - (calibration.wall_s - spun_s)
        slowdown = calibration.slowdown()
        self.setup_samples.append((build_s + warm_s) / slowdown)
        if first:
            self.import_s /= slowdown
            self.build_metrics = {
                name: at_reference_speed(name, value, slowdown)
                for name, value in wl.build_metrics.items()}

    def oracle_pass(self) -> None:
        """Untimed: every class that has an oracle is recomputed the
        independent way ``ORACLE_CHECKS_PER_CLASS`` times; a class left
        short of that is itself a failure."""
        wl = self.wl
        checked = dict.fromkeys(wl.oracle_classes, 0)
        for op in wl.oracle_ops():
            answer = self._run_untimed(op, "oracle pass")
            if op.cls not in checked or isinstance(answer, Failure):
                continue
            checked[op.cls] += 1
            if not wl.oracle(op, answer):
                self.fail(f"{op.cls}: oracle disagrees on {op.payload!r}")
        for cls, count in checked.items():
            if count < ORACLE_CHECKS_PER_CLASS:
                self.fail(f"{cls}: {count} oracle checks, "
                          f"{ORACLE_CHECKS_PER_CLASS} wanted")

    def timed_rounds(self, budget_s: float) -> None:
        """Rounds with tracing off until *budget_s* is spent.  A new
        round starts only while at least half of it still fits."""
        started = perf_counter()
        index = 0
        while True:
            gc.collect()
            round_start = perf_counter()
            batch = execute(self.wl.round_ops(index), self.wl.run)
            self._verify(batch, index)
            # Held answers would make peak RSS grow with the number of
            # rounds a run happens to fit; texts and keys are enough.
            batch.answers = []
            if self.reference is not batch.texts:
                batch.texts = []
            self.rounds.append(batch)
            index += 1
            now = perf_counter()
            if (now - started) + 0.5 * (now - round_start) >= budget_s:
                break
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for cls in set(CLASSES[self.wl.name]) - set(self.class_samples()):
            self.fail(f"{cls}: no operation of this class was timed")

    def traced_pass(self) -> TracedPass:
        """One pass with the benchmark's spans on: a third of every
        class of the op list (stationary) or the next round (state
        advances)."""
        wl = self.wl
        index = len(self.rounds)
        ops = wl.round_ops(index)
        slots = None
        if wl.stationary:
            slots = third_of_each_class(ops)
            ops = [ops[slot] for slot in slots]
        rec = Recorder()
        wl.begin_trace(rec)
        try:
            batch = execute(ops, lambda op: wl.run_traced(op, rec),
                            before=rec.begin_op)
        finally:
            wl.end_trace(rec)
        # A stationary pass is compared answer for answer with round 0;
        # otherwise it is the next round of the op stream.
        self._verify(batch, None if wl.stationary else index, slots)
        return TracedPass(rec, batch, self._untraced_cost(batch, slots),
                          self.class_samples())

    def _untraced_cost(self, batch: Batch,
                       slots: "list[int] | None") -> float:
        """What *batch*'s ops cost in the untraced rounds (reference-speed
        seconds): per position when rounds replay one list, per timing
        key otherwise."""
        if slots is not None:
            return sum(statistics.fmean(done.seconds[slot] / done.slowdown
                                        for done in self.rounds)
                       for slot in slots)
        by_key: dict[Any, list[float]] = {}
        for done in self.rounds:
            for key, took in zip(done.keys, done.seconds):
                by_key.setdefault(key, []).append(took / done.slowdown)
        return sum(statistics.fmean(by_key[key]) if key in by_key
                   else took / batch.slowdown
                   for key, took in zip(batch.keys, batch.seconds))

    # -- numbers ----------------------------------------------------------

    def box_slowdown(self) -> float:
        """Median over the rounds of their slowdown."""
        return statistics.median(batch.slowdown for batch in self.rounds)

    def class_samples(self) -> dict[str, list[float]]:
        """Class → per-op latencies of the untraced rounds (seconds at
        reference speed)."""
        samples: dict[str, list[float]] = {}
        for batch in self.rounds:
            for op, took in zip(batch.ops, batch.seconds):
                samples.setdefault(op.cls, []).append(
                    took / batch.slowdown)
        return samples

    def end_to_end(self) -> dict[str, float]:
        """Latency percentiles pool the samples of every round;
        ``ops_per_s`` is the median over the rounds; every sample is
        first divided by its round's slowdown."""
        pooled = sorted(took / batch.slowdown for batch in self.rounds
                        for took in batch.seconds)
        return {
            "setup_s": self.import_s + statistics.median(self.setup_samples),
            "ops_per_s": statistics.median(
                len(batch.ops) * batch.slowdown / batch.busy_s
                for batch in self.rounds),
            "p50_ms": percentile(pooled, 0.50) * 1000.0,
            "p95_ms": percentile(pooled, 0.95) * 1000.0,
            "cpu_ms_per_op": sum(batch.cpu_s / batch.slowdown
                                 for batch in self.rounds)
            * 1000.0 / len(pooled),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, trace: TracedPass) -> dict[str, float]:
        """Every per-layer name; layers this workload never reaches,
        and classes it does not run, read 0.  Span and replay timings
        are divided by the traced pass's slowdown (the replays run
        right after it)."""
        values = {name: 0.0 for name, __, ___ in PER_LAYER}
        for name in CLASSES[self.wl.name]:
            ordered = sorted(trace.samples.get(name, ()))
            if ordered:
                values[f"class.{name}.p50_ms"] = (
                    percentile(ordered, 0.50) * 1000.0)
        slowdown = trace.batch.slowdown
        for name, value in self.wl.layer_metrics(trace).items():
            if name not in values:
                raise KeyError(f"{self.wl.name} reports an undeclared "
                               f"metric {name!r}")
            values[name] = at_reference_speed(name, value, slowdown)
        values.update(self.build_metrics)
        staged_s = sum(trace.rec.total_ms(stage)
                       for stage in self.wl.stages) / 1000.0 / slowdown
        values["bench.box_slowdown"] = slowdown
        values["bench.trace_overhead_frac"] = (
            trace.batch.busy_s / slowdown / trace.untraced_s - 1.0)
        values["bench.unattributed_frac"] = (
            1.0 - staged_s / trace.untraced_s)
        return values

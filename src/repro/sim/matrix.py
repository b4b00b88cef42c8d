"""Every ``--self-test`` matrix, as schedules of the two seeded drivers.

A :class:`Scenario` is a schedule and the ``(field, value)`` pairs its
run must show (a ``range``: any value in it).  With a *world* (what
:func:`repro.sim.sources.build` takes) it runs on the source driver,
whose invariants hold after every step: chaos 1–11.  Without, it runs
on :func:`repro.sim.group.run`, whose checks hold on every run: chaos
12–14, and the crash and scrub schedules, which show a clean last
reopen's :class:`~repro.db.recovery.RecoveryReport` fields or the
:class:`~repro.errors.StorageError` kind reopen and scrub agree on.

Three scenarios need a step the alphabet lacks and stay unit tests:
``image-wal-generation-skew`` (``tests/db/test_recovery.py::
test_a_stale_pre_checkpoint_log_is_skipped``), ``unflushed-group-commit``
(``TestGroupCommit`` there) and ``old-format-is-refused``
(``tests/db/test_scrub.py::TestOldFormatsAreRefused``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import StorageError
from repro.mediator import BreakerPolicy, RetryPolicy
from repro.selftest import ScenarioMatrix, expect
from repro.serving import ServingPolicy
from repro.sim import group, sources

W = (("write",),)
REOPEN = ("reopen",)
#: Twelve writes fill the active file to 962 bytes, a newline at 431.
WRITTEN = W * 12
#: An image, two sealed segments it does not cover (generation 1 holds
#: bytes 657–1354 end to end) and an active file.
CHECKPOINTED = (W * 8 + (("checkpoint",),) + W * 8 + (("rotate",),) + W * 8
                + (("rotate",),) + W * 6)

#: Chaos 12: the primary dies mid-append after a rotation, with five
#: statements nobody shipped; bravo alone holds the newer segment.
REPLICA_FAILOVER = (
    [("write",)] * 12 + [("sync",), ("rotate",)] + [("write",)] * 8
    + [("catch_up", "bravo"), ("advance", 2.0)] + [("write",)] * 5
    + [("crash", 30), ("advance", 3.0), ("failover",), ("write",),
       ("sync",)])

#: Chaos 13: after a clean sync, flips land in bravo's sealed
#: generation 0, alpha's image, a shipment to charlie and, once charlie
#: alone holds generation 2, that segment; then the primary dies, and
#: charlie, repaired from alpha's disk, is crowned.
BIT_ROT_REPAIR = (
    [("write",)] * 8 + [("rotate",)] + [("write",)] * 8 + [("checkpoint",)]
    + [("write",)] * 4
    + [("sync",), ("scrub", "bravo"), ("scrub", "charlie"),
       ("flip", "bravo", "wal", 300, 0x01), ("scrub", "bravo"),
       ("catch_up", "bravo"), ("scrub", "bravo"),
       ("flip", "alpha", "image", 90, 0x01),
       ("flip", "charlie", "shipment", 1500, 0x01), ("scrub", "charlie")]
    + [("write",)] * 6
    + [("rotate",), ("catch_up", "charlie"),
       ("flip", "charlie", "wal", 2000, 0x01),
       ("crash", 0), ("advance", 3.0), ("failover",)])


def split_brain(lease_timeout: float = 2.0, duration: float = 100.0):
    """Chaos 14's schedule: eight replicated writes, then alpha's
    channel is cut for *duration*; alpha acknowledges three writes
    nobody sees and refuses a fourth once its lease dies, and bravo is
    promoted and writes four more."""
    return ([("write",)] * 8 + [("sync",), ("partition", duration, "alpha")]
            + [("write",)] * 3
            + [("advance", lease_timeout + 1.0), ("write",), ("failover",)]
            + [("write",)] * 4 + [("sync",)])


@dataclass(frozen=True)
class Scenario:
    """*refusal*: the kind reopen and scrub agree on; *world*: the
    source driver's (``None``: the replication group's)."""

    name: str
    schedule: tuple
    refusal: "str | None" = None
    report: tuple = ()
    world: "dict | None" = None


ASK = ("ask", "find_genes")
#: Two attempts one virtual second apart, no jitter.
TWICE = RetryPolicy(max_attempts=2, base_delay=1.0, multiplier=2.0,
                    jitter=0.0)
#: The eight accessions chaos 9 primes point lookups for.
LOOKUPS = tuple(("ask", "gene", f"GA10000{n}") for n in range(8))
ANY = range(1, 1 << 20)


def _channel_lost(source: str, channel: str, *churns: int) -> tuple:
    """Three rounds of churn and poll; *channel* is down in the second."""
    first, second, third = ((("churn", source, n), ("poll", source))
                            for n in churns)
    return (first + (("drop", source, channel),) + second
            + (("restore", source, channel),) + third)


SCENARIOS = {"recover": (
    Scenario("torn-final-record", WRITTEN + (("crash", 5), REOPEN),
             report=(("torn_tail_dropped", True),)),
    Scenario("torn-middle-record",
             WRITTEN + (("flip", "alpha", "wal", 431, 0x20), REOPEN),
             refusal="corrupt_middle"),
    Scenario("missing-image", WRITTEN + (REOPEN,),
             report=(("image_loaded", False),)),
    Scenario("crash-mid-checkpoint",
             W * 6 + (("checkpoint",),) + W * 6 + (("rotate",),) + W * 6
             + (REOPEN,),
             report=(("segments_replayed", 2), ("segments_skipped", 1))),
    Scenario("replay-does-not-grow-log", WRITTEN + (REOPEN, REOPEN)),
    Scenario("scrub-during-recovery",
             W * 8 + (("rotate",),) + W * 8 + (
                 ("crash", 7), REOPEN, ("flip", "alpha", "wal", 392, 0x01),
                 REOPEN),
             refusal="bit_rot", report=(("torn_tail_dropped", True),)),
), "scrub": (
    Scenario("clean-state-no-false-positives", CHECKPOINTED + (REOPEN,),
             report=(("segments_replayed", 3), ("segments_skipped", 1))),
    Scenario("sealed-segment-bit-rot",
             CHECKPOINTED + (("flip", "alpha", "wal", 1007, 0x01), REOPEN),
             refusal="bit_rot"),
    Scenario("image-digest-mismatch",
             CHECKPOINTED + (("flip", "alpha", "image", 301, 0x01), REOPEN),
             refusal="digest_mismatch"),
    Scenario("torn-active-tail-is-not-damage",
             CHECKPOINTED + (("crash", 7), REOPEN),
             report=(("torn_tail_dropped", True),)),
), "chaos": (
    Scenario("intermittent-retry", (("fail", "GenBank", 2, "snapshot"), ASK),
             report=(("complete", True), ("retried", ("GenBank",)),
                     ("retries", 2), ("cost.source_failures", 2)),
             world=dict(seed=201)),
    Scenario("outage-window", (("outage", "EMBL", 1000.0), ASK,
                               ("ask", "find_genes", None, True)),
             report=(("failed@1", ("EMBL",)), ("error@2", "MediatorError"),
                     ("skipped@2", ("EMBL",))),
             world=dict(seed=202)),
    Scenario("breaker-recovery",
             (("outage", "EMBL", 60.0), ASK, ASK, ASK, ("advance", 100.0),
              ASK),
             report=(("breakers@1", {}), ("breakers@2", {"EMBL": "open"}),
                     ("skipped@3", ("EMBL",)),
                     ("cost.breaker_rejections", 1), ("breakers", {}),
                     ("complete", True)),
             world=dict(seed=203, retry=TWICE, breaker=BreakerPolicy(
                 failure_threshold=3, reset_timeout=20.0))),
    Scenario("corrupt-snapshot",
             (("corrupt", "GenBank", 1.0),)
             + (("churn", "GenBank", 3), ("poll", "GenBank")) * 3
             + (("corrupt", "GenBank", 0.0), ("poll", "GenBank")),
             report=(("quarantined", 3),),
             world=dict(seed=204, kinds=(("GenBank", 7),))),
    Scenario("log-channel-loss", _channel_lost("RelationalDB", "log", 4, 4, 4),
             report=(("deltas@1", 4), ("deltas@4", 3), ("degraded", 1),
                     ("deltas", 4)),
             world=dict(seed=205, kinds=(("RelationalDB", 9),))),
    Scenario("deadline-exhaustion", (("outage", "EMBL", 100_000.0), ASK),
             report=(("deadline_hit", True), ("failed", ("EMBL",)),
                     ("attempts", {"AceDB": 1, "EMBL": 2, "GenBank": 1}),
                     ("elapsed", 30.0)),
             world=dict(seed=206, retry=RetryPolicy(
                 max_attempts=10, base_delay=30.0, multiplier=2.0,
                 jitter=0.0, deadline=40.0))),
    Scenario("push-channel-loss", _channel_lost("SwissProt", "push", 3, 4, 2),
             report=(("deltas@1", 3), ("dropped@3", 4), ("degraded@4", 1),
                     ("deltas@4", 3)),
             world=dict(seed=207, kinds=(("SwissProt", 11),))),
    Scenario("concurrent-fanout",
             (("slow", "all", 2.0), ("fail", "all", 0.05), ASK),
             report=(("failed", ("EMBL",)), ("sources", ("AceDB", "GenBank")),
                     ("attempts", {"AceDB": 1, "EMBL": 3, "GenBank": 1})),
             world=dict(seed=208, retry=RetryPolicy(
                 max_attempts=3, base_delay=1.0, multiplier=2.0,
                 jitter=0.0))),
    Scenario("cache-invalidation-storm",
             (ASK,) + LOOKUPS + (("outage", "GenBank", 50.0),
                                 ("churn", "all", 5), ("sync",), LOOKUPS[0],
                                 ("advance", 60.0), ("sync",), ASK)
             + LOOKUPS,
             report=(("touched", 12), ("suspect@11", ("GenBank",)),
                     ("cached@11", 6), ("from_cache@12", False),
                     ("suspect", ()), ("staleness", 0.0), ("hits", 5)),
             world=dict(seed=209, retry=TWICE, breaker=BreakerPolicy(
                 failure_threshold=99, reset_timeout=25.0))),
    Scenario("trace-correlation",
             (("outage", "EMBL", 1000.0), ("trace", "on"), ASK, ASK, ASK,
              ("trace", "off")),
             report=(("spans@2", {"GenBank": "ok/closed", "EMBL":
                                  "failed/closed", "AceDB": "ok/closed"}),
                     ("retries@2", 1),
                     ("spans@4", {"GenBank": "ok/closed", "EMBL":
                                  "skipped/open", "AceDB": "ok/closed"}),
                     ("unavailable@4", "EMBL"), ("traces", 3)),
             world=dict(seed=210, retry=TWICE, breaker=BreakerPolicy(
                 failure_threshold=3, reset_timeout=10_000.0))),
    Scenario("overload-storm",
             (("outage", "EMBL", 60.0), ("burst", 100, 6.0, 11),
              ("burst", 40, 0.5, 12)),
             report=(("good@1", ANY), ("shed@1", ANY),
                     ("cost.retry_budget_denials", ANY),
                     ("cost.retries", range(140)), ("limited", ("EMBL",)),
                     ("peak", ANY), ("brownout", "normal"),
                     ("tail", range(20, 41))),
             world=dict(seed=71, policy=ServingPolicy(
                 capacity=4, deadline=25.0, brownout_enter_pressure=0.3,
                 brownout_exit_pressure=0.1))),
    Scenario("replica-failover", tuple(REPLICA_FAILOVER),
             report=(("promoted", (("bravo", 2),)), ("late", ()),
                     ("refused", ()), ("unreplicated", ()))),
    Scenario("bit-rot-repair", tuple(BIT_ROT_REPAIR),
             report=(("refused", ((25, "bit_rot"), (26, "bit_rot"),
                                  (29, "digest_mismatch"),
                                  (40, "bit_rot"))),
                     ("rejected", 0), ("promoted", (("charlie", 2),)),
                     ("barred", ()))),
    Scenario("split-brain", tuple(split_brain()),
             report=(("refused", ((14, "expired"),)),
                     ("promoted", (("bravo", 2),)), ("fenced", 1),
                     ("lost", ((0, 8), (0, 9), (0, 10))),
                     ("unreplicated", ((0, 8), (0, 9), (0, 10))),
                     ("quarantined", 1))),
)}


def _facts(run: group.Run) -> dict:
    """A group run's facts: its last clean reopen's report fields, and
    the promotions (``late``: past the window), refusals, losses and
    fences."""
    window = run.group.promotion_window
    return dict(
        vars(run.reopens[-1]) if run.reopens else {},
        promoted=tuple(promotion[:2] for promotion in run.promotions),
        late=tuple(name for name, __, elapsed in run.promotions
                   if elapsed > window),
        refused=tuple((index, getattr(outcome, "kind", None))
                      for index, (__, outcome) in enumerate(run.steps)
                      if outcome != "ok"),
        lost=tuple((entry.generation, entry.index)
                   for report in run.divergences
                   for entry in report.acknowledged_lost),
        unreplicated=tuple(ack.position()
                           for ack in run.verdict.lost_unreplicated),
        quarantined=sum(bool(report.quarantined) for report in run.divergences),
        fenced=sum(fence[3] for fence in run.fences),
        rejected=sum(follower.rejected_shipments
                     for follower in run.group.followers),
        barred=tuple(refusal.split(":")[0] for refusal in run.group.refused))


def _show(value, separator: str = ",") -> str:
    if isinstance(value, dict):
        value = tuple(sorted(value.items()))
    if isinstance(value, tuple):
        return separator.join(_show(item, ":") for item in value) or "-"
    return f"{value:g}" if isinstance(value, float) else str(value)


def _detail(scenario: Scenario, shown, lead: str) -> str:
    """Check *scenario*'s pairs against *shown* and write its line."""
    seen = {field: shown(field) for field, __ in scenario.report}
    expect(all(seen[field] in value if isinstance(value, range)
               else seen[field] == value
               for field, value in scenario.report),
           f"shows {seen}, not {dict(scenario.report)}")
    return "; ".join([lead] + [f"{field}={_show(value)}"
                               for field, value in seen.items()])


def play(scenario: Scenario, width: "int | None" = None) -> str:
    """Run *scenario* (a source-driver world at fan-out *width*); raise
    :class:`~repro.selftest.ScenarioFailure` unless the run shows what
    it must, else return its detail line."""
    if scenario.world is not None:
        run = sources.drive(sources.build(width=width, **scenario.world),
                            scenario.schedule)
        expect(not run.violations, "; ".join(run.violations))
        [mediator] = run.world.mediators
        width = mediator.max_concurrency
        return _detail(scenario, run.shown, f"width {width}, "
                       f"t+{run.world.clock.now():g}")
    run = group.run(scenario.schedule)
    expect(not run.disagreements, "; ".join(run.disagreements))
    *earlier, last = [outcome for step, outcome in run.steps
                      if step == REOPEN] or ["ok"]
    expect(all(outcome == "ok" for outcome in earlier),
           f"an earlier reopen was refused: {earlier}")
    detail = _detail(scenario, _facts(run).get,
                     f"{run.verdict.acknowledgments} acked")
    if scenario.refusal is not None:
        expect(isinstance(last, StorageError)
               and last.kind == scenario.refusal,
               f"reopen must refuse with {scenario.refusal}: {last}")
        where = f" #{last.record_index}@{last.offset}B" \
            if last.record_index else ""
        return (f"refused: {last.kind} in {os.path.basename(last.path)}"
                f"{where}, scrub agrees")
    expect(last == "ok", f"reopen refused: {last}")
    expect(run.verdict.ok, "; ".join(run.verdict.violations))
    return run.reopens[-1].summary() if run.reopens else detail


_TITLES = {"recover": ("crash-recovery fault-injection matrix:",
                       "scenarios recovered correctly"),
           "scrub": ("integrity scrub corruption matrix:",
                     "scenarios verified correctly"),
           "chaos": ("federation fault-injection scenario matrix:",
                     "scenarios degraded and recovered correctly")}


def self_test(matrix: str, verbose: bool = True, width: "int | None" = None,
              only: "str | None" = None) -> bool:
    """The ``python -m repro recover|scrub|chaos --self-test`` smoke
    target: every scenario (or just *only*) at fan-out *width*."""
    return ScenarioMatrix(*_TITLES[matrix], tuple(
        (scenario.name, scenario) for scenario in SCENARIOS[matrix]),
    ).self_test(lambda scenario: play(scenario, width), verbose, only)

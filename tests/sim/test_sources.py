"""The source schedule driver: chaos 1–11 at two fan-out widths.

Every source-driver entry of :mod:`repro.sim.matrix` (and each schedule
below, two of which replaced a unit test) must hold the driver's standing
invariants and show its pairs at widths 1 and 3, and replay bit for
bit.  Width may shorten only the virtual elapsed time of slow sources;
a served burst's admission follows the lanes' durations, so its
answers may differ by width (both must still hold).
"""

import re

import pytest

from repro.etl.delta import DELETE, Delta
from repro.etl.monitors import SnapshotMonitor
from repro.mediator import BreakerPolicy, CachedMediator, Mediator, RetryPolicy
from repro.selftest import ScenarioFailure
from repro.sim import matrix, sources
from repro.sim.matrix import ANY, ASK, Scenario
from repro.warehouse import Integrator, warehouse as warehouse_module


def _push(n: int) -> tuple:
    return (("churn", "SwissProt", n), ("poll", "SwissProt"))


PINNED = (
    # TestCircuitBreaker::test_breaker_recovers_through_half_open.
    Scenario("half-open-recovery", (("fail", "GenBank", 2, "snapshot"), ASK,
                                    ASK, ("advance", 25.0), ASK),
             report=(("breakers@2", {"GenBank": "open"}), ("breakers", {}),
                     ("complete", True)),
             world=dict(seed=71, retry=RetryPolicy.no_retries(),
                        breaker=BreakerPolicy(failure_threshold=2,
                                              reset_timeout=20.0))),
    # TestDeadlineBudget::test_deadline_stops_the_backoff_spiral.
    Scenario("backoff-spiral", (("fail", "EMBL", 1.0), ASK),
             report=(("deadline_hit", True), ("failed", ("EMBL",)),
                     ("attempts", {"AceDB": 1, "EMBL": 2, "GenBank": 1}),
                     ("elapsed", 30.0), ("sources", ("AceDB", "GenBank"))),
             world=dict(seed=71, retry=RetryPolicy(
                 max_attempts=10, base_delay=30.0, jitter=0.0,
                 deadline=40.0))),
    # The push outage of TestTriggerMonitorFaults' _run_outage, on the
    # driver's universe (those three tests stay as unit tests).
    Scenario("push-outage", _push(1) + (("drop", "SwissProt", "push"),)
             + _push(2) + (("restore", "SwissProt", "push"),) + _push(1),
             report=(("dropped@3", ANY), ("degraded@4", ANY),
                     ("deltas@4", ANY)),
             world=dict(seed=53, kinds=(("SwissProt", 0),))),
    # The mediator ≡ the warehouse through churn, refresh, churn left
    # pending, and faults on every proxy (the law asks none of them).
    Scenario("mediated-is-warehoused",
             (("churn", "all", 4), ("refresh",), ("fail", "GenBank", 0.3),
              ("corrupt", "AceDB", 0.5), ASK, ("churn", "EMBL", 3), ASK,
              ("sync",), ("ask", "gene", "GA100003"), ("refresh",),
              ("churn", "all", 2), ASK),
             report=(("refreshed@1", ANY), ("refreshed@9", ANY),
                     ("touched", ANY)),
             world=dict(seed=57, kinds=sources.THREE + (("SwissProt", 4),))),
)
SCHEDULES = [scenario for scenario in matrix.SCENARIOS["chaos"]
             if scenario.world is not None] + list(PINNED)


def _record(run: sources.Run, timing: bool = True) -> tuple:
    return ([(step, outcome if outcome == "ok" else repr(outcome))
             for step, outcome in run.steps],
            [{name: value for name, value in facts.items()
              if timing or name != "elapsed"} for facts in run.facts])


def _entry(name: str) -> Scenario:
    [scenario] = [scenario for scenario in matrix.SCENARIOS["chaos"]
                  if scenario.name == name]
    return scenario


@pytest.mark.parametrize("scenario", SCHEDULES, ids=lambda s: s.name)
def test_a_schedule_holds_at_widths_1_and_3(scenario):
    runs = {}
    for width in (1, 3):
        matrix.play(scenario, width)
        runs[width] = [sources.drive(sources.build(width=width,
                                                   **scenario.world),
                                     scenario.schedule) for __ in range(2)]
        assert _record(runs[width][0]) == _record(runs[width][1])
    if any(step[0] == "burst" for step in scenario.schedule):
        return
    (narrow, __), (wide, __) = runs[1], runs[3]
    slow = any(step[0] == "slow" for step in scenario.schedule)
    assert _record(narrow, not slow) == _record(wide, not slow)
    if slow:
        assert wide.shown("elapsed") < narrow.shown("elapsed")


def test_a_mediator_that_drops_a_live_sources_rows_fails(monkeypatch):
    real = CachedMediator.answer

    def dropping(self, request, **options):
        answer = real(self, request, **options)
        answer[:] = [row for row in answer if row.source != "AceDB"]
        return answer

    monkeypatch.setattr(CachedMediator, "answer", dropping)
    with pytest.raises(ScenarioFailure, match="rows lost from live sources"):
        matrix.play(_entry("intermittent-retry"))


def test_a_monitor_that_deletes_a_present_accession_fails(monkeypatch):
    real = SnapshotMonitor._poll

    def fabricating(self):
        accession, image = next(
            (accession, image) for accession, image in sorted(
                self._images.items())
            if accession in self.repository.accessions())
        return real(self) + [Delta(self.repository.name, accession, DELETE,
                                   image, None, self.repository.clock)]

    monkeypatch.setattr(SnapshotMonitor, "_poll", fabricating)
    with pytest.raises(ScenarioFailure, match="which GenBank still holds"):
        matrix.play(_entry("corrupt-snapshot"))


def test_an_unknown_action_propagates():
    with pytest.raises(ValueError, match="unknown schedule action"):
        sources.drive(sources.build(), [("melt",)])


def test_the_law_skips_only_what_churn_left_pending():
    """Past the last churn the warehouse is stale, but only on
    accessions that churn touched; a refresh brings the law back."""
    scenario = next(entry for entry in PINNED
                    if entry.name == "mediated-is-warehoused")
    run = sources.drive(sources.build(**scenario.world), scenario.schedule)
    assert not run.violations
    world = run.world
    truth = Mediator([proxy.inner for proxy in world.proxies.values()])
    stale = {line.split(":")[0]
             for line in sources.unreconciled(truth, world.warehouse)}
    churned = {entry.accession for proxy in world.proxies.values()
               for entry in proxy.inner._log[-2:]}
    assert stale and stale <= churned
    world.warehouse.refresh()
    assert sources.unreconciled(truth, world.warehouse) == []


def test_a_warehouse_that_takes_the_first_reading_fails(monkeypatch):
    """C8's mutation: no vote, the first source's reading wins."""

    class FirstReading(Integrator):
        def _vote(self, readings):
            return next((value for __, value in readings
                         if value is not None), None), None

    monkeypatch.setattr(warehouse_module, "Integrator", FirstReading)
    scenario = _entry("intermittent-retry")
    with pytest.raises(ScenarioFailure, match="the mediator ≢ the warehouse"):
        matrix.play(scenario)
    run = sources.drive(sources.build(**scenario.world), scenario.schedule)
    named = {re.search(r"warehouse: (GA\d+): differs on", line).group(1)
             for line in run.violations}
    staged = run.world.warehouse._staged_records
    assert named and all(Integrator().consolidate(staged(accession)).conflicts
                         for accession in named)

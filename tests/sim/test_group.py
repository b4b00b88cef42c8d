"""The replication schedule driver, and the schedules it pins.

Each pinned schedule failed to certify before the fix named beside it;
each replays as ``run(schedule)``.
"""

import pytest

from repro.errors import FederationError, ReproError
from repro.sim import group as sim

PINNED = {
    # Demotion kept the zombie's seal of generation 0, which the
    # successor holds active: the rejoined follower held it twice.
    "deposed-seal": [("write",), ("sync",), ("rotate",), ("advance", 3.0),
                     ("failover",), ("write",)],
    # The audit compared the primary's 0-byte active file with the
    # followers' absent one.
    "empty-active-file": [("rotate",), ("sync",)],
    # Charlie alone saw alpha's seal of generation 0; bravo, promoted
    # holding it active, shipped it beside that seal.
    "follower-seal": [("write",), ("sync",), ("rotate",),
                      ("catch_up", "charlie"), ("advance", 3.0),
                      ("failover",)],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_pinned_schedule_certifies(name):
    record = sim.run(PINNED[name])
    assert all(outcome == "ok" for __, outcome in record.steps)
    assert record.verdict.ok, record.verdict.violations


def test_a_deposed_seal_moves_aside_without_naming_a_statement():
    [report] = sim.run(PINNED["deposed-seal"]).divergences
    assert report.statements == []
    assert len(report.quarantined) == 2


def test_step_errors_are_logged_and_the_heal_promotes():
    record = sim.run([("crash", 10), ("failover",), ("write",)])
    assert [type(outcome).__name__ for __, outcome in record.steps] \
        == ["str", "LeaseError", "FederationError"]
    assert [promotion[:2] for promotion in record.promotions] \
        == [("bravo", 2)]
    assert record.verdict.ok, record.verdict.violations


def test_a_crashed_primary_refuses_a_checkpoint():
    """A dead primary refuses ``checkpoint`` as it refuses ``rotate``."""
    record = sim.run([("write",), ("crash", 1), ("checkpoint",)])
    [(step, outcome)] = record.steps[2:]
    assert step == ("checkpoint",)
    assert isinstance(outcome, FederationError)
    assert str(outcome) == "primary 'alpha' is down"
    assert record.verdict.ok, record.verdict.violations


def test_an_error_outside_the_package_propagates():
    with pytest.raises(ValueError, match="unknown schedule action") as caught:
        sim.run([("flip",)])
    assert not isinstance(caught.value, ReproError)

"""The replication schedule driver, and the schedules it pins.

Each pinned schedule failed to certify before the fix named beside it;
each replays as ``run(schedule)``.  The crash and scrub matrices
(:mod:`repro.sim.matrix`) run here too.
"""

import os

import pytest

from repro.db.scrub import FileVerdict
from repro.db.storage import list_sealed_segments
from repro.errors import FederationError, ReproError, StorageError
from repro.selftest import ScenarioFailure
from repro.sim import group as sim, matrix

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
    # Bravo's scrub took its flipped last newline, inside bytes it had
    # verified, for a torn tail; promoted, its reopened WAL cut the
    # record.
    "rot-in-a-verified-prefix": [("write",), ("write",), ("sync",),
                                 ("flip", "bravo", "wal", -1, 0x20),
                                 ("crash", 5)],
    # The same rot scrubbed clean, and the next round shipped only the
    # bytes past it: bravo kept it.
    "rot-in-a-verified-prefix-repaired": [("write",), ("sync",),
                                          ("flip", "bravo", "wal", -1, 0x20),
                                          ("scrub", "bravo"), ("write",),
                                          ("sync",)],
    # Damage in flight stopped bravo's round after the seal of
    # generation 0 landed: bravo kept its active copy of 0 too and,
    # promoted, appended to it.
    "stale-active-copy": [("write",), ("sync",), ("write",), ("rotate",),
                          ("write",), ("flip", "bravo", "shipment", 300, 1),
                          ("partition", 100.0, "alpha"), ("advance", 3.0),
                          ("failover",), ("write",), ("sync",)],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_pinned_schedule_certifies(name):
    record = sim.run(PINNED[name])
    assert all(outcome == "ok" for step, outcome in record.steps
               if step[0] != "scrub")
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


def test_a_scrub_that_disagrees_with_replay_is_a_violation(monkeypatch):
    monkeypatch.setattr(sim, "scrub_wal_file",
                        lambda path, active: FileVerdict(path, "wal_sealed"))
    record = sim.run([("write",), ("sync",), ("flip", "bravo", "wal", 90, 1)])
    assert isinstance(record.steps[-1][1], StorageError)
    assert record.disagreements and not record.verdict.ok
    assert record.disagreements[0] in record.verdict.violations


def test_the_heal_records_a_rotted_primarys_ship():
    record = sim.run([("write",), ("flip", "alpha", "wal", 0, 0x80)])
    assert record.rot_at_source and not record.disagreements
    assert isinstance(record.heal_error, StorageError)
    assert record.heal_error.kind == "bit_rot"


def test_a_heal_crowns_nobody_only_over_damaged_followers():
    record = sim.run([("write",), ("sync",),
                      ("flip", "bravo", "wal", -9, 1),
                      ("flip", "charlie", "wal", -9, 1), ("crash", 0)])
    assert isinstance(record.heal_error, FederationError)
    assert not record.group.primary.alive and not record.rot_at_source
    assert all(defects[0].kind == "bit_rot"
               for defects in record.scrubs.values())
    assert sorted(record.scrubs) == sorted(record.damaged)


def test_an_error_outside_the_package_propagates():
    with pytest.raises(ValueError, match="unknown schedule action") as caught:
        sim.run([("melt",)])
    assert not isinstance(caught.value, ReproError)


@pytest.mark.parametrize("scenario", [
    scenario for scenarios in matrix.SCENARIOS.values()
    for scenario in scenarios], ids=lambda scenario: scenario.name)
def test_a_matrix_scenario_shows_what_it_must(scenario):
    matrix.play(scenario)


def test_a_reopen_that_drops_the_last_sealed_segment_fails(monkeypatch):
    real = sim.recover

    def dropping(image, wal, database):
        __, last = list_sealed_segments(wal)[-1]
        os.replace(last, f"{last}.hidden")
        try:
            return real(image, wal, database)
        finally:
            os.replace(f"{last}.hidden", last)

    monkeypatch.setattr(sim, "recover", dropping)
    [scenario] = [scenario for scenario in matrix.SCENARIOS["recover"]
                  if scenario.name == "crash-mid-checkpoint"]
    with pytest.raises(ScenarioFailure, match="acknowledged writes"):
        matrix.play(scenario)


@pytest.mark.parametrize("action, skipped", [("checkpoint", 1),
                                             ("purge", 0)])
def test_only_a_purge_deletes_what_the_image_covers(action, skipped):
    """A reopen is no promotion, and a write in a generation the image
    covers survives its segment's purge."""
    record = sim.run([("write",), ("sync",), (action,), ("write",),
                      ("reopen",)])
    assert record.reopens[0].segments_skipped == skipped
    assert not record.promotions
    assert record.verdict.ok, record.verdict.violations

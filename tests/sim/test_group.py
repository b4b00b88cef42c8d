"""The replication schedule driver, and the schedules it pins.

Each pinned schedule failed to certify before the fix named beside it;
each replays as ``run(schedule)``.  Its steps must all be ``"ok"``,
but for scrubs and flips (which report the damage they find) and the
steps after a crash.  The crash and scrub matrices
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
    # Promotion refused both rotted followers before anything could
    # repair them from alpha's intact disk.
    "refused-repairable": [("write",), ("sync",),
                           ("flip", "bravo", "wal", -9, 1),
                           ("flip", "charlie", "wal", -9, 1), ("crash", 0)],
    # One rotted record on the dead primary: the salvage skipped its
    # generation and refused the two after it as a hole, and nobody
    # reported the three acknowledged writes lost.
    "rot-at-dead-source": [("write",), ("sync",), ("write",), ("rotate",),
                           ("write",), ("rotate",), ("write",),
                           ("flip", "alpha", "wal", 150, 1), ("crash", 0),
                           ("advance", 3.0), ("failover",)],
    # Bravo missed the second record of a generation alpha then purged:
    # every later round was refused over the hole, and no image came.
    "behind-a-purge": [("write",), ("catch_up", "bravo"), ("write",),
                       ("purge",), ("write",), ("catch_up", "bravo")],
    # Alpha's own active file rotted: its ship raised, and the heal
    # stopped there.
    "rotted-live-primary": [("write",), ("flip", "alpha", "wal", 0, 0x80)],
    # Alpha's own log lost records (emptied; cut inside the last one):
    # no copy failed a CRC, so nothing claimed them, and the writes
    # acknowledged from alpha's database were lost without a report.
    "cut-live-primary": [("write",)] * 5 + [("cut", "alpha", "wal", 0)],
    "torn-live-primary": [("write",), ("write",), ("sync",), ("write",),
                          ("cut", "alpha", "wal", -5)],
    # Alpha rotted a segment its image covers but had not purged: the
    # claim for it was dropped, and no image was offered.
    "rot-under-an-image": [("write",)] * 4 + [("checkpoint",),
                                              ("flip", "alpha", "wal", 0, 1)],
    # Alpha appended to its emptied log and died: the record at index 0
    # was not the one acknowledged there, and no report named that.
    "cut-then-write": [("write",)] * 3 + [("cut", "alpha", "wal", 0),
                                          ("write",), ("crash", 0)],
    # The repaired log's new header rotted (or was emptied) in turn: the
    # header named no generation, so the file shipped as generation 0.
    "header-rot-twice": [("write",)] * 3 + [("flip", "alpha", "wal", 0, 1),
                                            ("catch_up", "bravo"),
                                            ("flip", "alpha", "wal", 0, 1)],
    "emptied-header": [("write",)] * 3 + [("cut", "alpha", "wal", 0),
                                          ("sync",),
                                          ("cut", "alpha", "wal", 0)],
    # An emptied seal and a rotted active header: the repair's own
    # rotation tripped over the active file it had not checked.
    "emptied-seal-rotted-header": [("write",)] * 3 + [
        ("rotate",), ("cut", "alpha", "wal", 0),
        ("flip", "alpha", "wal", 2, 1)],
    # A zombie's emptied log held its acknowledged write nowhere, and the
    # successor's image was taken to cover it.
    "zombie-emptied-log": [("write",), ("advance", 2.0), ("failover",),
                           ("cut", "alpha", "wal", 0), ("write",),
                           ("checkpoint",)],
    # A zombie's unreadable log stayed in place when it demoted, beside
    # the successor's history.
    "zombie-rotted-header": [("write",)] * 3 + [("advance", 2.0),
                                                ("flip", "alpha", "wal", 0, 1),
                                                ("failover",)],
    # The primary re-cut its rotted image on a claim but did not ship it
    # back, and the follower kept retrying the rotted copy.
    "rotted-image-claim": [("advance", 2.0), ("failover",), ("write",),
                           ("cut", "bravo", "wal", 0), ("sync",),
                           ("flip", "bravo", "image", 0, 1)],
    # Bravo held generation 0 only as an active copy when alpha purged
    # it; the next active file overwrote that copy, and bravo, promoted,
    # held the write in memory alone.
    "unsealed-behind-a-purge": [("write",), ("sync",), ("purge",), ("sync",),
                                ("advance", 2.0), ("failover",)],
    # Bravo's log started at generation 1 after a repair, and a later
    # checkpoint kept that seal: a fresh follower was offered no image.
    "imaged-then-checkpointed": [("advance", 2.0), ("failover",), ("write",),
                                 ("cut", "bravo", "wal", 0), ("sync",),
                                 ("write",), ("checkpoint",)],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_pinned_schedule_certifies(name):
    record = sim.run(PINNED[name])
    steps = [step[0] for step in PINNED[name]]
    crashed = steps.index("crash") if "crash" in steps else len(steps)
    assert all(outcome == "ok" for step, outcome in record.steps[:crashed + 1]
               if step[0] not in ("scrub", "flip"))
    assert record.verdict.ok, record.verdict.violations


def test_a_rotted_dead_source_names_what_no_copy_holds():
    """Gen 0 index 1 has no verified copy anywhere; gen 1 index 0 and
    gen 2 index 0 lie past that hole.  The dead primary owns all three."""
    [report] = sim.run(PINNED["rot-at-dead-source"]).divergences
    assert report.node == "alpha" and report.successor == "bravo"
    assert sorted((entry.generation, entry.index)
                  for entry in report.acknowledged_lost) \
        == [(0, 1), (1, 0), (2, 0)]


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
    """The follower's CRC check names the rot in alpha's own log; alpha
    sets the file aside and ships the image that covers it."""
    record = sim.run(PINNED["rotted-live-primary"])
    alpha, (bravo, charlie) = record.group.primary, record.group.followers
    assert alpha.name == "alpha" and alpha.image_generation == 1
    assert bravo.rejected_shipments == 1
    assert "bit_rot payload" in bravo.last_rejection
    assert charlie.rejected_shipments == 0      # alpha had repaired it
    assert bravo.image_generation == charlie.image_generation == 1
    assert record.verdict.ok, record.verdict.violations


def test_a_heal_crowns_nobody_only_over_damaged_followers():
    """Every disk holds the one replicated write rotted: the heal's
    error names it, and no directory holds it readable."""
    record = sim.run([("write",), ("sync",),
                      ("flip", "bravo", "wal", -9, 1),
                      ("flip", "charlie", "wal", -9, 1),
                      ("flip", "alpha", "wal", -9, 1), ("crash", 0)])
    error = record.heal_error
    assert isinstance(error, FederationError)
    assert not record.group.primary.alive
    assert (error.epoch, error.generation, error.index) == (1, 0, 0)
    assert sorted(record.disks) == ["alpha", "bravo", "charlie"]
    assert all(0 not in history for history in record.disks.values())


def test_a_follower_whose_copy_lost_records_is_not_crowned():
    """Charlie took bravo's write during a refused failover, then its copy
    was emptied and bravo's rotted: the ledger's count unmasks the empty
    copy (no verified prefix was kept past the torn tail), and the heal
    names the write no directory holds."""
    record = sim.run([("advance", 2.0), ("failover",), ("write",),
                      ("crash", 1), ("failover",),
                      ("cut", "charlie", "wal", 0),
                      ("flip", "bravo", "wal", 0, 1)])
    error = record.heal_error
    assert isinstance(error, FederationError)
    assert (error.epoch, error.generation, error.index) == (2, 0, 0)
    assert all(0 not in history for history in record.disks.values())
    assert not record.disagreements


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

"""The crash and scrub matrices, as schedules of :func:`repro.sim.group.run`.

A :class:`Scenario` is a schedule on the alpha/bravo/charlie group and
what its run must show: a clean last reopen whose
:class:`~repro.db.recovery.RecoveryReport` has the listed fields, or
the :class:`~repro.errors.StorageError` kind reopen and scrub agree on.
The driver's own checks run on every one: the reopened database holds
exactly the acknowledged writes, no log grows, scrub ≡ replay on every
file, and (no schedule syncs before its damage) the heal brings both
followers to the reopened primary.  ``python -m repro recover
--self-test`` and ``scrub --self-test`` print the two halves.

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
from repro.selftest import ScenarioMatrix, expect
from repro.sim import group

W = (("write",),)
REOPEN = ("reopen",)
#: Twelve writes fill the active file to 962 bytes, a newline at 431.
WRITTEN = W * 12
#: An image, two sealed segments it does not cover (generation 1 holds
#: bytes 657–1354 end to end) and an active file.
CHECKPOINTED = (W * 8 + (("checkpoint",),) + W * 8 + (("rotate",),) + W * 8
                + (("rotate",),) + W * 6)


@dataclass(frozen=True)
class Scenario:
    """*refusal*: the kind reopen and scrub agree on; *report*: the
    ``(field, value)`` pairs the last clean reopen's report shows."""

    name: str
    schedule: tuple
    refusal: "str | None" = None
    report: tuple = ()


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
)}


def play(scenario: Scenario) -> str:
    """Run *scenario*; raise :class:`~repro.selftest.ScenarioFailure`
    unless the run shows what it must, else return its detail line."""
    run = group.run(scenario.schedule)
    expect(not run.disagreements, "; ".join(run.disagreements))
    *earlier, last = [outcome for step, outcome in run.steps
                      if step == REOPEN]
    expect(all(outcome == "ok" for outcome in earlier),
           f"an earlier reopen was refused: {earlier}")
    shown = {field: getattr(run.reopens[-1], field)
             for field, __ in scenario.report}
    expect(shown == dict(scenario.report),
           f"reopen shows {shown}, not {dict(scenario.report)}")
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
    return run.reopens[-1].summary()


_TITLES = {"recover": ("crash-recovery fault-injection matrix:",
                       "scenarios recovered correctly"),
           "scrub": ("integrity scrub corruption matrix:",
                     "scenarios verified correctly")}


def self_test(matrix: str, verbose: bool = True) -> bool:
    """The ``python -m repro recover|scrub --self-test`` smoke target."""
    return ScenarioMatrix(*_TITLES[matrix], tuple(
        (scenario.name, scenario) for scenario in SCENARIOS[matrix]),
    ).self_test(play, verbose)

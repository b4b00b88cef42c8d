"""Work as a count, not a timing: a keyed write reads the rows it
changes, never the table.

``DELETE … WHERE pk = ?`` and ``UPDATE … WHERE pk = ?`` are what every
warehouse delta, every WAL replay and every shipped statement is; each
must find its row through the PRIMARY KEY index however large the table
— on the primary, and on the follower that replays its log.
"""

from unittest import mock

import pytest

from repro.db import Database
from repro.db.columnar.store import ColumnStore
from repro.db.table import Table
from repro.federation import FollowerNode, PrimaryNode, ReplicationGroup
from repro.sources import (
    EmblRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase

DELETE = "DELETE FROM t WHERE pk = ?"
UPDATE = "UPDATE t SET v = ? WHERE pk = ?"


def _database(**config):
    database = Database(**config)
    database.execute("CREATE TABLE t (pk TEXT PRIMARY KEY, v INTEGER)")
    return database


def _fill(execute, size):
    for n in range(size):
        execute("INSERT INTO t VALUES (?, ?)", [f"k{n:05d}", n])


class _Scans:
    """Counts the rows (row layout) and row groups (column layout) that
    whole-table iteration hands out while it is active."""

    def __init__(self):
        self.touched = 0

    def _counting(self, original):
        def spy(*args, **kwargs):
            for item in original(*args, **kwargs):
                self.touched += 1
                yield item
        return spy

    def __enter__(self):
        self._patches = [
            mock.patch.object(Table, "rows", self._counting(Table.rows)),
            mock.patch.object(ColumnStore, "scan",
                              self._counting(ColumnStore.scan)),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self._patches:
            patch.stop()


def _keyed_writes(execute, size):
    """One update, one delete, one write that finds nothing."""
    middle = f"k{size // 2:05d}"
    assert execute(UPDATE, [-1, middle]) == 1
    assert execute(DELETE, [middle]) == 1
    assert execute(DELETE, [middle]) == 0
    assert execute(UPDATE, [0, "absent"]) == 0


@pytest.mark.parametrize("size", [10, 10_000])
@pytest.mark.parametrize("layout", ["row", "column"])
def test_keyed_writes_touch_no_row_by_scan(layout, size):
    database = _database(layout=layout)
    _fill(database.execute, size)
    with _Scans() as scans:
        _keyed_writes(database.execute, size)
    assert scans.touched == 0
    assert len(database.catalog.table("t")) == size - 1
    # The spy does see a scan when there is one.
    with _Scans() as scans:
        database.execute("DELETE FROM t WHERE v = ?", [3])
    assert scans.touched > 0


def test_the_naive_planner_scans_and_changes_the_same_rows():
    database = _database(optimize=False)
    _fill(database.execute, 10)
    with _Scans() as scans:
        _keyed_writes(database.execute, 10)
    assert scans.touched == 4 * 10 - 2


@pytest.mark.parametrize("size", [10, 10_000])
def test_the_follower_replays_keyed_writes_without_a_scan(tmp_path, size):
    timeline = VirtualClock()
    primary = PrimaryNode("alpha", str(tmp_path / "alpha"), _database(),
                          timeline=timeline)
    follower = FollowerNode("bravo", str(tmp_path / "bravo"), _database(),
                            timeline=timeline)
    group = ReplicationGroup(primary, [follower])
    _fill(primary.execute, size)
    group.sync()
    # The node's WAL is attached to its database: these are logged.
    _keyed_writes(primary.database.execute, size)
    with _Scans() as scans:
        group.sync()
    assert scans.touched == 0
    everything = "SELECT pk, v FROM t"
    assert (follower.database.query(everything).rows
            == primary.database.query(everything).rows)
    assert len(follower.database.catalog.table("t")) == size - 1


def test_recording_conflicts_probes_the_accession_index():
    """Every reconciled record rewrites its rows of ``conflicts``
    (``DELETE … WHERE accession = ?``, then the inserts): by index."""
    universe = Universe(seed=3, size=30)
    warehouse = UnifyingDatabase(
        [GenBankRepository(universe), EmblRepository(universe)])
    warehouse.initial_load()
    accession = warehouse.query(
        "SELECT accession FROM conflicts LIMIT 1").scalar()
    consolidated = warehouse.integrator.consolidate(
        warehouse._staged_records(accession))
    assert consolidated.conflicts
    with _Scans() as scans:
        warehouse._record_conflicts(consolidated, detected_at=0)
    assert scans.touched == 0
    assert "IndexEqualScan" in warehouse.db.explain(
        "DELETE FROM conflicts WHERE accession = ?", [accession])

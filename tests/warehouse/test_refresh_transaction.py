"""A warehouse refresh lands whole or not at all.

A refresh runs as one transaction, and a committed transaction is one
WAL line.  So a crash, or a shipment, that cuts the log anywhere inside
a refresh recovers (or replicates) the warehouse as it was before the
refresh or as it is after it, never a third state.  A refresh that
fails rolls back, and the deltas it had already polled are applied by
the next one.
"""

import os

import pytest

from repro.adapter import install_genomics
from repro.db import Database
from repro.db.recovery import databases_equal, recover
from repro.db.storage import load_database, read_wal_records
from repro.errors import IntegrationError, TransactionError
from repro.federation.replication import FollowerNode, Shipment, payload_digest
from repro.sources import (
    EmblRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase

SOURCES = (GenBankRepository, EmblRepository, SwissProtRepository)
#: Offsets sampled inside the refresh's line, besides its boundaries.
INTERIOR_CUTS = 12


def _warehouse():
    universe = Universe(seed=1203, size=24)
    warehouse = UnifyingDatabase([source(universe) for source in SOURCES])
    warehouse.initial_load()
    _advance(warehouse)
    return warehouse


def _advance(warehouse):
    for source in warehouse.sources.values():
        source.advance(3)


def _genomic():
    database = Database()
    install_genomics(database)
    return database


class TestFailedRefresh:
    def test_rolls_back_and_the_next_refresh_applies_its_deltas(
            self, monkeypatch):
        failing, twin = _warehouse(), _warehouse()
        consolidate = failing.integrator.consolidate
        calls = []

        def flaky(staged):
            calls.append(staged)
            if len(calls) == 3:
                raise IntegrationError("injected mid-refresh")
            return consolidate(staged)

        monkeypatch.setattr(failing.integrator, "consolidate", flaky)
        with pytest.raises(IntegrationError, match="injected"):
            failing.refresh()
        assert not failing.db.in_transaction
        assert databases_equal(failing.db, twin.db)  # twin: not refreshed
        assert failing._clock == twin._clock

        report, expected = failing.refresh(), twin.refresh()
        assert expected.deltas_processed >= 3
        assert report.deltas_processed == expected.deltas_processed
        assert databases_equal(failing.db, twin.db)
        for warehouse in (failing, twin):
            _advance(warehouse)
            warehouse.refresh()
        assert databases_equal(failing.db, twin.db)

    def test_save_inside_a_transaction_is_refused(self, tmp_path):
        warehouse = _warehouse()
        warehouse.db.begin()
        with pytest.raises(TransactionError):
            warehouse.save(str(tmp_path / "image.json"))
        warehouse.db.rollback()
        assert not os.path.exists(tmp_path / "image.json")


class TestNoCutSplitsARefresh:
    def test_recovery_and_a_follower_see_before_or_after(self, tmp_path):
        warehouse = _warehouse()
        image = str(tmp_path / "image.json")
        wal = warehouse.attach_wal(str(tmp_path / "wal.jsonl"))
        warehouse.checkpoint(image)
        before = recover(image, wal.path, database=_genomic())[0]
        assert databases_equal(before, warehouse.db)
        start = os.path.getsize(wal.path)
        warehouse.refresh()
        wal.close()
        with open(wal.path, "rb") as handle:
            data = handle.read()

        (record,), __ = read_wal_records(wal.path)
        assert isinstance(record["sql"], list) and len(record["sql"]) > 50
        boundaries = {start} | {offset + 1 for offset in range(start,
                                                              len(data))
                                if data[offset] == ord("\n")}
        step = max(1, (len(data) - start) // INTERIOR_CUTS)
        cuts = sorted(boundaries | set(range(start + 1, len(data), step)))

        follower = FollowerNode("replica", str(tmp_path / "replica"),
                                load_database(image, _genomic()),
                                timeline=VirtualClock(), apply_cost=0.0)
        crash = str(tmp_path / "crash.jsonl")
        for cut in cuts:
            with open(crash, "wb") as handle:
                handle.write(data[:cut])
            recovered = recover(image, crash, database=_genomic())[0]
            payload = data[:cut].decode("utf-8")
            follower.apply_shipment(Shipment(
                wal.generation, payload, False, payload_digest(payload)))
            whole = cut == len(data)
            for state in (recovered, follower.database):
                assert databases_equal(
                    state, warehouse.db if whole else before), cut

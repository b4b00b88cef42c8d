"""ShardMap routing and ShardSlice filtering.

The contract under test: routing is a total pure function of the map
(every accession has exactly one owner), and a slice exposes exactly
the owned accessions through *every* access path — so per-shard
answers are disjoint by construction.
"""

from dataclasses import replace

import pytest

from repro.errors import FederationError, SourceError
from repro.federation import ShardMap, ShardSlice
from repro.sources import Capabilities, GenBankRepository, Universe


@pytest.fixture
def repository():
    # Full-capability flavour so every access path can be exercised.
    return GenBankRepository(
        Universe(seed=5, size=12),
        capabilities=Capabilities(queryable=True, logged=True, active=True),
    )


def _touch(repository, accession):
    """Deterministically update one record in place (the advance() idiom)."""
    record = repository._records[accession]
    changed = record.bumped(
        description=(record.description or "") + " (touched)")
    repository._clock += 1
    repository._records[accession] = replace(
        changed, timestamp=repository._clock)
    repository._emit("update", accession)


class TestShardMap:
    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(())
        assert shard_map.count == 1
        assert shard_map.shard_of("ANYTHING") == 0

    def test_boundaries_partition_the_space(self):
        shard_map = ShardMap(("B", "M"))
        assert shard_map.count == 3
        assert shard_map.shard_of("A") == 0
        assert shard_map.shard_of("B") == 1  # boundary goes right
        assert shard_map.shard_of("C") == 1
        assert shard_map.shard_of("M") == 2
        assert shard_map.shard_of("Z") == 2

    def test_unknown_accessions_still_route(self):
        shard_map = ShardMap(("M",))
        # Routing is total: accessions that do not exist yet have an
        # owner too, so writes and lookups agree before any data lands.
        assert shard_map.shard_of("") == 0
        assert shard_map.shard_of("￿") == 1

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(FederationError):
            ShardMap(("M", "B"))

    def test_duplicate_boundaries_rejected(self):
        with pytest.raises(FederationError):
            ShardMap(("M", "M"))

    def test_split_preserves_input_order_within_groups(self):
        shard_map = ShardMap(("M",))
        groups = shard_map.split(["Z", "A", "B", "Y"])
        assert groups == {1: ["Z", "Y"], 0: ["A", "B"]}

    def test_for_accessions_balances_the_population(self):
        accessions = [f"GA{index:03d}" for index in range(40)]
        shard_map = ShardMap.for_accessions(accessions, 4)
        groups = shard_map.split(accessions)
        assert set(groups) == {0, 1, 2, 3}
        assert all(8 <= len(group) <= 12 for group in groups.values())

    def test_for_accessions_more_shards_than_accessions(self):
        shard_map = ShardMap.for_accessions(["A", "B"], 5)
        # Surplus shards may start empty, but routing stays total.
        assert shard_map.count >= 2
        owners = {shard_map.shard_of(a) for a in ("A", "B")}
        assert len(owners) == 2

    def test_for_accessions_needs_a_shard(self):
        with pytest.raises(FederationError):
            ShardMap.for_accessions(["A"], 0)

    def test_describe(self):
        assert ShardMap(("M",)).describe() == ["[-inf, M)", "[M, +inf)"]


class TestShardSlice:
    def _slices(self, repository, shards=2):
        shard_map = ShardMap.for_accessions(repository.accessions(), shards)
        return shard_map, [ShardSlice(repository, shard_map, shard)
                           for shard in range(shard_map.count)]

    def test_slices_partition_the_accessions(self, repository):
        __, slices = self._slices(repository)
        pieces = [one.accessions() for one in slices]
        joined = [accession for piece in pieces for accession in piece]
        assert sorted(joined) == sorted(repository.accessions())
        assert len(set(joined)) == len(joined)  # disjoint

    def test_query_masks_foreign_accessions(self, repository):
        __, (left, right) = self._slices(repository)
        owned = left.accessions()[0]
        foreign = right.accessions()[0]
        assert left.query(owned) == repository.query(owned)
        assert left.query(foreign) is None

    def test_record_state_refuses_foreign_accessions(self, repository):
        __, (left, right) = self._slices(repository)
        with pytest.raises(SourceError):
            left.record_state(right.accessions()[0])

    def test_snapshot_renders_only_owned_records(self, repository):
        __, (left, right) = self._slices(repository)
        snapshot = left.snapshot()
        foreign = right.accessions()[0]
        assert foreign not in snapshot
        assert left.accessions()[0] in snapshot

    def test_read_log_keeps_original_sequence_numbers(self, repository):
        __, (left, __slice) = self._slices(repository)
        for accession in repository.accessions():
            _touch(repository, accession)
        full = repository.read_log(0)
        filtered = left.read_log(0)
        assert filtered == [entry for entry in full
                            if left.owns(entry.accession)]

    def test_subscribe_filters_push_events(self, repository):
        __, (left, right) = self._slices(repository)
        seen = []
        left.subscribe(lambda entry, rendered: seen.append(entry.accession))
        owned = left.accessions()[0]
        foreign = right.accessions()[0]
        _touch(repository, owned)
        _touch(repository, foreign)
        assert seen == [owned]

    def test_name_and_capabilities_delegate(self, repository):
        __, (left, __slice) = self._slices(repository)
        # The mediator picks its wrapper by name: the slice MUST look
        # like the repository it slices.
        assert left.name == repository.name
        assert left.capabilities == repository.capabilities
        assert len(left) == len(left.accessions())

    def test_out_of_range_shard_rejected(self, repository):
        shard_map = ShardMap(("M",))
        with pytest.raises(FederationError):
            ShardSlice(repository, shard_map, 2)

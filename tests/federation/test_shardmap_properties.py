"""Property-based hardening of the shard routing table.

The macro workload stakes its differential guarantees on three
:class:`~repro.federation.ShardMap` invariants: routing is a *total
function* (every accession — existing or not — has exactly one owner),
quantile-derived boundaries are sorted and strict, and ownership is
stable right at the boundaries (``bisect_right``: a boundary accession
belongs to the shard on its right).  Hypothesis searches for
counterexamples the hand-written cases in ``test_sharding.py`` would
never think of.
"""

from hypothesis import given, settings, strategies as st

from repro.federation import ShardMap

#: Accession-shaped and adversarial strings alike — routing must be
#: total over *anything* orderable, not just well-formed accessions.
accessions = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cs",)),
    max_size=12,
)

populations = st.lists(accessions, min_size=1, max_size=60)

shard_counts = st.integers(min_value=1, max_value=12)


class TestRoutingIsTotal:
    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts,
           probe=accessions)
    def test_every_accession_routes_to_exactly_one_shard(
            self, population, shards, probe):
        shard_map = ShardMap.for_accessions(population, shards)
        owner = shard_map.shard_of(probe)
        assert 0 <= owner < shard_map.count
        # "Exactly one": split() puts it in precisely that group.
        groups = shard_map.split([probe])
        assert groups == {owner: [probe]}

    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts)
    def test_count_never_exceeds_the_request(self, population, shards):
        shard_map = ShardMap.for_accessions(population, shards)
        assert 1 <= shard_map.count <= shards


class TestQuantileBoundaries:
    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts)
    def test_boundaries_sorted_strict_and_from_the_population(
            self, population, shards):
        shard_map = ShardMap.for_accessions(population, shards)
        boundaries = list(shard_map.boundaries)
        assert boundaries == sorted(set(boundaries))
        assert set(boundaries) <= set(population)

    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts,
           probe=accessions)
    def test_ranges_cover_the_keyspace(self, population, shards,
                                       probe):
        """The half-open ranges tile the whole keyspace: whatever
        shard owns a probe, the probe sits inside that shard's
        ``[boundaries[i-1], boundaries[i])`` range."""
        shard_map = ShardMap.for_accessions(population, shards)
        assert len(shard_map.describe()) == shard_map.count
        owner = shard_map.shard_of(probe)
        if owner > 0:
            assert shard_map.boundaries[owner - 1] <= probe
        if owner < shard_map.count - 1:
            assert probe < shard_map.boundaries[owner]

    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts)
    def test_population_spreads_over_real_shards(self, population,
                                                 shards):
        """Every member routes somewhere inside the derived map."""
        shard_map = ShardMap.for_accessions(population, shards)
        groups = shard_map.split(sorted(set(population)))
        assert sum(len(members) for members in groups.values()) == \
            len(set(population))
        assert all(0 <= shard < shard_map.count for shard in groups)


class TestBoundaryAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(population=st.lists(accessions, min_size=2, max_size=60),
           shards=st.integers(min_value=2, max_value=12))
    def test_boundary_accession_belongs_to_the_right_shard(
            self, population, shards):
        """bisect_right semantics: the boundary itself opens the next
        range — ownership may never be ambiguous at the split point."""
        shard_map = ShardMap.for_accessions(population, shards)
        for index, boundary in enumerate(shard_map.boundaries):
            assert shard_map.shard_of(boundary) == index + 1

    @settings(max_examples=60, deadline=None)
    @given(population=st.lists(accessions, min_size=2, max_size=60),
           shards=st.integers(min_value=2, max_value=12))
    def test_immediately_below_the_boundary_stays_left(
            self, population, shards):
        """Any strict prefix of a boundary sorts below it, so it must
        route at most to the boundary's left neighbour."""
        shard_map = ShardMap.for_accessions(population, shards)
        for index, boundary in enumerate(shard_map.boundaries):
            for cut in range(len(boundary)):
                below = boundary[:cut]
                if below in shard_map.boundaries:
                    continue   # itself a boundary: owned by its right
                assert shard_map.shard_of(below) <= index

    @settings(max_examples=60, deadline=None)
    @given(population=st.lists(accessions, min_size=2, max_size=60),
           shards=st.integers(min_value=2, max_value=12))
    def test_appending_keeps_or_advances_the_shard(self, population,
                                                   shards):
        """Extending an accession never moves it to a *lower* shard —
        routing respects lexicographic order."""
        shard_map = ShardMap.for_accessions(population, shards)
        for boundary in shard_map.boundaries:
            grown = boundary + "0"
            assert shard_map.shard_of(grown) >= \
                shard_map.shard_of(boundary)


class TestSplitAgreement:
    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts,
           probes=st.lists(accessions, max_size=20))
    def test_split_agrees_with_shard_of(self, population, shards,
                                        probes):
        shard_map = ShardMap.for_accessions(population, shards)
        groups = shard_map.split(probes)
        rebuilt = []
        for shard, members in groups.items():
            for member in members:
                assert shard_map.shard_of(member) == shard
                rebuilt.append(member)
        assert sorted(rebuilt) == sorted(probes)

    @settings(max_examples=60, deadline=None)
    @given(population=populations, shards=shard_counts,
           probes=st.lists(accessions, max_size=20))
    def test_routing_is_stable_across_identical_maps(
            self, population, shards, probes):
        first = ShardMap.for_accessions(population, shards)
        second = ShardMap.for_accessions(list(population), shards)
        assert first.boundaries == second.boundaries
        assert [first.shard_of(probe) for probe in probes] == \
            [second.shard_of(probe) for probe in probes]

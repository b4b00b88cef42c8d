"""A shard's accessions are a range cut from the sorted order.

``ShardSlice.accessions`` / ``query_accessions`` bisect the shard's
``[low, high)`` out of the source's sorted accessions; that must equal
filtering every accession through :meth:`ShardSlice.owns`.  Maps come
from ``ShardMap.for_accessions`` over tiny populations (fewer split
points than shards asked for) and from arbitrary split points;
accessions sit on boundaries, and shards may own nothing.
"""

from hypothesis import given, settings, strategies as st

from repro.federation.sharding import ShardMap, ShardSlice
from repro.sources import Capabilities, EmblRepository, Universe

_KEYS = st.text(alphabet="ABC0", min_size=0, max_size=3)


class SortedSource:
    """Just the accession paths of a source, sorted as sources keep them."""

    def __init__(self, accessions) -> None:
        self._accessions = tuple(sorted(accessions))

    def accessions(self) -> tuple[str, ...]:
        return self._accessions

    def query_accessions(self) -> tuple[str, ...]:
        return self._accessions


def assert_ranges_equal_filters(inner, shard_map: ShardMap) -> None:
    owned: list[str] = []
    for shard in range(shard_map.count):
        piece = ShardSlice(inner, shard_map, shard)
        want = tuple(accession for accession in inner.accessions()
                     if piece.owns(accession))
        assert piece.accessions() == want
        assert piece.query_accessions() == want
        owned += want
    assert owned == list(inner.accessions())


@st.composite
def maps_and_sources(draw):
    if draw(st.booleans()):
        population = draw(st.sets(_KEYS, max_size=5))
        shard_map = ShardMap.for_accessions(population,
                                            draw(st.integers(1, 8)))
    else:
        shard_map = ShardMap(sorted(draw(st.sets(_KEYS, max_size=5))))
    on_edges = draw(st.sets(st.sampled_from(shard_map.boundaries)
                            if shard_map.boundaries else st.nothing()))
    inner = SortedSource(draw(st.sets(_KEYS, max_size=8)) | on_edges)
    return inner, shard_map


class TestShardRangeEqualsOwnsFilter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=maps_and_sources())
    def test_drawn_maps(self, drawn):
        assert_ranges_equal_filters(*drawn)

    def test_named_cases(self):
        cases = [
            (ShardMap(()), ["A", "B"]),                 # one shard
            (ShardMap(("B",)), []),                     # nothing at all
            (ShardMap(("B",)), ["B"]),                  # only the edge
            (ShardMap(("B", "C")), ["A", "C", "D"]),    # middle shard empty
            (ShardMap(("", "A")), ["", "A", "AA"]),     # empty-string edge
            (ShardMap.for_accessions(["A", "B"], 5), ["A", "B", "C"]),
        ]
        for shard_map, accessions in cases:
            assert_ranges_equal_filters(SortedSource(accessions), shard_map)

    def test_a_real_source_split_on_its_own_accessions(self):
        source = EmblRepository(Universe(seed=5, size=30),
                                capabilities=Capabilities(queryable=True))
        for shards in (1, 2, 3, 7, 40):
            shard_map = ShardMap.for_accessions(source.accessions(), shards)
            assert_ranges_equal_filters(source, shard_map)
            source.advance(5)
            assert_ranges_equal_filters(source, shard_map)

"""The BiQL session honours the federation's admission verdicts.

An interactive shell in front of an overloaded federation must refuse
statements *before* doing any parse/translate/execute work — the same
shed the server would apply, surfaced as :class:`OverloadError` with
the shed reason attached.
"""

import pytest

from repro.core.types import DnaSequence
from repro.errors import OverloadError
from repro.lang.biql import BiqlSession
from repro.serving import BATCH, CACHE_ONLY, MAINTENANCE, REDUCED, ServingPolicy
from repro.sources import EmblRepository, SwissProtRepository, Universe
from repro.warehouse import UnifyingDatabase
from tests.serving.conftest import quiet_federation

QUERY = "FIND genes SHOW accession LIMIT 3"


@pytest.fixture(scope="module")
def warehouse():
    universe = Universe(seed=27, size=40)
    built = UnifyingDatabase([
        EmblRepository(universe, coverage=0.8),
        SwissProtRepository(universe, coverage=0.8),
    ])
    built.initial_load()
    built.add_user_sequence("alice", "my clone",
                            DnaSequence("ATGGCCAAATAA"))
    return built


def gated_session(warehouse, policy, **kw):
    server, __, __, __ = quiet_federation(policy)
    return BiqlSession(warehouse, server=server, **kw), server


class TestAdmission:
    def test_idle_server_admits_every_entry_point(self, warehouse):
        session, __ = gated_session(
            warehouse, ServingPolicy(capacity=4, deadline=25.0))
        assert len(session.run(QUERY).rows) == 3
        assert "accession" in session.render(QUERY)

    def test_full_queue_refuses_before_any_work(self, warehouse):
        session, server = gated_session(
            warehouse, ServingPolicy(capacity=1, deadline=25.0,
                                     queue_capacity=0, brownout=False))
        with pytest.raises(OverloadError) as caught:
            session.run(QUERY)
        assert caught.value.reason == "queue_full"
        # Refused up front: nothing was parsed or translated.
        assert session.last_sql is None
        assert server.queue.shed.get("queue_full") == 1

    def test_brownout_sheds_by_session_priority(self, warehouse):
        policy = ServingPolicy(capacity=4, deadline=25.0)
        server, __, __, __ = quiet_federation(policy)
        server.brownout.level = CACHE_ONLY
        interactive = BiqlSession(warehouse, server=server)
        maintenance = BiqlSession(warehouse, server=server,
                                  priority=MAINTENANCE)
        # Cache-only mode: a human still gets an answer, a background
        # scan is refused.
        assert interactive.run(QUERY).rows
        with pytest.raises(OverloadError) as caught:
            maintenance.run(QUERY)
        assert caught.value.reason == "brownout"
        assert caught.value.priority == MAINTENANCE

    def test_reduced_mode_refuses_batch_too(self, warehouse):
        policy = ServingPolicy(capacity=4, deadline=25.0)
        server, __, __, __ = quiet_federation(policy)
        server.brownout.level = REDUCED
        batch = BiqlSession(warehouse, server=server, priority=BATCH)
        with pytest.raises(OverloadError):
            batch.run(QUERY)

    def test_ungated_session_is_unchanged(self, warehouse):
        session = BiqlSession(warehouse)
        assert len(session.run(QUERY).rows) == 3

"""Every open finding of CHANGES.md as the check its fix must pass.

Each test is a strict ``xfail`` naming the CHANGES.md line that records
it: the suite fails when a fix lands without deleting the mark, and
``pytest -rx`` lists what is still open.
"""

import pytest

from repro.sim import group


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND, PR 46")
def test_a_primary_with_no_follower_reports_its_rotted_write():
    """Two failovers leave charlie with no follower; a flipped byte in
    its log loses the acknowledged write, and no DivergenceReport names
    it (repair starts from a follower's claim, and none is left)."""
    record = group.run([("write",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("flip", "charlie", "wal", 0, 1)])
    assert record.verdict.ok, record.verdict.violations

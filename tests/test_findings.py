"""Every finding of CHANGES.md as the check its fix must pass.

An open finding is a strict ``xfail`` naming the CHANGES.md line that
records it: the suite fails when a fix lands without deleting the mark,
and ``pytest -rx`` lists what is still open.  A mended one stays here,
unmarked, as its regression test.
"""

from repro.sim import group


def test_a_primary_with_no_follower_reports_its_rotted_write():
    """Two failovers leave charlie with no follower; a flipped byte in
    its log would lose the acknowledged write unreported, since no
    follower's claim names the rot.  The heal's sync has charlie verify
    the generation itself and re-cut it from its database as an
    image."""
    record = group.run([("write",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("advance", 2.0), ("crash", 0),
                        ("failover",), ("flip", "charlie", "wal", 0, 1)])
    assert record.verdict.ok, record.verdict.violations
    assert record.group.primary.name == "charlie"
    assert record.group.primary.image_generation > 0

"""AdmissionQueue: bounded capacity, wait estimation, priority order."""

import pytest

from repro.serving import AdmissionQueue
from repro.serving.policy import BATCH, INTERACTIVE, MAINTENANCE


class TestCapacity:
    def test_queue_full_sheds_at_the_door(self):
        queue = AdmissionQueue(2)
        for seq in range(2):
            assert queue.try_admit(f"q{seq}", priority=INTERACTIVE, seq=seq,
                                   remaining_budget=None, busy_lanes=0,
                                   lanes=4) is None
        reason = queue.try_admit("q2", priority=INTERACTIVE, seq=2,
                                 remaining_budget=None, busy_lanes=0, lanes=4)
        assert reason == "queue_full"
        assert queue.depth == 2
        assert queue.shed == {"queue_full": 1}

    def test_unconditional_push_ignores_the_bound(self):
        queue = AdmissionQueue(1)
        for seq in range(5):
            queue.push(f"q{seq}", priority=INTERACTIVE, seq=seq)
        assert queue.depth == 5
        assert sum(queue.shed.values()) == 0

    def test_pressure_is_depth_over_capacity(self):
        queue = AdmissionQueue(4)
        assert queue.pressure == 0.0
        queue.push("a", priority=INTERACTIVE, seq=0)
        queue.push("b", priority=INTERACTIVE, seq=1)
        assert queue.pressure == pytest.approx(0.5)


class TestWaitEstimation:
    def test_untrained_estimator_admits_optimistically(self):
        queue = AdmissionQueue(8)
        assert queue.estimated_wait(busy_lanes=4, lanes=4) == 0.0
        assert queue.try_admit("q", priority=INTERACTIVE, seq=0,
                               remaining_budget=0.1, busy_lanes=4,
                               lanes=4) is None

    def test_estimate_is_the_observed_mean(self):
        queue = AdmissionQueue(8)
        queue.observe_service(2.0)
        queue.observe_service(4.0)
        # (0 queued + 3 busy) / 2 lanes × mean 3.0 = 4.5
        assert queue.estimated_wait(busy_lanes=3, lanes=2) == \
            pytest.approx(4.5)

    def test_hopeless_wait_sheds_with_deadline_reason(self):
        queue = AdmissionQueue(8)
        for __ in range(4):
            queue.observe_service(10.0)
        reason = queue.try_admit("q", priority=BATCH, seq=0,
                                 remaining_budget=5.0, busy_lanes=4, lanes=4)
        assert reason == "deadline"
        assert queue.depth == 0

    def test_wait_factor_scales_the_threshold(self):
        lenient = AdmissionQueue(8, wait_factor=3.0)
        for __ in range(4):
            lenient.observe_service(10.0)
        assert lenient.try_admit("q", priority=BATCH, seq=0,
                                 remaining_budget=5.0, busy_lanes=4,
                                 lanes=4) is None


class TestOrdering:
    def test_pops_priority_then_fifo(self):
        queue = AdmissionQueue(8)
        arrivals = [(MAINTENANCE, 0), (BATCH, 1), (INTERACTIVE, 2),
                    (BATCH, 3), (INTERACTIVE, 4)]
        for priority, seq in arrivals:
            queue.push(f"q{seq}", priority=priority, seq=seq)
        popped = [queue.pop()[2] for __ in range(len(arrivals))]
        assert popped == ["q2", "q4", "q1", "q3", "q0"]

    def test_peek_does_not_remove(self):
        queue = AdmissionQueue(8)
        queue.push("q0", priority=BATCH, seq=0)
        assert queue.peek()[2] == "q0"
        assert queue.depth == 1


class TestBookkeeping:
    def test_shed_counters_accumulate_by_reason(self):
        queue = AdmissionQueue(0)
        queue.note_shed("brownout", MAINTENANCE)
        queue.note_shed("brownout", BATCH)
        queue.note_shed("deadline", INTERACTIVE)
        assert queue.shed == {"brownout": 2, "deadline": 1}
        assert sum(queue.shed.values()) == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(-1)

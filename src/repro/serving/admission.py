"""Admission control: shed *before* work, at the queue's front door.

The cheapest query to serve under overload is the one never started.
The admission queue is a bounded, priority-classed buffer between
arriving queries and the serving lanes; a query is rejected at enqueue
— before any source call, cache probe, or retry — when

- the queue is full (``queue_full``), or
- the estimated wait already exceeds what the query's deadline budget
  has left (``deadline``): with ``k`` requests ahead and ``busy``
  lanes occupied, the estimate is ``ceil-free arithmetic over the
  observed median query duration`` — pessimistic enough to shed
  honestly, cheap enough to run per arrival.

Dequeue order is strictly ``(priority class, arrival sequence)``:
interactive first, FIFO inside a class.  Both the order and the
estimate are pure arithmetic over virtual time — no wall clock, no
randomness — so identical seeds give identical shed decisions at any
pool width.
"""

from __future__ import annotations

import heapq

from repro.obs.metrics import Histogram, count as _metric, gauge as _gauge
from repro.serving.policy import PRIORITY_NAMES

#: Bounds for the whole-query service-time histogram (virtual units).
SERVICE_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                  100.0, 250.0, 500.0)


class AdmissionQueue:
    """Bounded priority queue with wait estimation from live latency.

    The serving loop drives it single-threaded over virtual time, so
    there are no locks; determinism comes from the ``(priority, seq)``
    heap key — ``seq`` is the arrival sequence number, which breaks
    every tie the same way on every run.
    """

    def __init__(self, capacity: int, *, wait_factor: float = 1.0) -> None:
        if capacity < 0:
            raise ValueError("queue capacity cannot be negative")
        self.capacity = capacity
        self.wait_factor = wait_factor
        self._heap: list[tuple[int, int, object]] = []
        #: Whole-query service durations; feeds the wait estimate.
        self.service_time = Histogram("serving.service_time", SERVICE_BOUNDS)
        self.admitted = 0
        self.shed: dict[str, int] = {}

    # -- state ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def pressure(self) -> float:
        """Queue fullness in [0, 1] (1.0 when capacity is zero)."""
        if self.capacity <= 0:
            return 1.0 if self._heap else 0.0
        return len(self._heap) / self.capacity

    def _publish_depth(self) -> None:
        _gauge("serving", "queue_depth", len(self._heap))

    # -- wait estimation --------------------------------------------------------

    def estimated_wait(self, busy_lanes: int, lanes: int) -> float:
        """Expected queue wait for an arrival, from live service times.

        ``(queued + busy) / lanes`` service slots must drain before a
        new arrival starts; each slot costs about the observed mean
        service time (the histogram's sum/count — the unbiased choice;
        a bucket bound would overestimate and over-shed).  Before any
        observation the estimate is zero — the queue admits
        optimistically until it has data, and the bounded capacity
        still backstops it.
        """
        if lanes <= 0:
            return float("inf")
        if not self.service_time.count:
            return 0.0
        mean = self.service_time.total / self.service_time.count
        ahead = len(self._heap) + busy_lanes
        return (ahead / lanes) * mean

    def observe_service(self, duration: float) -> None:
        self.service_time.observe(duration)

    # -- admit / shed -----------------------------------------------------------

    def try_admit(self, item, *, priority: int, seq: int,
                  remaining_budget: float | None,
                  busy_lanes: int, lanes: int) -> str | None:
        """Enqueue *item*, or return the shed reason without queueing."""
        if len(self._heap) >= self.capacity:
            return self.note_shed("queue_full", priority)
        if remaining_budget is not None:
            wait = self.estimated_wait(busy_lanes, lanes)
            if wait > self.wait_factor * remaining_budget:
                return self.note_shed("deadline", priority)
        heapq.heappush(self._heap, (priority, seq, item))
        self.admitted += 1
        _metric("serving", "admitted")
        self._publish_depth()
        return None

    def push(self, item, *, priority: int, seq: int) -> None:
        """Enqueue unconditionally (the unprotected baseline)."""
        heapq.heappush(self._heap, (priority, seq, item))
        self.admitted += 1
        self._publish_depth()

    def peek(self):
        """The next ``(priority, seq, item)`` without removing it."""
        return self._heap[0] if self._heap else None

    def pop(self):
        """Next ``(priority, seq, item)`` — interactive first, then FIFO."""
        entry = heapq.heappop(self._heap)
        self._publish_depth()
        return entry

    def note_shed(self, reason: str, priority: int) -> str:
        """Record a shed decision (also used for dequeue/brownout sheds)."""
        self.shed[reason] = self.shed.get(reason, 0) + 1
        _metric("serving", f"shed.{reason}")
        _metric("serving",
                f"shed_by_class.{PRIORITY_NAMES.get(priority, priority)}")
        return reason

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return (f"AdmissionQueue(depth={self.depth}/{self.capacity}, "
                f"admitted={self.admitted}, shed={sum(self.shed.values())})")

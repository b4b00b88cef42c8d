"""Serving policy: every overload-protection knob in one frozen bundle.

The federation server composes five mechanisms (admission control,
retry budgets, adaptive concurrency, hedged requests, brownout mode);
each is tuned — or switched off — here.  :meth:`ServingPolicy.
unprotected` is the ablation baseline A11 measures against: same
serving loop, same capacity, no protection whatsoever.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MediatorError

#: Priority classes, in admission order (lower admits first).
INTERACTIVE = 0   # a biologist waiting at a prompt
BATCH = 1         # pipelines and bulk exports
MAINTENANCE = 2   # resyncs, prefetch, housekeeping

PRIORITY_NAMES = {INTERACTIVE: "interactive", BATCH: "batch",
                  MAINTENANCE: "maintenance"}

#: Brownout levels (stepwise degradation, hysteretic recovery).
NORMAL = 0        # full service
CACHE_ONLY = 1    # non-interactive queries answered from cache or shed
REDUCED = 2       # + slowest source excluded, non-interactive shed

BROWNOUT_NAMES = {NORMAL: "normal", CACHE_ONLY: "cache-only",
                  REDUCED: "reduced"}


@dataclass(frozen=True)
class ServingPolicy:
    """How hard the federation defends itself under offered load.

    ``capacity`` is the server's genuine parallelism: how many queries
    can execute concurrently (in virtual time).  Everything else
    bounds the work *around* those lanes.  Delays and deadlines are
    virtual-clock units, matching :class:`~repro.mediator.RetryPolicy`.
    """

    # -- the serving loop ---------------------------------------------------
    capacity: int = 4
    #: Per-query deadline budget, charged from *arrival* (queue wait
    #: included); ``None`` falls back to the retry policy's deadline.
    deadline: float | None = None

    # -- admission control --------------------------------------------------
    admission_control: bool = True
    queue_capacity: int = 32
    #: Shed at enqueue when estimated wait > factor × remaining budget.
    admission_wait_factor: float = 1.0

    # -- retry budgets ------------------------------------------------------
    #: Tokens deposited per successful call (``None`` disables budgets).
    retry_budget_ratio: float | None = 0.1
    #: Token cap — the burst of retries a cold source may still get.
    retry_budget_burst: float = 3.0

    # -- adaptive concurrency (AIMD) ---------------------------------------
    adaptive_concurrency: bool = True
    aimd_min_limit: int = 1
    #: ``None`` means "the server's capacity" (no source throttled
    #: below full width until it struggles).
    aimd_max_limit: int | None = None
    aimd_increase: float = 0.5
    aimd_backoff: float = 0.5
    #: Decrease when a source's per-query latency exceeds this
    #: (``None``: failure-driven only).
    aimd_latency_target: float | None = None
    #: At most one multiplicative decrease per window (virtual time).
    aimd_cooldown: float = 1.0

    # -- hedged requests ----------------------------------------------------
    hedging: bool = True
    hedge_quantile: float = 0.95
    #: Hedge tokens deposited per observed call (caps the hedge rate).
    hedge_ratio: float = 0.1
    hedge_burst: float = 2.0
    #: Calls observed before the latency histogram is trusted.
    hedge_min_observations: int = 16

    # -- brownout mode ------------------------------------------------------
    brownout: bool = True
    #: Queue pressure (depth / queue_capacity) that counts as hot.
    brownout_enter_pressure: float = 0.75
    brownout_exit_pressure: float = 0.25
    #: Consecutive hot / calm admissions before stepping up / down —
    #: exit takes longer than entry (hysteresis).
    brownout_enter_after: int = 4
    brownout_exit_after: int = 8
    #: Observations of a source before it can be ranked "slowest".
    brownout_rank_min_observations: int = 8

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise MediatorError("a federation server needs capacity >= 1")
        if self.queue_capacity < 0:
            raise MediatorError("queue_capacity cannot be negative")
        if self.aimd_min_limit < 1:
            raise MediatorError("aimd_min_limit must be at least 1")
        if not 0.0 < self.aimd_backoff < 1.0:
            raise MediatorError("aimd_backoff must be in (0, 1)")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise MediatorError("hedge_quantile must be in (0, 1)")

    @property
    def max_source_limit(self) -> int:
        return (self.aimd_max_limit if self.aimd_max_limit is not None
                else self.capacity)

    @classmethod
    def unprotected(cls, capacity: int = 4,
                    deadline: float | None = None) -> "ServingPolicy":
        """The ablation baseline: same lanes, zero protection.

        Every query is admitted unconditionally and runs to completion
        no matter how late; retries, width, and hedging behave exactly
        as the pre-serving mediator did.
        """
        return cls(
            capacity=capacity,
            deadline=deadline,
            admission_control=False,
            queue_capacity=1_000_000_000,
            retry_budget_ratio=None,
            adaptive_concurrency=False,
            hedging=False,
            brownout=False,
        )

"""Query-driven integration baseline (the architecture of Figure 1)."""

from repro.mediator.mediator import (
    BreakerPolicy,
    CircuitBreaker,
    LiveSourceWrapper,
    MediatedAnswer,
    MediatedBatch,
    MediationCost,
    Mediator,
    QueryHealth,
    RetryPolicy,
    SourceOutcome,
)
from repro.mediator.pool import (
    SequentialPool,
    ThreadedPool,
    WorkerPool,
    bounded_makespan,
)
from repro.mediator.cache import CachedMediator, CacheStats, QueryCache

__all__ = [
    "Mediator",
    "MediatedAnswer",
    "MediatedBatch",
    "MediationCost",
    "LiveSourceWrapper",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "QueryHealth",
    "SourceOutcome",
    "WorkerPool",
    "SequentialPool",
    "ThreadedPool",
    "bounded_makespan",
    "QueryCache",
    "CacheStats",
    "CachedMediator",
]

"""Hedged requests: cut off the latency tail with one backup call.

A heavy-tailed source makes a few calls take 10× the median, and in a
fan-out the slowest source sets the query's makespan.  The hedger
watches every primary call's duration in a live histogram; once a call
has been outstanding longer than the observed p95, it issues *one*
backup call to a replica source and takes whichever answer lands
first.  Two guards keep hedging from becoming its own overload:

- the delay is a real quantile from real observations — the hedger
  stays silent until ``min_observations`` calls have been seen, so a
  cold start can't hedge on noise;
- hedges are token-limited (``ratio`` tokens earned per observed
  call, capped at ``burst``), so at most ~``ratio`` of calls are ever
  doubled no matter how ugly the tail gets.

Everything is virtual-time deterministic: "outstanding longer than
p95" is decided arithmetically from the measured primary duration, and
the winner is whichever virtual completion instant is earlier, with
the primary winning ties.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import Histogram, count as _metric

#: Histogram bounds tuned to the virtual clock's unit scale (retry
#: backoffs are O(1), injected latencies O(1)-O(100)).
LATENCY_BOUNDS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                  50.0, 100.0, 250.0)


class Hedger:
    """Per-source hedging decision state.

    The hedger owns the source's latency histogram (it doubles as the
    brownout controller's slow-source ranking input) and the hedge
    token bucket.  Whether a hedge can actually *run* is the caller's
    concern — the mediator only hedges when a replica wrapper has been
    installed — but observations flow in regardless, so the delay is
    ready the moment a replica appears.
    """

    def __init__(
        self,
        source: str,
        *,
        quantile: float = 0.95,
        ratio: float = 0.1,
        burst: float = 2.0,
        min_observations: int = 16,
    ) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("hedge quantile must be in (0, 1)")
        self.source = source
        self.quantile = quantile
        self.ratio = float(ratio)
        self.burst = float(burst)
        self.min_observations = min_observations
        self.latency = Histogram(f"latency.{source}", LATENCY_BOUNDS)
        self.replica = None  # LiveSourceWrapper, installed by the mediator
        self._tokens = float(burst)
        self._lock = threading.Lock()
        self.issued = 0
        self.won = 0
        self.suppressed = 0

    def observe(self, duration: float) -> None:
        """Record a primary call's duration; earns hedge tokens."""
        self.latency.observe(duration)
        with self._lock:
            self._tokens = min(self.burst, self._tokens + self.ratio)

    def hedge_delay(self) -> float | None:
        """Virtual time to wait before hedging, or None when untrained.

        The p95 bucket *upper bound* — deliberately conservative: we
        hedge calls that are provably in the tail, not borderline ones.
        """
        if self.latency.count < self.min_observations:
            return None
        bound = self.latency.quantile_bound(self.quantile)
        return bound if bound != float("inf") else None

    def try_issue(self) -> bool:
        """Spend one hedge token; False caps the hedge rate."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.issued += 1
                _metric("serving", "hedges_issued")
                return True
            self.suppressed += 1
            return False

    def record_win(self) -> None:
        self.won += 1
        _metric("serving", "hedges_won")

    def __repr__(self) -> str:
        return (f"Hedger({self.source!r}, issued={self.issued}, "
                f"won={self.won}, observations={self.latency.count})")

"""Retry budgets: a per-source token bucket shared across queries.

A retry storm is metastable: a degraded source makes callers retry,
the retries load the source further, and the federation amplifies its
own outage.  The budget breaks the loop by making retries *earned* —
each successful call to a source deposits ``ratio`` tokens, each retry
spends one, and the balance is capped at ``burst``.  During an outage
no successes arrive, the bucket drains after the first few retries,
and the aggregate retry load at the struggling source falls to ~zero
until it starts answering again.

The bucket is shared by every query touching a source (that's the
point — the cap is on *aggregate* load), so it is lock-protected and
uses only counters: no timestamps, fully deterministic on the virtual
clock.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import gauge as _gauge


class RetryBudget:
    """Token bucket capping aggregate retries against one source.

    ``ratio`` is the long-run retry/success ceiling (0.1 → retries stay
    under ~10% of successful calls); ``burst`` is the opening balance
    and cap, so a cold or recovering source still gets a handful of
    retries before any success has been observed.
    """

    def __init__(self, source: str, ratio: float = 0.1,
                 burst: float = 3.0) -> None:
        if ratio < 0:
            raise ValueError("retry budget ratio cannot be negative")
        if burst < 1:
            raise ValueError("retry budget burst must allow >= 1 token")
        self.source = source
        self.ratio = float(ratio)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._lock = threading.Lock()
        self.deposits = 0.0
        self.spent = 0
        self.denied = 0
        self._publish()

    def _publish(self) -> None:
        _gauge("serving", f"retry_tokens.{self.source}", self._tokens)

    def record_success(self) -> None:
        """A call succeeded: deposit ``ratio`` tokens (capped at burst)."""
        with self._lock:
            deposit = min(self.ratio, self.burst - self._tokens)
            if deposit > 0:
                self._tokens += deposit
                self.deposits += deposit
            self._publish()

    def try_spend(self) -> bool:
        """Take one token for a retry; False means the budget is spent."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                self._publish()
                return True
            self.denied += 1
            return False

    def __repr__(self) -> str:
        return (f"RetryBudget({self.source!r}, tokens={self._tokens:.2f}, "
                f"spent={self.spent}, denied={self.denied})")

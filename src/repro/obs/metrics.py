"""Process-wide metrics registry for the federation stack.

The reproduction already counts everything that matters — but each
layer counts into its own dataclass (``MediationCost``, ``FaultStats``,
``CacheStats``, ``MonitorCost``, ``RecoveryReport``, …) and those
structs live and die with the objects that own them.  The registry is
the durable, queryable aggregate: :meth:`LockedCounters.bump`, the one
``bump()`` those structs share, *also* publishes here (see
:func:`count`), so a process can answer "how many source requests,
across every mediator that ever existed?" with one call.

Three instrument kinds, all lock-protected and cheap:

- :class:`Counter` — monotonically increasing total.
- :class:`Gauge` — last-write-wins value (cache size, staleness bound).
- :class:`Histogram` — fixed-bucket distribution with sum/count, for
  durations and sizes.

Publication is off by default.  :func:`count` / :func:`gauge` /
:func:`observe` check one module global and return immediately when no
registry is installed — the same near-free discipline as the tracer.
Output is a Prometheus-style text dump (:meth:`MetricsRegistry.
to_prometheus_text`), consumed by ``python -m repro stats``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LockedCounters",
    "MetricsRegistry",
    "count",
    "disable_metrics",
    "enable_metrics",
    "gauge",
    "get_registry",
    "observe",
    "set_registry",
]

#: Default histogram bucket upper bounds (milliseconds-ish scale).
DEFAULT_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                   1000.0, 2500.0, 5000.0)


class Counter:
    """A monotonically increasing total, keyed by (group, name)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A fixed-bucket distribution with running sum and count."""

    __slots__ = ("name", "bounds", "buckets", "total", "count", "_lock")

    def __init__(self, name: str, bounds=DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left keeps Prometheus ``le`` semantics: a value equal
        # to a bucket bound belongs to that bucket (le is <=).
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.buckets[index] += 1
            self.total += value
            self.count += 1

    def quantile_bound(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile."""
        with self._lock:
            if not self.count:
                return 0.0
            target = q * self.count
            running = 0
            for index, occupancy in enumerate(self.buckets):
                running += occupancy
                if running >= target:
                    return (self.bounds[index]
                            if index < len(self.bounds)
                            else float("inf"))
        return float("inf")


class MetricsRegistry:
    """Creates-on-first-use store of every instrument in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @staticmethod
    def _key(group: str, name: str) -> str:
        return f"{group}_{name}" if group else name

    def counter(self, group: str, name: str) -> Counter:
        key = self._key(group, name)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter(key))
        return instrument

    def gauge(self, group: str, name: str) -> Gauge:
        key = self._key(group, name)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge(key))
        return instrument

    def histogram(self, group: str, name: str,
                  bounds=DEFAULT_BUCKETS) -> Histogram:
        key = self._key(group, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(key, bounds))
        return instrument

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat {key: value} view of counters and gauges."""
        out: dict[str, float] = {}
        for key, counter in sorted(self._counters.items()):
            out[key] = counter.value
        for key, gauge_ in sorted(self._gauges.items()):
            out[key] = gauge_.value
        return out

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (the `stats` CLI body)."""
        lines: list[str] = []
        for key, counter in sorted(self._counters.items()):
            lines.append(f"# TYPE {key} counter")
            lines.append(f"{key} {_fmt(counter.value)}")
        for key, gauge_ in sorted(self._gauges.items()):
            lines.append(f"# TYPE {key} gauge")
            lines.append(f"{key} {_fmt(gauge_.value)}")
        for key, histogram in sorted(self._histograms.items()):
            lines.append(f"# TYPE {key} histogram")
            running = 0
            for index, bound in enumerate(histogram.bounds):
                running += histogram.buckets[index]
                lines.append(f'{key}_bucket{{le="{_fmt(bound)}"}} {running}')
            lines.append(f'{key}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{key}_sum {_fmt(histogram.total)}")
            lines.append(f"{key}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


# ---------------------------------------------------------------------------
# Module-level switchboard (what the cost structs call)
# ---------------------------------------------------------------------------

_REGISTRY: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous


def get_registry() -> MetricsRegistry | None:
    return _REGISTRY


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh process-wide registry."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    set_registry(None)


def count(group: str, name: str, amount: float = 1.0) -> None:
    """Publish a counter increment — near-free when no registry is on."""
    registry = _REGISTRY
    if registry is None:
        return
    registry.counter(group, name).inc(amount)


def gauge(group: str, name: str, value: float) -> None:
    registry = _REGISTRY
    if registry is None:
        return
    registry.gauge(group, name).set(value)


def observe(group: str, name: str, value: float) -> None:
    registry = _REGISTRY
    if registry is None:
        return
    registry.histogram(group, name).observe(value)


class LockedCounters:
    """Base of the per-object counter dataclasses.

    A subclass declares its counters as dataclass fields and its
    ``metric_group``; every update goes through :meth:`bump`, which
    holds a lock (concurrent fan-out never loses an increment) and
    publishes the same increment to the registry as
    ``<metric_group>_<counter>``.  The lock is a plain attribute, not a
    field, so ``fields()``-based iteration sees counters only.
    """

    metric_group = ""

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)
        count(self.metric_group, counter, amount)

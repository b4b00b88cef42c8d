"""The metrics registry: instruments, switchboard, Prometheus text."""

import threading

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestDisabledFastPath:
    def test_helpers_are_inert_without_a_registry(self):
        assert obs.get_registry() is None
        obs.count("mediation", "retries")
        obs.gauge("cache", "entries", 7)
        obs.observe("storage", "recovery_ms", 12.0)
        assert obs.get_registry() is None

    def test_enable_installs_a_fresh_registry(self):
        first = obs.enable_metrics()
        obs.count("g", "n", 3)
        second = obs.enable_metrics()
        assert second is obs.get_registry()
        assert "g_n" not in second.snapshot()       # fresh, not reused
        assert first.snapshot()["g_n"] == 3.0


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("mediation", "retries").inc()
        registry.counter("mediation", "retries").inc(2.0)
        assert registry.snapshot()["mediation_retries"] == 3.0

    def test_create_on_first_use_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert (registry.counter("a", "b") is registry.counter("a", "b"))
        assert registry.gauge("a", "b") is registry.gauge("a", "b")
        assert (registry.histogram("a", "b")
                is registry.histogram("a", "b"))

    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("cache", "entries").set(5.0)
        registry.gauge("cache", "entries").set(2.0)
        assert registry.snapshot()["cache_entries"] == 2.0

    def test_histogram_buckets_and_sum(self):
        histogram = Histogram("t", bounds=(10.0, 100.0))
        for value in (1.0, 9.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.buckets == [2, 1, 1]
        assert histogram.total == 560.0
        assert histogram.count == 4

    def test_histogram_value_on_a_bound_falls_in_that_bucket(self):
        histogram = Histogram("t", bounds=(10.0, 100.0))
        histogram.observe(10.0)
        assert histogram.buckets == [1, 0, 0]

    def test_quantile_bound(self):
        histogram = Histogram("t", bounds=(10.0, 100.0))
        for value in (1.0, 2.0, 3.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile_bound(0.5) == 10.0
        assert histogram.quantile_bound(1.0) == 100.0
        assert Histogram("e").quantile_bound(0.5) == 0.0

    def test_quantile_bound_overflow_bucket_is_inf(self):
        histogram = Histogram("t", bounds=(10.0,))
        histogram.observe(99.0)
        assert histogram.quantile_bound(0.5) == float("inf")

    def test_counters_survive_concurrent_bumps(self):
        registry = MetricsRegistry()
        counter = registry.counter("g", "n")

        def hammer():
            for __ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000.0


class TestModuleHelpers:
    def test_count_gauge_observe_route_to_the_registry(self):
        registry = obs.enable_metrics()
        obs.count("mediation", "retries", 2)
        obs.gauge("cache", "entries", 9)
        obs.observe("storage", "recovery_ms", 40.0)
        assert registry.snapshot()["mediation_retries"] == 2.0
        assert registry.snapshot()["cache_entries"] == 9.0
        histogram = registry.histogram("storage", "recovery_ms")
        assert histogram.count == 1 and histogram.total == 40.0

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestPrometheusText:
    def test_full_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("mediation", "retries").inc(3)
        registry.gauge("cache", "entries").set(1.5)
        histogram = registry.histogram("lat", "ms", bounds=(10.0, 100.0))
        histogram.observe(5.0)
        histogram.observe(50.0)
        text = registry.to_prometheus_text()
        lines = text.splitlines()
        assert "# TYPE mediation_retries counter" in lines
        assert "mediation_retries 3" in lines
        assert "# TYPE cache_entries gauge" in lines
        assert "cache_entries 1.5" in lines
        assert "# TYPE lat_ms histogram" in lines
        assert 'lat_ms_bucket{le="10"} 1' in lines
        assert 'lat_ms_bucket{le="100"} 2' in lines     # cumulative
        assert 'lat_ms_bucket{le="+Inf"} 2' in lines
        assert "lat_ms_sum 55" in lines
        assert "lat_ms_count 2" in lines
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""

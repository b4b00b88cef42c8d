"""The span tree: ids, nesting, sampling, clocks, threads."""

import threading

import pytest

from repro import obs
from repro.obs.trace import NOOP_SPAN
from repro.sources import VirtualClock


class TestDisabledFastPath:
    def test_span_returns_the_noop_singleton(self):
        assert obs.span("anything", key="value") is NOOP_SPAN

    def test_noop_span_absorbs_every_recording_call(self):
        with obs.span("a") as spn:
            assert spn.annotate(x=1) is spn
        assert spn.attributes == {}
        assert not spn.recording

    def test_no_current_trace_while_disabled(self):
        assert obs.get_tracer() is None
        assert obs.current_trace_id() is None
        obs.annotate(ignored=True)       # must not raise

    def test_enabled_reflects_the_switchboard(self):
        assert obs.get_tracer() is None
        tracer = obs.enable()
        assert obs.get_tracer() is tracer
        obs.disable()
        assert obs.get_tracer() is None


class TestSpanTree:
    def test_ids_are_deterministic_counters(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("child") as child:
                pass
        assert root.trace_id == "t000001"
        assert root.span_id == "s000002"
        assert child.trace_id == "t000001"
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_trace_buffered_only_when_the_root_finishes(self):
        tracer = obs.enable()
        with obs.span("root"):
            with obs.span("child"):
                pass
            assert tracer.traces == {}       # child alone buffers nothing
        assert list(tracer.traces) == ["t000001"]
        names = sorted(s.name for s in tracer.traces["t000001"])
        assert names == ["child", "root"]

    def test_current_span_follows_the_stack(self):
        tracer = obs.enable()
        assert tracer.current() is None
        with obs.span("root") as root:
            assert tracer.current() is root
            assert obs.current_trace_id() == root.trace_id
            with obs.span("child") as child:
                assert tracer.current() is child
            assert tracer.current() is root
        assert tracer.current() is None
        assert obs.current_trace_id() is None

    def test_annotate_helper_targets_the_current_span(self):
        obs.enable()
        with obs.span("root") as root:
            obs.annotate(rows=7)
        assert root.attributes == {"rows": 7}

    def test_exception_marks_the_span_failed(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("root") as root:
                raise ValueError("boom")
        assert root.status == "error"
        assert root.attributes["error"] == "boom"
        assert root.wall_ms is not None      # finished despite the raise

    def test_explicit_fail_wins_over_the_exit_exception(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("root") as root:
                root.fail("first diagnosis")
                raise RuntimeError("later")
        assert root.attributes["error"] == "first diagnosis"

    def test_finish_is_idempotent(self):
        tracer = obs.enable()
        with obs.span("root") as root:
            pass
        first = root.wall_ms
        root.finish()
        assert root.wall_ms == first
        assert len(tracer.traces["t000001"]) == 1

    def test_max_traces_evicts_the_oldest(self):
        tracer = obs.enable(max_traces=2)
        for __ in range(3):
            with obs.span("root"):
                pass
        assert len(tracer.traces) == 2
        assert "t000001" not in tracer.traces


class TestSampling:
    def test_rate_zero_records_nothing_but_balances_the_stack(self):
        tracer = obs.enable(sample_rate=0.0)
        with obs.span("root") as root:
            assert root is NOOP_SPAN
            with obs.span("child") as child:
                assert child is NOOP_SPAN     # inherits the decision
        assert tracer.current() is None       # stack balanced
        assert tracer.traces == {}
        assert (tracer.started, tracer.sampled) == (1, 0)

    def test_children_of_a_sampled_out_root_never_start_fresh_roots(self):
        tracer = obs.enable(sample_rate=0.0)
        with obs.span("root"):
            with obs.span("child"):
                with obs.span("grandchild"):
                    pass
        assert tracer.started == 1            # only the root counted

    def test_sampling_is_deterministic_under_a_seed(self):
        def decisions(seed):
            obs.enable(sample_rate=0.5, seed=seed)
            outcomes = []
            for __ in range(32):
                with obs.span("root") as root:
                    outcomes.append(root.recording)
            obs.disable()
            return outcomes

        first = decisions(7)
        assert decisions(7) == first
        assert 0 < sum(first) < 32            # rate .5 mixes both
        assert decisions(8) != first

    def test_rate_one_never_consults_the_rng(self):
        tracer = obs.enable(sample_rate=1.0)
        for __ in range(5):
            with obs.span("root"):
                pass
        assert tracer.sampled == 5

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            obs.enable(sample_rate=1.5)


class TestClocks:
    def test_virtual_time_recorded_when_a_clock_is_given(self):
        timeline = VirtualClock()
        obs.enable(clock=timeline)
        with obs.span("root") as root:
            timeline.advance(25.0)
        assert root.virtual_start == 0.0
        assert root.virtual_ms == 25.0
        assert root.wall_ms >= 0.0
        assert root.unix_start > 0.0          # epoch stamp always present

    def test_no_virtual_stamps_without_a_clock(self):
        obs.enable()
        with obs.span("root") as root:
            pass
        record = root.to_dict()
        assert "virtual_start" not in record
        assert "virtual_ms" not in record

    def test_to_dict_shape(self):
        timeline = VirtualClock()
        obs.enable(clock=timeline)
        with obs.span("root", organism="fly") as root:
            pass
        record = root.to_dict()
        assert record["trace"] == "t000001"
        assert record["span"] == "s000002"
        assert record["parent"] is None
        assert record["name"] == "root"
        assert record["status"] == "ok"
        assert record["attrs"] == {"organism": "fly"}


class TestCrossThreadPropagation:
    def test_worker_thread_parents_under_the_captured_span(self):
        tracer = obs.enable()
        seen = {}

        def worker(token):
            with obs.use_context(token):
                with obs.span("worker.task") as spn:
                    seen["span"] = spn

        with obs.span("root") as root:
            token = obs.capture_context()
            thread = threading.Thread(target=worker, args=(token,))
            thread.start()
            thread.join()
        child = seen["span"]
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        spans = tracer.traces[root.trace_id]
        assert {s.name for s in spans} == {"root", "worker.task"}

    def test_capture_without_a_tracer_is_inert(self):
        token = obs.capture_context()
        with obs.use_context(token):
            assert obs.span("anything") is NOOP_SPAN

    def test_worker_without_context_starts_its_own_root(self):
        tracer = obs.enable()
        with obs.span("root"):
            result = {}

            def worker():
                with obs.span("orphan") as spn:
                    result["span"] = spn

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # Without propagation the thread-local stack is empty, so the
        # worker's span is a root of its own trace — exactly what
        # capture_context/use_context exist to prevent.
        assert result["span"].parent_id is None
        assert result["span"].trace_id != "t000001"

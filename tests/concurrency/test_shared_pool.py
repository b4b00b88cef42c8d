"""One long-lived, process-wide executor under every ``ThreadedPool``.

A worker thread now outlives its batch, so these pin what used to be
true by construction: lanes never exceed ``max_workers``, results come
back in submission order, a failing task poisons nothing, the thread
count does not follow the number of mediators built, and a pooled
thread starts every job with an empty clock-track stack and no tracing
context of an earlier caller.
"""

import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.errors import ClockTrackError, ReproError
from repro.mediator import Mediator, RetryPolicy
from repro.mediator.pool import ThreadedPool, _shared_executor
from repro.sources import (
    AceRepository,
    EmblRepository,
    FaultyRepository,
    GenBankRepository,
    Universe,
    VirtualClock,
)
from repro.sources.faults import ClockTrack

WAIT = 30.0


class TestLanes:
    def test_never_more_in_flight_than_max_workers(self):
        lock = threading.Lock()
        both_running = threading.Barrier(2, timeout=WAIT)
        state = {"now": 0, "peak": 0}

        def task(index):
            def run():
                with lock:
                    state["now"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                if index < 2:
                    both_running.wait()   # two lanes really do overlap
                with lock:
                    state["now"] -= 1
                return index
            return run

        pool = ThreadedPool(2)
        assert pool.run([task(index) for index in range(6)]) == list(range(6))
        assert state == {"now": 0, "peak": 2}

    def test_results_in_submission_order_whatever_the_completion_order(self):
        finished = []
        last_done = threading.Event()

        def task(index):
            def run():
                if index == 0:
                    assert last_done.wait(WAIT)   # finish after the rest
                finished.append(index)
                if index == 3:
                    last_done.set()
                return f"result-{index}"
            return run

        results = ThreadedPool(2).run([task(index) for index in range(4)])
        assert finished == [1, 2, 3, 0]
        assert results == [f"result-{index}" for index in range(4)]

    def test_first_exception_surfaces_and_the_pool_stays_usable(self):
        ran = []

        def task(index):
            def run():
                ran.append(index)
                if index in (3, 5):
                    raise LookupError(f"task {index}")
                return index
            return run

        pool = ThreadedPool(3)
        with pytest.raises(LookupError, match="task 3"):
            pool.run([task(index) for index in range(7)])
        assert sorted(ran) == list(range(7))      # siblings still ran
        assert pool.run([task(index) for index in range(3)]) == [0, 1, 2]

    def test_one_task_runs_inline(self):
        caller = threading.current_thread()
        assert ThreadedPool(4).run([threading.current_thread]) == [caller]
        assert ThreadedPool(4).run([]) == []


def _mediator(seed, timeline=None, **options):
    universe = Universe(seed=seed, size=8)
    return Mediator([GenBankRepository(universe), EmblRepository(universe),
                     AceRepository(universe)], timeline=timeline, **options)


def test_thread_count_does_not_follow_mediators_built():
    _mediator(0).find_genes()                  # the executor exists by now
    settled = threading.active_count()
    for seed in range(200):
        mediator = _mediator(seed % 5)
        assert mediator.pool.parallel
        assert len(mediator.find_genes()) > 0
        del mediator
    assert threading.active_count() <= max(
        settled, 1 + _shared_executor()._max_workers)


def test_importing_repro_and_building_a_mediator_starts_no_thread():
    script = (
        "import threading, repro, repro.mediator, repro.serving\n"
        "from repro.mediator import Mediator\n"
        "from repro.sources import EmblRepository, GenBankRepository, "
        "Universe\n"
        "universe = Universe(seed=1, size=4)\n"
        "mediator = Mediator([GenBankRepository(universe), "
        "EmblRepository(universe)])\n"
        "print(threading.active_count())\n"
        "mediator.find_genes()\n"
        "print(threading.active_count())\n")
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          capture_output=True, timeout=60, check=True)
    before, after = map(int, done.stdout.split())
    assert before == 1 and after >= 1       # and the process exits


def _probe_every_pooled_thread(clock, tracer):
    """(thread name, open clock tracks, current span) as seen from each
    thread of the shared executor — a barrier as wide as the executor
    makes every one of them take exactly one probe."""
    executor = _shared_executor()
    together = threading.Barrier(executor._max_workers, timeout=WAIT)

    def probe():
        together.wait()
        return (threading.current_thread().name,
                len(clock._track_stack()), tracer.current())

    probes = [executor.submit(probe)
              for __ in range(executor._max_workers)]
    seen = [future.result(WAIT) for future in probes]
    assert len({name for name, __, ___ in seen}) == len(seen)
    return seen


class TestReusedThreadHygiene:
    def test_a_raising_job_leaves_clean_stacks_behind(self):
        clock = VirtualClock()
        pool = ThreadedPool(2)
        tracer = obs.enable(clock=clock)
        try:
            # Two jobs that meet at a barrier: one of them is certainly
            # on a pooled thread when it raises.
            together = threading.Barrier(2, timeout=WAIT)

            def failing():
                together.wait()
                track = clock.open_track()
                try:
                    with obs.span("doomed"):
                        clock.advance(5.0)
                        raise LookupError("inside a tracked, traced job")
                finally:
                    clock.close_track(track)

            with obs.span("first.caller"):
                with pytest.raises(LookupError):
                    pool.run([failing, failing])
            assert tracer.current() is None
            assert all(tracks == 0 and current is None for __, tracks, current
                       in _probe_every_pooled_thread(clock, tracer))

            def observing():
                together.wait()
                return len(clock._track_stack()), tracer.current()

            with obs.span("second.caller") as second:
                assert pool.run([observing, observing]) == [(0, second)] * 2
        finally:
            obs.disable()
        assert clock.now() == 0.0 and clock._track_stack() == []

    def test_second_query_parents_under_the_second_caller(self):
        timeline = VirtualClock()
        universe = Universe(seed=5, size=8)
        sources = [FaultyRepository(archetype(universe), timeline, seed=index)
                   for index, archetype in enumerate(
                       (GenBankRepository, EmblRepository, AceRepository))]
        mediator = Mediator(sources, RetryPolicy(max_attempts=1),
                            timeline=timeline)
        sources[1].fail_next(1, "query_accessions")   # raises in _timed_call
        sink = obs.InMemorySink()
        tracer = obs.enable(clock=timeline, sink=sink)
        try:
            with obs.span("first.caller"):
                assert mediator.find_genes().health.sources_failed == (
                    "EMBL",)
            with obs.span("second.caller"):
                assert mediator.find_genes().health.complete
        finally:
            obs.disable()
        assert [spans[-1]["name"] for spans in sink.traces] == [
            "first.caller", "second.caller"]
        for spans in sink.traces:
            assert len({span["trace"] for span in spans}) == 1
            ids = {span["span"] for span in spans}
            attempts = [span for span in spans
                        if span["name"] == "source.attempt"]
            assert len(attempts) == 3
            assert all(span["parent"] in ids for span in attempts)
        assert all(tracks == 0 and current is None for __, tracks, current
                   in _probe_every_pooled_thread(timeline, tracer))


class TestClockTrackError:
    def test_names_the_thread_and_the_track(self):
        clock = VirtualClock()
        outer = clock.open_track(2.0)
        inner = clock.open_track()
        with pytest.raises(ClockTrackError) as caught:
            clock.close_track(outer)
        error = caught.value
        assert isinstance(error, ReproError)
        assert isinstance(error, RuntimeError)     # what callers caught
        assert error.thread == threading.current_thread().name
        assert error.track is outer and error.open_tracks == 2
        assert error.thread in str(error) and "origin=2.0" in str(error)
        clock.close_track(inner)
        clock.close_track(outer)
        with pytest.raises(ClockTrackError) as caught:
            clock.close_track(ClockTrack(0.0))
        assert caught.value.open_tracks == 0

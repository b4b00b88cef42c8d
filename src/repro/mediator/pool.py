"""Bounded worker pools for concurrent mediator fan-out.

The mediator fans one job per source out over a pool.  Three pools
share the interface:

- :class:`SequentialPool` — the legacy baseline: jobs run inline, in
  order, on the caller's thread, advancing the shared virtual clock
  directly (summed per-source time);
- :class:`ThreadedPool` — ``max_workers`` lanes on one long-lived,
  process-wide executor; each job runs on its own
  :class:`~repro.sim.clock.ClockTrack`, and :func:`run_on_tracks` joins
  the tracks back into the shared clock with :func:`bounded_makespan`,
  so modelled latency reflects wall-clock under ``max_workers``-way
  parallelism;
- ``DeterministicPool`` (in ``tests/concurrency``) — runs jobs serially
  in a *seeded permutation* of submission order while still reporting
  ``parallel = True``, which makes every interleaving-sensitive code
  path replayable without threads.

A pool's :meth:`~WorkerPool.run` returns results **in submission
order** regardless of completion order — answer fusion stays
deterministic by construction.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.errors import MediatorError
from repro.obs.trace import capture_context, use_context

_T = TypeVar("_T")


def bounded_makespan(durations: Sequence[float], workers: int) -> float:
    """Virtual wall-clock of running *durations* on *workers* lanes.

    Greedy list scheduling in submission order — each job starts on the
    lane that frees up first, which is exactly how a bounded thread pool
    drains its queue.  With one lane this degenerates to ``sum()``; with
    ``workers >= len(durations)`` to ``max()``.
    """
    if not durations:
        return 0.0
    if workers >= len(durations):
        return max(durations)
    lanes = [0.0] * max(1, workers)
    for duration in durations:
        index = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[index] += duration
    return max(lanes)


def run_on_tracks(timeline, jobs: Sequence[Callable[[], _T]],
                  run: Callable[[Sequence[Callable[[], None]]], object] | None,
                  lanes: int) -> list[_T]:
    """Run *jobs* "in parallel" on the virtual clock; results in order.

    The one fork-join of virtual time: every job runs on a private
    track branched at the instant of the call — through *run* (a
    pool's ``run``), or with ``run=None`` inline, in order, on the
    caller's thread — tracks close LIFO on the thread that opened
    them, and the shared clock then advances by the
    :func:`bounded_makespan` of the per-job durations over *lanes*:
    their sum on one lane, their maximum on as many lanes as jobs.  A
    job that raises still closes its track; the error propagates and
    the shared clock is left where it was.
    """
    origin = timeline.now()
    durations = [0.0] * len(jobs)
    results: list = [None] * len(jobs)

    def task(index: int) -> None:
        track = timeline.open_track(origin)
        try:
            results[index] = jobs[index]()
        finally:
            durations[index] = timeline.close_track(track)

    if run is None:
        for index in range(len(jobs)):
            task(index)
    else:
        run([partial(task, index) for index in range(len(jobs))])
    makespan = bounded_makespan(durations, lanes)
    if makespan:
        timeline.advance(makespan)
    return results


class WorkerPool:
    """Interface: run a batch of thunks, return results in order."""

    #: Whether jobs may observe each other mid-flight (drives the
    #: mediator's decision to isolate each job on a clock track).
    parallel: bool = False
    #: Lane count used for the makespan join.
    max_workers: int = 1

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        raise NotImplementedError


class SequentialPool(WorkerPool):
    """Jobs run inline on the caller's thread, in submission order."""

    parallel = False
    max_workers = 1

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        return [task() for task in tasks]


_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def _shared_executor() -> ThreadPoolExecutor:
    """The executor every :class:`ThreadedPool` borrows threads from.

    Created by the first fan-out, never at import.  One per process, not
    one per pool: a live thread is a stack and a malloc arena (four
    shard mediators × three workers measured +8 % peak RSS), so their
    number must not follow the number of mediators built.  As wide as
    the machine has cores — the sources are simulated in-process.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1,
                thread_name_prefix="mediator-fanout")
        return _executor


class ThreadedPool(WorkerPool):
    """At most ``max_workers`` lanes, each taking the next task in
    submission order — the schedule :func:`bounded_makespan` models.

    The caller's thread is the first lane and the rest are borrowed
    from :func:`_shared_executor`; one that has not started when the
    batch is drained is cancelled, so a busy executor slows a batch
    down but cannot stall it, and there is no ``close()`` to forget.
    Tasks must not wait on one another: the width is a bound.
    """

    parallel = True

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise MediatorError("a worker pool needs at least one worker")
        self.max_workers = max_workers

    def run(self, tasks: Sequence[Callable[[], _T]]) -> list[_T]:
        if len(tasks) <= 1:
            return [task() for task in tasks]
        # Freeze the submitting thread's tracing context so spans opened
        # inside a worker parent under the caller's current span instead
        # of starting orphan traces of their own.
        context = capture_context()
        pending = deque(enumerate(tasks))
        results: list = [None] * len(tasks)
        errors: dict[int, BaseException] = {}

        def lane() -> None:
            while True:
                try:
                    index, task = pending.popleft()
                except IndexError:
                    return
                try:
                    with use_context(context):
                        results[index] = task()
                except BaseException as error:  # re-raised by the caller
                    errors[index] = error

        executor = _shared_executor()
        borrowed = [executor.submit(lane)
                    for __ in range(min(self.max_workers, len(tasks)) - 1)]
        lane()
        for future in borrowed:
            if not future.cancel():
                future.result()
        if errors:
            raise errors[min(errors)]
        return results

    def __repr__(self) -> str:
        return f"ThreadedPool(max_workers={self.max_workers})"

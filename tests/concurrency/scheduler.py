"""Deterministic scheduling shims for the concurrency test suite.

Races are only testable if they replay.  Two shims make every
interleaving-sensitive code path deterministic:

- :class:`DeterministicPool` — a drop-in
  :class:`~repro.mediator.pool.WorkerPool` that runs submitted jobs
  serially in a **seeded permutation** of submission order while still
  reporting ``parallel = True``, so the mediator opens clock tracks and
  joins with the makespan exactly as the threaded pool does.  Any
  fusion-order or shared-state bug that depends on completion order
  shows up at some seed, and that seed replays it forever.

- :class:`Interleaver` — step-level scheduling of cooperative tasks
  written as generators.  Each ``yield`` is an interleaving point; a
  seeded RNG (or an explicit schedule, or exhaustive
  :func:`all_interleavings`) decides which runnable task advances next.
  This is how breaker probe races and cache-invalidation-vs-read races
  are driven through *every* order, on one thread, with no sleeps.

The suite-wide seed comes from the ``REPRO_TEST_SEED`` environment
variable (default 0); CI runs the suite under several values.
"""

import os
import random

from repro.mediator.pool import WorkerPool

#: Environment variable that reseeds the whole concurrency suite.
SEED_ENV = "REPRO_TEST_SEED"


def harness_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


class DeterministicPool(WorkerPool):
    """Serial execution in a seeded permutation of submission order."""

    parallel = True

    def __init__(self, seed: int = 0, max_workers: int = 4) -> None:
        self.seed = seed
        self.max_workers = max_workers
        self._rng = random.Random(("deterministic-pool", seed).__repr__())
        self.orders: list[tuple[int, ...]] = []

    def run(self, tasks):
        order = list(range(len(tasks)))
        self._rng.shuffle(order)
        self.orders.append(tuple(order))
        results = [None] * len(tasks)
        for index in order:
            results[index] = tasks[index]()
        return results


class Interleaver:
    """Run generator tasks one step at a time in a controlled order.

    A task with *k* ``yield`` points takes *k + 1* scheduling steps
    (the final step runs it to completion).  ``schedule`` replays an
    explicit step order — entries naming finished or invalid tasks are
    skipped, so schedules produced by :func:`all_interleavings` for the
    nominal step counts always drive a run to completion.  The order
    actually executed is recorded in :attr:`ran`.
    """

    def __init__(self, seed: int = 0, schedule=None) -> None:
        self._rng = random.Random(("interleaver", seed).__repr__())
        self._schedule = list(schedule) if schedule is not None else None
        self.ran: list[int] = []

    def run(self, tasks) -> list[int]:
        active = {index: task for index, task in enumerate(tasks)}
        while active:
            index = self._pick(active)
            try:
                next(active[index])
            except StopIteration:
                del active[index]
            self.ran.append(index)
        return self.ran

    def _pick(self, active) -> int:
        if self._schedule is not None:
            while self._schedule:
                candidate = self._schedule.pop(0)
                if candidate in active:
                    return candidate
            return sorted(active)[0]
        return self._rng.choice(sorted(active))


def all_interleavings(steps_per_task):
    """Every order of task steps, as tuples of task indices.

    ``steps_per_task[i]`` is how many scheduling steps task *i* takes
    (yield points + 1).  The count of orders is the multinomial
    coefficient — keep the tasks small.
    """
    def orders(remaining):
        if not any(remaining):
            yield ()
            return
        for index, count in enumerate(remaining):
            if count:
                rest = list(remaining)
                rest[index] -= 1
                for tail in orders(rest):
                    yield (index,) + tail
    return orders(list(steps_per_task))


def sampled_interleavings(steps_per_task, count, seed):
    """*count* seeded-random orders out of :func:`all_interleavings`'s
    space (uniform, with repeats) — for task sets whose exhaustive walk
    is too long to pay on every run.  CI's seed matrix widens coverage.
    """
    rng = random.Random(("interleavings", seed).__repr__())
    steps = [index for index, steps_of_task in enumerate(steps_per_task)
             for __ in range(steps_of_task)]
    for __ in range(count):
        rng.shuffle(steps)
        yield tuple(steps)

"""The scheduler shims themselves must be deterministic and complete."""

from tests.concurrency.scheduler import (
    DeterministicPool,
    Interleaver,
    all_interleavings,
    sampled_interleavings,
)


class TestDeterministicPool:
    def test_results_come_back_in_submission_order(self, seed):
        pool = DeterministicPool(seed=seed)
        tasks = [lambda value=value: value * 10 for value in range(5)]
        assert pool.run(tasks) == [0, 10, 20, 30, 40]

    def test_same_seed_replays_the_same_orders(self, seed):
        first, second = (DeterministicPool(seed=seed) for __ in range(2))
        tasks = [lambda: None] * 6
        for __ in range(4):
            first.run(tasks)
            second.run(tasks)
        assert first.orders == second.orders

    def test_seeds_explore_different_orders(self):
        tasks = [lambda: None] * 6
        orders = set()
        for seed in range(8):
            pool = DeterministicPool(seed=seed)
            pool.run(tasks)
            orders.add(pool.orders[0])
        assert len(orders) > 1

    def test_reports_parallel_so_tracks_open(self):
        assert DeterministicPool().parallel


class TestInterleaver:
    @staticmethod
    def _task(log, label, steps):
        for step in range(steps):
            log.append((label, step))
            yield

    def test_explicit_schedule_is_followed(self):
        log = []
        tasks = [self._task(log, "a", 2), self._task(log, "b", 2)]
        Interleaver(schedule=[1, 0, 1, 0, 1, 0]).run(tasks)
        assert log == [("b", 0), ("a", 0), ("b", 1), ("a", 1)]

    def test_seeded_run_replays(self, seed):
        runs = []
        for __ in range(2):
            log = []
            tasks = [self._task(log, label, 3) for label in "abc"]
            Interleaver(seed=seed).run(tasks)
            runs.append(log)
        assert runs[0] == runs[1]

    def test_every_task_runs_to_completion(self, seed):
        log = []
        tasks = [self._task(log, label, 2) for label in "abcd"]
        Interleaver(seed=seed).run(tasks)
        assert sorted(log) == sorted((label, step)
                                     for label in "abcd" for step in (0, 1))

    def test_truncated_schedule_still_completes(self):
        log = []
        tasks = [self._task(log, "a", 3), self._task(log, "b", 3)]
        Interleaver(schedule=[1]).run(tasks)  # falls back after schedule ends
        assert len(log) == 6


class TestAllInterleavings:
    def test_counts_are_multinomial(self):
        assert len(list(all_interleavings([2, 2]))) == 6
        assert len(list(all_interleavings([1, 1, 1]))) == 6
        assert len(list(all_interleavings([3]))) == 1

    def test_each_order_consumes_every_step(self):
        for order in all_interleavings([2, 1, 2]):
            assert sorted(order) == [0, 0, 1, 2, 2]


class TestSampledInterleavings:
    def test_samples_are_seeded_orders_of_the_full_space(self, seed):
        space = set(all_interleavings([2, 1, 2]))
        first = list(sampled_interleavings([2, 1, 2], 50, seed))
        assert first == list(sampled_interleavings([2, 1, 2], 50, seed))
        assert first != list(sampled_interleavings([2, 1, 2], 50, seed + 1))
        assert len(first) == 50 and set(first) <= space
        assert len(set(first)) > len(space) // 2

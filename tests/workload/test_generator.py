"""The day-in-the-life generator: shape, skew, and determinism."""

import random

import pytest

from repro.errors import ReproError
from repro.serving.policy import INTERACTIVE, PRIORITY_NAMES
from repro.serving.server import REQUEST_KINDS
from repro.workload import (
    DiurnalPhase,
    MacroWorkload,
    ZipfSampler,
    day_in_the_life,
)
from tests.concurrency.scheduler import harness_seed

ACCESSIONS = [f"ACC{index:03d}" for index in range(40)]

SHORT_DAY = (
    DiurnalPhase("night", 1, 0.5),
    DiurnalPhase("peak", 2, 3.0),
    DiurnalPhase("evening", 1, 1.0),
)


def short_day(seed=None, **overrides):
    options = dict(users=50, phases=SHORT_DAY, epoch_length=20.0,
                   capacity=6, mean_service=3.0,
                   seed=harness_seed() if seed is None else seed)
    options.update(overrides)
    return day_in_the_life(ACCESSIONS, **options)


class TestDayShape:
    def test_one_epoch_entry_per_phase_epoch(self):
        workload = short_day()
        assert len(workload.epochs) == 4
        assert list(dict.fromkeys(epoch.phase for epoch in workload.epochs)) \
            == ["night", "peak", "evening"]
        assert [epoch.index for epoch in workload.epochs] == [0, 1, 2, 3]

    def test_arrivals_are_relative_and_inside_the_epoch(self):
        workload = short_day()
        for epoch in workload.epochs:
            for request in epoch.requests:
                assert 0.0 <= request.arrival < workload.epoch_length

    def test_load_factor_scales_the_offered_traffic(self):
        workload = short_day()
        by_phase = {}
        for epoch in workload.epochs:
            by_phase.setdefault(epoch.phase, []).append(
                len(epoch.requests))
        night = sum(by_phase["night"]) / len(by_phase["night"])
        peak = sum(by_phase["peak"]) / len(by_phase["peak"])
        # 6x the load factor; allow wide Poisson slop either side.
        assert peak > 2 * night

    def test_every_request_is_well_formed(self):
        workload = short_day()
        for epoch in workload.epochs:
            for request in epoch.requests:
                assert request.kind in REQUEST_KINDS
                assert request.priority in PRIORITY_NAMES
                assert request.label in workload.tenant_of
                if request.kind == "gene":
                    assert request.params["accession"] in ACCESSIONS
                elif request.kind == "genes":
                    assert set(request.params["accessions"]) <= \
                        set(ACCESSIONS)

    def test_tenants_keep_a_sticky_priority(self):
        workload = short_day()
        tenants = {tenant.uid: tenant.priority
                   for tenant in workload.tenants}
        for epoch in workload.epochs:
            for request in epoch.requests:
                uid = workload.tenant_of[request.label]
                assert request.priority == tenants[uid]

    def test_biql_statements_arrive_each_epoch(self):
        workload = short_day(biql_per_epoch=2)
        for epoch in workload.epochs:
            assert len(epoch.biql) == 2
            for text, priority in epoch.biql:
                assert text.startswith("FIND ")
                assert priority in PRIORITY_NAMES

    def test_counts_roll_up(self):
        workload = short_day()
        assert workload.total_requests == sum(
            len(epoch.requests) for epoch in workload.epochs)
        assert 0 < workload.active_tenants() <= 50
        assert isinstance(workload, MacroWorkload)


class TestDeterminism:
    def _fingerprint(self, workload):
        return [
            (epoch.index, epoch.phase,
             [(request.kind, tuple(sorted(request.params.items(),
                                          key=lambda kv: kv[0])),
               request.priority, request.arrival, request.label)
              for request in epoch.requests],
             list(epoch.biql))
            for epoch in workload.epochs
        ]

    def test_same_seed_same_day(self):
        seed = harness_seed()
        first = self._fingerprint(short_day(seed=seed))
        second = self._fingerprint(short_day(seed=seed))
        assert first == second

    def test_different_seed_different_day(self):
        seed = harness_seed()
        first = self._fingerprint(short_day(seed=seed))
        second = self._fingerprint(short_day(seed=seed + 1))
        assert first != second


class TestZipf:
    def test_head_dominates_the_tail(self):
        rng = random.Random(("zipf-test", harness_seed()).__repr__())
        sampler = ZipfSampler(ACCESSIONS, 1.1, rng)
        draws = [sampler.draw(rng) for __ in range(2000)]
        hot = set(sampler.ranked[:4])
        hot_share = sum(1 for accession in draws
                        if accession in hot) / len(draws)
        # 4 of 40 accessions (10%) should soak up way more than 10%.
        assert hot_share > 0.3

    def test_every_draw_is_in_the_population(self):
        rng = random.Random(("zipf-test", harness_seed()).__repr__())
        sampler = ZipfSampler(ACCESSIONS, 1.1, rng)
        assert all(sampler.draw(rng) in set(ACCESSIONS)
                   for __ in range(500))

    def test_ranking_is_a_permutation(self):
        rng = random.Random(("zipf-test", harness_seed()).__repr__())
        sampler = ZipfSampler(ACCESSIONS, 1.1, rng)
        assert sorted(sampler.ranked) == sorted(ACCESSIONS)


class TestValidation:
    def test_rejects_empty_population(self):
        with pytest.raises(ReproError):
            day_in_the_life([], users=10)

    def test_rejects_empty_day(self):
        with pytest.raises(ReproError):
            day_in_the_life(ACCESSIONS, phases=())

    def test_rejects_zero_users(self):
        with pytest.raises(ReproError):
            day_in_the_life(ACCESSIONS, users=0)

    def test_rejects_nonpositive_phase(self):
        with pytest.raises(ReproError):
            DiurnalPhase("broken", 0, 1.0)
        with pytest.raises(ReproError):
            DiurnalPhase("broken", 1, 0.0)

    def test_default_priority_exists(self):
        workload = short_day()
        assert any(tenant.priority == INTERACTIVE
                   for tenant in workload.tenants)

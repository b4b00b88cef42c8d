"""ServingPolicy: validation, the unprotected baseline, overrides."""

from dataclasses import replace

import pytest

from repro.errors import MediatorError
from repro.serving import ServingPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = ServingPolicy()
        assert policy.capacity == 4
        assert policy.admission_control

    @pytest.mark.parametrize("changes", [
        {"capacity": 0},
        {"queue_capacity": -1},
        {"aimd_min_limit": 0},
        {"aimd_backoff": 0.0},
        {"aimd_backoff": 1.0},
        {"hedge_quantile": 0.0},
        {"hedge_quantile": 1.0},
    ])
    def test_bad_knobs_raise(self, changes):
        with pytest.raises(MediatorError):
            ServingPolicy(**changes)

    def test_policy_is_frozen(self):
        with pytest.raises(Exception):
            ServingPolicy().capacity = 9


class TestMaxSourceLimit:
    def test_defaults_to_capacity(self):
        assert ServingPolicy(capacity=6).max_source_limit == 6

    def test_explicit_override_wins(self):
        policy = ServingPolicy(capacity=6, aimd_max_limit=2)
        assert policy.max_source_limit == 2


class TestUnprotected:
    def test_disables_every_mechanism(self):
        policy = ServingPolicy.unprotected(capacity=3, deadline=10.0)
        assert policy.capacity == 3
        assert policy.deadline == 10.0
        assert not policy.admission_control
        assert policy.retry_budget_ratio is None
        assert not policy.adaptive_concurrency
        assert not policy.hedging
        assert not policy.brownout
        # The queue must never reject in the baseline.
        assert policy.queue_capacity >= 10 ** 9


class TestOverrides:
    def test_replace_returns_new_policy(self):
        base = ServingPolicy()
        tweaked = replace(base, brownout=False, capacity=2)
        assert tweaked.capacity == 2 and not tweaked.brownout
        assert base.capacity == 4 and base.brownout

    def test_overrides_are_validated(self):
        with pytest.raises(MediatorError):
            replace(ServingPolicy(), capacity=0)

"""RetryBudget: earned retries, bounded bursts, honest denial counts."""

import pytest

from repro.serving import RetryBudget


class TestSpending:
    def test_burst_allows_initial_retries(self):
        budget = RetryBudget("GenBank", ratio=0.1, burst=3.0)
        assert [budget.try_spend() for __ in range(3)] == [True] * 3
        assert budget.try_spend() is False
        assert budget.spent == 3
        assert budget.denied == 1

    def test_drained_budget_refills_only_from_successes(self):
        budget = RetryBudget("GenBank", ratio=0.5, burst=1.0)
        assert budget.try_spend()
        assert not budget.try_spend()
        budget.record_success()          # +0.5 — still under one token
        assert not budget.try_spend()
        budget.record_success()          # +0.5 — one full token earned
        assert budget.try_spend()

    def test_long_run_ratio_holds(self):
        # 100 successes at ratio 0.1 earn ten retries past the burst.
        budget = RetryBudget("EMBL", ratio=0.1, burst=2.0)
        while budget.try_spend():
            pass
        for __ in range(100):
            budget.record_success()
        granted = 0
        while budget.try_spend():
            granted += 1
        assert granted == 2              # deposits are capped at burst
        assert budget.deposits == pytest.approx(2.0)


class TestCaps:
    def test_tokens_never_exceed_burst(self):
        budget = RetryBudget("AceDB", ratio=1.0, burst=2.0)
        for __ in range(10):
            budget.record_success()
        assert budget._tokens == pytest.approx(2.0)

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            RetryBudget("x", ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget("x", burst=0.5)

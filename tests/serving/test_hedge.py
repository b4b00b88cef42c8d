"""Hedger: trained delays, token-capped issue rate, win accounting."""

import pytest

from repro.serving import Hedger


class TestDelay:
    def test_silent_until_trained(self):
        hedger = Hedger("GenBank", min_observations=4)
        for __ in range(3):
            hedger.observe(1.0)
        assert hedger.hedge_delay() is None
        hedger.observe(1.0)
        assert hedger.hedge_delay() is not None

    def test_delay_is_the_tail_quantile_bound(self):
        hedger = Hedger("GenBank", quantile=0.95, min_observations=4)
        for __ in range(19):
            hedger.observe(1.0)
        hedger.observe(40.0)             # the 5% straggler
        delay = hedger.hedge_delay()
        # p95 sits in the fast mass: hedge only provably-tail calls.
        assert 1.0 <= delay < 40.0

    def test_off_scale_tail_disables_hedging(self):
        hedger = Hedger("GenBank", min_observations=2)
        hedger.observe(10_000.0)         # beyond the last bucket bound
        hedger.observe(10_000.0)
        assert hedger.hedge_delay() is None


class TestTokens:
    def test_burst_caps_consecutive_hedges(self):
        hedger = Hedger("GenBank", ratio=0.0, burst=2.0)
        assert hedger.try_issue()
        assert hedger.try_issue()
        assert not hedger.try_issue()
        assert hedger.issued == 2
        assert hedger.suppressed == 1

    def test_observations_earn_tokens_back(self):
        hedger = Hedger("GenBank", ratio=0.5, burst=2.0)
        while hedger.try_issue():
            pass
        hedger.observe(1.0)
        hedger.observe(1.0)              # two observations → one token
        assert hedger.try_issue()
        assert not hedger.try_issue()

    def test_tokens_capped_at_burst(self):
        hedger = Hedger("GenBank", ratio=1.0, burst=2.0)
        for __ in range(10):
            hedger.observe(1.0)
        assert hedger._tokens == pytest.approx(2.0)


class TestAccounting:
    def test_wins_are_counted(self):
        hedger = Hedger("GenBank")
        hedger.record_win()
        assert hedger.won == 1

    def test_bad_quantile_raises(self):
        with pytest.raises(ValueError):
            Hedger("GenBank", quantile=1.0)

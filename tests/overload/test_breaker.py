"""Circuit breaker state machine and retry policy units."""

import math

import pytest

from repro.overload import CircuitBreaker, RetryPolicy
from repro.overload.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerEntry,
    BreakerTable,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_stretch=1.0)

    def test_backoff_doubles_until_capped(self):
        policy = RetryPolicy(budget=5, backoff_base=0.5,
                             backoff_cap=4.0)
        window = 2.0
        assert policy.backoff_seconds(0, window) == pytest.approx(1.0)
        assert policy.backoff_seconds(1, window) == pytest.approx(2.0)
        assert policy.backoff_seconds(2, window) == pytest.approx(4.0)
        # 0.5 * 2**3 = 4.0 hits the cap; further attempts stay there.
        assert policy.backoff_seconds(3, window) == pytest.approx(8.0)
        assert policy.backoff_seconds(9, window) == pytest.approx(8.0)

    def test_default_timeout_stretch_is_infinite(self):
        assert RetryPolicy().timeout_stretch == math.inf


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_windows=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0)

    def test_closed_to_open_after_threshold(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=3))
        for i in range(2):
            breaker.record_failure("gpu0", float(i), window=1.0)
            assert breaker.state("gpu0") == CLOSED
        breaker.record_failure("gpu0", 2.0, window=1.0)
        assert breaker.state("gpu0") == OPEN
        assert breaker.trips == 1

    def test_open_rejects_until_cooldown(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=1,
                                              cooldown_s=10.0))
        breaker.record_failure("gpu0", 0.0, window=1.0)
        assert not breaker.allow("gpu0", 5.0)
        assert breaker.state("gpu0") == OPEN

    def test_half_open_probe_success_closes(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=1,
                                              cooldown_s=10.0))
        breaker.record_failure("gpu0", 0.0, window=1.0)
        # Cooldown elapsed: the next caller is the half-open probe.
        assert breaker.allow("gpu0", 10.0)
        assert breaker.state("gpu0") == HALF_OPEN
        breaker.record_success("gpu0")
        assert breaker.state("gpu0") == CLOSED
        assert breaker.trips == 1

    def test_half_open_probe_failure_reopens(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=3,
                                              cooldown_s=10.0))
        for i in range(3):
            breaker.record_failure("gpu0", float(i), window=1.0)
        assert breaker.allow("gpu0", 12.0)  # probe admitted
        breaker.record_failure("gpu0", 12.0, window=1.0)
        # A half-open failure trips immediately, threshold or not.
        assert breaker.state("gpu0") == OPEN
        assert breaker.trips == 2
        assert not breaker.allow("gpu0", 13.0)

    def test_success_resets_the_failure_streak(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=3))
        breaker.record_failure("gpu0", 0.0, window=1.0)
        breaker.record_failure("gpu0", 1.0, window=1.0)
        breaker.record_success("gpu0")
        breaker.record_failure("gpu0", 2.0, window=1.0)
        breaker.record_failure("gpu0", 3.0, window=1.0)
        assert breaker.state("gpu0") == CLOSED  # non-consecutive
        assert breaker.trips == 0

    def test_cooldown_scales_with_window(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=1,
                                              cooldown_windows=4.0))
        breaker.record_failure("gpu0", 0.0, window=0.5)
        assert not breaker.allow("gpu0", 1.9)
        assert breaker.allow("gpu0", 2.0)  # 4 windows x 0.5 s

    def test_devices_are_independent(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=1,
                                              cooldown_s=10.0))
        breaker.record_failure("gpu0", 0.0, window=1.0)
        assert not breaker.allow("gpu0", 1.0)
        assert breaker.allow("gpu1", 1.0)
        assert breaker.open_devices() == {"gpu0": 10.0}

    def test_repr_mentions_open_devices(self):
        breaker = BreakerTable(CircuitBreaker(failure_threshold=1,
                                              cooldown_s=5.0))
        breaker.record_failure("gpu1", 0.0, window=1.0)
        assert "gpu1" in repr(breaker)

    def test_table_round_trips_through_entries(self):
        """A table rebuilt from another's entries behaves the same:
        open devices stay open on the old clock, counted failures
        still count, and untouched closed devices are not kept."""
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0)
        first = BreakerTable(breaker)
        first.record_failure("gpu0", 1.0, window=1.0)
        first.record_failure("gpu0", 2.0, window=1.0)
        first.record_failure("gpu1", 3.0, window=1.0)
        assert first.allow("gpu2", 3.0)
        entries = first.entries()
        assert entries == (
            BreakerEntry("gpu0", OPEN, 0, 2.0, 10.0),
            BreakerEntry("gpu1", CLOSED, 1),
        )
        second = BreakerTable(breaker, entries)
        assert second.trips == 0
        assert not second.allow("gpu0", 11.9)
        second.record_failure("gpu1", 4.0, window=1.0)
        assert second.state("gpu1") == OPEN
        assert second.trips == 1

"""Admission controllers: token bucket and SLO feedback."""

import pytest

from repro.overload import (
    ControllerState,
    SLOFeedbackAdmission,
    TokenBucketAdmission,
)

START = ControllerState()


class _Report:
    """Minimal report stub: only .latency.p99 is observed."""

    class _Latency:
        def __init__(self, p99_s):
            self.p99 = p99_s

    def __init__(self, p99_ms):
        self.latency = self._Latency(p99_ms * 1e-3)


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketAdmission(rate_fraction=0.0)
        with pytest.raises(ValueError):
            TokenBucketAdmission(burst=0)

    def test_bucket_starts_full_then_rate_limits(self):
        bucket = TokenBucketAdmission(rate_fraction=0.5, burst=2)
        admit = bucket.gate(START, mean_batch_gap=1.0)
        # Burst capacity admits the first two back-to-back batches.
        assert admit(0.0)
        assert admit(0.0)
        assert not admit(0.0)
        # Refill at 0.5 tokens per mean gap: after 2 gaps one token.
        assert admit(2.0)
        assert not admit(2.0)

    def test_unit_rate_admits_offered_load(self):
        bucket = TokenBucketAdmission(rate_fraction=1.0, burst=4)
        admit = bucket.gate(START, mean_batch_gap=0.01)
        admitted = sum(admit(i * 0.01) for i in range(100))
        assert admitted == 100

    def test_half_rate_sheds_half_under_sustained_load(self):
        bucket = TokenBucketAdmission(rate_fraction=0.5, burst=1)
        # Integer arrivals are float-exact, so the refill pattern is
        # a clean admit-every-other cadence.
        admit = bucket.gate(START, mean_batch_gap=1.0)
        admitted = sum(admit(float(i)) for i in range(100))
        assert admitted == 50

    def test_each_run_starts_full(self):
        bucket = TokenBucketAdmission(rate_fraction=1.0, burst=1)
        first_admit = bucket.gate(START, mean_batch_gap=1.0)
        first = [first_admit(float(i)) for i in range(5)]
        second_admit = bucket.gate(START, mean_batch_gap=1.0)
        second = [second_admit(float(i)) for i in range(5)]
        assert first == second

    def test_observe_is_open_loop(self):
        bucket = TokenBucketAdmission()
        # Must not raise or shed.
        assert bucket.observe(START, _Report(p99_ms=1e9)) == START
        assert bucket.gate(START, 1.0)(0.0)

    def test_controllers_are_frozen_values(self):
        bucket = TokenBucketAdmission(rate_fraction=0.5, burst=2)
        assert bucket == TokenBucketAdmission(rate_fraction=0.5, burst=2)
        with pytest.raises(AttributeError):
            bucket.burst = 3


class TestSLOFeedback:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOFeedbackAdmission(p99_ms=0.0)
        with pytest.raises(ValueError):
            SLOFeedbackAdmission(p99_ms=1.0, backoff=1.0)
        with pytest.raises(ValueError):
            SLOFeedbackAdmission(p99_ms=1.0, min_fraction=0.0)
        with pytest.raises(ValueError):
            SLOFeedbackAdmission(p99_ms=1.0, healthy_epochs=0)

    def test_violation_backs_off_multiplicatively(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0, backoff=0.5)
        state = controller.observe(START, _Report(p99_ms=2.0))
        assert state.admitted_fraction == pytest.approx(0.5)
        state = controller.observe(state, _Report(p99_ms=2.0))
        assert state.admitted_fraction == pytest.approx(0.25)

    def test_backoff_floors_at_min_fraction(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0, backoff=0.1,
                                          min_fraction=0.2)
        state = START
        for _ in range(10):
            state = controller.observe(state, _Report(p99_ms=5.0))
        assert state.admitted_fraction == pytest.approx(0.2)

    def test_recovery_is_hysteretic(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0, backoff=0.5,
                                          recover_step=0.1,
                                          healthy_epochs=2)
        state = controller.observe(START, _Report(p99_ms=2.0))
        assert state.admitted_fraction == pytest.approx(0.5)
        # One healthy epoch is not enough to recover...
        state = controller.observe(state, _Report(p99_ms=0.5))
        assert state.admitted_fraction == pytest.approx(0.5)
        assert state.healthy_streak == 1
        # ...two consecutive healthy epochs step the fraction back up.
        state = controller.observe(state, _Report(p99_ms=0.5))
        assert state.admitted_fraction == pytest.approx(0.6)
        assert state.healthy_streak == 0

    def test_violation_resets_the_healthy_streak(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0, backoff=0.5,
                                          recover_step=0.1,
                                          healthy_epochs=2)
        state = START
        for p99_ms in (2.0, 0.5, 2.0, 0.5):  # the second 2.0 breaks
            state = controller.observe(state, _Report(p99_ms=p99_ms))
        assert state.admitted_fraction == pytest.approx(0.25)

    def test_error_diffusion_admits_exact_share(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0)
        admit = controller.gate(ControllerState(admitted_fraction=0.25),
                               1.0)
        decisions = [admit(float(i)) for i in range(100)]
        assert sum(decisions) == 25
        # Admissions are spread evenly, not front-loaded.
        assert decisions[:8] == [False, False, False, True] * 2

    def test_diffusion_is_deterministic_across_runs(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0)
        state = ControllerState(admitted_fraction=0.3)
        first_admit = controller.gate(state, 1.0)
        first = [first_admit(float(i)) for i in range(50)]
        # Each run's accumulator starts at zero; the fraction stays.
        second_admit = controller.gate(state, 1.0)
        second = [second_admit(float(i)) for i in range(50)]
        assert first == second

    def test_full_fraction_admits_everything(self):
        admit = SLOFeedbackAdmission(p99_ms=1.0).gate(START, 1.0)
        assert all(admit(float(i)) for i in range(64))

    def test_observe_leaves_its_input_state_unchanged(self):
        controller = SLOFeedbackAdmission(p99_ms=1.0, backoff=0.5)
        state = ControllerState(admitted_fraction=0.8, healthy_streak=1)
        after = controller.observe(state, _Report(p99_ms=2.0))
        assert state == ControllerState(admitted_fraction=0.8,
                                        healthy_streak=1)
        assert after == ControllerState(admitted_fraction=0.4)

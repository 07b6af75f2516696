"""Unit tests of the overload-protection primitives: the retry token
bucket, the AIMD concurrency limiter, the admission controller's
shed/deadline/readiness protocol, and the env-var knob resolvers.

Every class takes an injectable clock, so refill, deadline and readiness
arithmetic is tested deterministically — no sleeps, no wall time."""

import pytest

from repro.engine.admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionController,
    TokenBucket,
    resolve_adaptive_limit,
    resolve_queue_capacity,
    resolve_retry_budget,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_spends_down_to_zero_then_denies(self):
        clock = FakeClock()
        bucket = TokenBucket(3, refill_per_second=0, clock=clock)
        assert [bucket.try_spend() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.spent == 3 and bucket.denied == 1

    def test_refills_continuously_and_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(10, refill_per_second=2, clock=clock)
        for _ in range(10):
            assert bucket.try_spend()
        assert not bucket.try_spend()
        clock.advance(1.0)  # 2 tokens back
        assert bucket.tokens == pytest.approx(2.0)
        assert bucket.try_spend() and bucket.try_spend()
        assert not bucket.try_spend()
        clock.advance(1000.0)  # refill never overshoots capacity
        assert bucket.tokens == pytest.approx(10.0)

    def test_render_and_validation(self):
        clock = FakeClock()
        bucket = TokenBucket(4, 1, clock=clock)
        assert "tokens=4.0/4" in bucket.render()
        with pytest.raises(ValueError):
            TokenBucket(0, 1)


class TestAdaptiveConcurrencyLimiter:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(
            max_limit=8, window=4, target_latency=0.010, clock=clock
        )
        defaults.update(kwargs)
        return AdaptiveConcurrencyLimiter(**defaults), clock

    def test_degraded_window_shrinks_multiplicatively(self):
        limiter, _ = self.make()
        assert limiter.limit == 8 and not limiter.degraded
        for _ in range(4):  # p99 = 50ms >> 2 * 10ms target
            limiter.observe(0.050)
        assert limiter.limit == 4 and limiter.degraded
        assert limiter.decreases == 1
        for _ in range(4):
            limiter.observe(0.050)
        assert limiter.limit == 2

    def test_healthy_windows_regrow_additively(self):
        limiter, _ = self.make()
        for _ in range(8):
            limiter.observe(0.050)
        assert limiter.limit == 2
        for _ in range(4):  # healthy window: p99 within 2x target
            limiter.observe(0.005)
        assert limiter.limit == 3
        for _ in range(5 * 4):
            limiter.observe(0.005)
        assert limiter.limit == 8  # recovered, capped at max
        assert not limiter.degraded

    def test_never_leaves_min_max_bounds(self):
        limiter, _ = self.make(min_limit=2)
        for _ in range(100):
            limiter.observe(1.0)
        assert limiter.limit == 2

    def test_learned_baseline_without_target(self):
        limiter, _ = self.make(target_latency=None)
        for _ in range(4):  # the best window seen becomes the baseline
            limiter.observe(0.010)
        assert limiter.limit == 8
        for _ in range(4):  # 5x the learned baseline: degrade
            limiter.observe(0.050)
        assert limiter.limit == 4

    def test_acquire_blocks_at_limit_and_times_out(self):
        # the acquire timeout is measured on the limiter's clock, so this
        # test needs the real monotonic clock, not the frozen fake
        limiter = AdaptiveConcurrencyLimiter(
            2, min_limit=1, window=4, target_latency=None
        )
        assert limiter.acquire() and limiter.acquire()
        assert limiter.inflight == 2
        assert not limiter.acquire(timeout=0.01)  # full: times out
        limiter.release()
        assert limiter.acquire(timeout=0.01)
        for _ in range(2):
            limiter.release()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(0)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(2, min_limit=3)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(2, decrease_factor=1.5)


class TestAdmissionController:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(queue_capacity=2, clock=clock)
        defaults.update(kwargs)
        return AdmissionController(**defaults), clock

    def test_bounded_queue_sheds_when_full(self):
        controller, _ = self.make()
        assert controller.try_admit().admitted
        assert controller.try_admit().admitted
        decision = controller.try_admit()
        assert not decision.admitted and decision.reason == "queue_full"
        assert controller.depth == 2
        assert controller.admitted == 2 and controller.shed == 1

    def test_started_decrements_depth_and_learns_wait(self):
        controller, clock = self.make()
        controller.try_admit()
        queued_at = clock()
        clock.advance(0.2)
        wait = controller.started(queued_at)
        assert wait == pytest.approx(0.2)
        assert controller.depth == 0
        assert controller.wait_estimate == pytest.approx(0.2)

    def test_deadline_shed_uses_wait_estimate(self):
        controller, clock = self.make(queue_capacity=100)
        controller.try_admit()
        clock.advance(0.5)
        controller.started(clock() - 0.5)  # EWMA wait ~= 0.5s
        # remaining deadline (0.1s) < observed wait (0.5s): shed now
        decision = controller.try_admit(deadline=clock() + 0.1)
        assert not decision.admitted and decision.reason == "deadline"
        assert decision.wait_estimate == pytest.approx(0.5)
        # a roomy deadline clears the estimate comfortably: admitted
        assert controller.try_admit(deadline=clock() + 10.0).admitted

    def test_background_has_smaller_share(self):
        controller, _ = self.make(queue_capacity=4, background_share=0.5)
        assert controller.try_admit("background").admitted
        assert controller.try_admit("background").admitted
        decision = controller.try_admit("background")
        assert not decision.admitted and decision.reason == "queue_full"
        # interactive still has room up to the full capacity
        assert controller.try_admit("interactive").admitted

    def test_background_shed_first_under_degraded_limiter(self):
        clock = FakeClock()
        limiter = AdaptiveConcurrencyLimiter(
            4, window=2, target_latency=0.01, clock=clock
        )
        controller = AdmissionController(
            queue_capacity=100, limiter=limiter, clock=clock
        )
        assert controller.try_admit("background").admitted
        for _ in range(2):
            limiter.observe(0.5)  # degrade
        assert limiter.degraded
        decision = controller.try_admit("background")
        assert not decision.admitted and decision.reason == "background_shed"
        assert controller.try_admit("interactive").admitted

    def test_cancelled_unwinds_depth(self):
        controller, _ = self.make()
        controller.try_admit()
        controller.cancelled()
        assert controller.depth == 0

    def test_unknown_priority_rejected(self):
        controller, _ = self.make()
        with pytest.raises(ValueError):
            controller.try_admit("batch")

    def test_readiness_flips_under_sustained_shed_and_recovers(self):
        controller, clock = self.make(
            queue_capacity=1, ready_min_samples=4, ready_horizon=60.0
        )
        assert controller.ready()  # too few samples: optimistic
        controller.try_admit()
        for _ in range(6):  # queue pinned full: everything sheds
            assert not controller.try_admit().admitted
        assert not controller.ready()
        controller.started(clock())  # drain the queue
        for _ in range(12):  # accepted traffic dilutes the window
            assert controller.try_admit().admitted
            controller.started(clock())
        assert controller.ready()
        assert "admitted=" in controller.render()

    def test_note_shed_counts_into_readiness(self):
        controller, _ = self.make(ready_min_samples=2)
        for _ in range(4):
            controller.note_shed()
        assert not controller.ready()
        assert controller.shed == 4


class TestEnvResolvers:
    def test_queue_capacity(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_CAPACITY", raising=False)
        assert resolve_queue_capacity(None, 4) == 64
        assert resolve_queue_capacity(None, 16) == 256
        assert resolve_queue_capacity(7, 4) == 7
        monkeypatch.setenv("REPRO_QUEUE_CAPACITY", "12")
        assert resolve_queue_capacity(None, 4) == 12
        with pytest.raises(ValueError):
            resolve_queue_capacity(0, 4)

    def test_adaptive_limit(self, monkeypatch):
        monkeypatch.delenv("REPRO_ADAPTIVE_LIMIT", raising=False)
        assert resolve_adaptive_limit(None) is True
        assert resolve_adaptive_limit(False) is False
        monkeypatch.setenv("REPRO_ADAPTIVE_LIMIT", "off")
        assert resolve_adaptive_limit(None) is False
        assert resolve_adaptive_limit(True) is True  # explicit wins

    def test_retry_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRY_BUDGET", raising=False)
        monkeypatch.delenv("REPRO_RETRY_REFILL", raising=False)
        assert resolve_retry_budget(None, None) == (256.0, 64.0)
        monkeypatch.setenv("REPRO_RETRY_BUDGET", "8")
        monkeypatch.setenv("REPRO_RETRY_REFILL", "0.5")
        assert resolve_retry_budget(None, None) == (8.0, 0.5)
        with pytest.raises(ValueError):
            resolve_retry_budget(0, None)
        with pytest.raises(ValueError):
            resolve_retry_budget(None, -1)

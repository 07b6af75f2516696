"""Unit tests of the overload-protection primitives: the admission
controller's shed/deadline/readiness protocol and the queue-capacity
env-var resolver.

The controller takes an injectable clock, so deadline and readiness
arithmetic is tested deterministically — no sleeps, no wall time."""

import pytest

from repro.engine.admission import AdmissionController, resolve_queue_capacity


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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

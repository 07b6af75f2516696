"""Overload protection primitives: admission control and a prompt-exit
guard.

Circuit breakers and rewriting-based fallback let the engine *degrade*
under storage faults; this module extends the same protocol to **load**
faults.  The serving layer must fail partially and predictably when
offered more work than it has capacity for — shed early and typed, never
time out late after burning a worker slot.  Two primitives, composed by
:class:`~repro.core.service.QueryService` in front of one fixed worker
pool:

* :class:`AdmissionController` — a bounded admission queue with
  deadline-aware shedding: a query whose remaining deadline cannot cover
  the *observed* queue wait (an EWMA over recent dequeues) is rejected
  at submit time with :class:`~repro.errors.QueryRejected` instead of
  queuing toward a guaranteed timeout.  Two priority classes
  (``interactive`` and ``background``) share the queue; background work
  gets a smaller share of it, so it is shed first.  The controller also
  answers the service's **readiness** question: a sustained shed rate
  over the recent decision window flips ``/health/ready`` to 503 until
  accepted work dilutes it.
* :func:`guard_exit` — a process-exit guard: ``ThreadPoolExecutor``
  threads are non-daemon and joined at interpreter shutdown, so a
  saturated pool would hang ``SIGTERM`` exits.  Guarded services are
  cancelled (cooperative stop flags + ``cancel_futures``) by a normal
  ``atexit`` hook, which runs *before* ``concurrent.futures`` joins its
  workers — exits stay prompt without resorting to daemon threads that
  could tear a query log mid-write.

Everything is standard library and engine-layer only (no core imports);
the queue bound resolves through an environment variable so ``serve``
deployments can be tuned without code changes.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "guard_exit",
    "resolve_queue_capacity",
    "QUEUE_CAPACITY_ENV_VAR",
    "PRIORITIES",
]

#: admission priority classes, shed in reverse order (background first)
PRIORITIES = ("interactive", "background")

#: environment knob for the queue bound (``repro serve --queue-capacity``
#: overrides it)
QUEUE_CAPACITY_ENV_VAR = "REPRO_QUEUE_CAPACITY"


def resolve_queue_capacity(value: Optional[int], max_workers: int) -> int:
    """Admission queue bound (``None`` → ``$REPRO_QUEUE_CAPACITY`` → a
    generous ``max(64, 16 × workers)`` default that existing batch
    workloads never hit; overload deployments tune it down)."""
    if value is None:
        env = os.environ.get(QUEUE_CAPACITY_ENV_VAR)
        value = int(env) if env else max(64, 16 * max_workers)
    value = int(value)
    if value < 1:
        raise ValueError(f"admission queue capacity must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Admission control (bounded queue, deadline-aware shed, readiness)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admitted: bool
    reason: str  #: "ok" | "queue_full" | "deadline"
    priority: str
    queue_depth: int
    #: the wait estimate used for the deadline check — doubles as the
    #: retry-after hint of a rejection
    wait_estimate: float


class AdmissionController:
    """Bounded admission with deadline-aware shedding and readiness.

    The controller does not own a queue — the worker pool's is the real
    one — it *accounts* for it: ``try_admit`` (caller thread, before the
    pool submit) bounds the depth and predicts the wait; ``started``
    (worker thread, at pickup) measures the actual wait into an EWMA;
    ``cancelled`` unwinds a queued entry whose future was cancelled
    before a worker ever ran it.

    The shed-before-timeout invariant: when a deadline is supplied and
    ``now + EWMA(queue wait) >= deadline``, the query is rejected *now*,
    with the estimate as its retry-after hint — a guaranteed-late query
    must not consume the slot a viable one could use.

    Readiness is a sliding window over admission decisions: shed
    fraction ≥ ``ready_shed_threshold`` within the last ``ready_horizon``
    seconds (given at least ``ready_min_samples`` decisions) reports not
    ready.  Accepted work dilutes the window, so readiness recovers as
    soon as the service is genuinely keeping up again.
    """

    def __init__(
        self,
        queue_capacity: int,
        background_share: float = 0.5,
        wait_smoothing: float = 0.3,
        ready_shed_threshold: float = 0.5,
        ready_window: int = 32,
        ready_min_samples: int = 4,
        ready_horizon: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if queue_capacity < 1:
            raise ValueError("admission queue capacity must be >= 1")
        if not 0.0 < background_share <= 1.0:
            raise ValueError("background share must be in (0, 1]")
        self.queue_capacity = queue_capacity
        self.background_share = background_share
        self.ready_shed_threshold = ready_shed_threshold
        self.ready_min_samples = ready_min_samples
        self.ready_horizon = ready_horizon
        self._wait_smoothing = wait_smoothing
        self._clock = clock
        self._lock = threading.Lock()
        self._depth = 0
        self._wait_ewma: Optional[float] = None
        self._outcomes: deque[tuple[float, bool]] = deque(maxlen=ready_window)
        #: lifetime totals, mirrored into metrics by the owning service
        self.admitted = 0
        self.shed = 0

    # -- the admission decision ---------------------------------------------

    def try_admit(
        self, priority: str = "interactive", deadline: Optional[float] = None
    ) -> AdmissionDecision:
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}: expected one of {PRIORITIES}"
            )
        now = self._clock()
        with self._lock:
            estimate = self._wait_ewma or 0.0
            capacity = self.queue_capacity
            if priority == "background":
                capacity = max(1, int(capacity * self.background_share))
            reason = "ok"
            if self._depth >= capacity:
                reason = "queue_full"
            elif deadline is not None and now + estimate >= deadline:
                reason = "deadline"
            if reason != "ok":
                self.shed += 1
                self._outcomes.append((now, True))
                return AdmissionDecision(
                    False, reason, priority, self._depth, estimate
                )
            self._depth += 1
            self.admitted += 1
            self._outcomes.append((now, False))
            return AdmissionDecision(
                True, "ok", priority, self._depth, estimate
            )

    # -- worker-side accounting ---------------------------------------------

    def started(self, queued_at: float) -> float:
        """A worker picked an admitted query up; returns the measured
        queue wait and folds it into the EWMA the deadline check uses."""
        wait = max(0.0, self._clock() - queued_at)
        with self._lock:
            self._depth = max(0, self._depth - 1)
            if self._wait_ewma is None:
                self._wait_ewma = wait
            else:
                alpha = self._wait_smoothing
                self._wait_ewma = alpha * wait + (1 - alpha) * self._wait_ewma
        return wait

    def cancelled(self) -> None:
        """An admitted query's future was cancelled while still queued —
        unwind the depth accounting (no wait sample: it never ran)."""
        with self._lock:
            self._depth = max(0, self._depth - 1)

    def note_shed(self) -> None:
        """Record a shed that happened *after* admission (a deadline
        that expired while the query sat queued) into the readiness
        window."""
        with self._lock:
            self.shed += 1
            self._outcomes.append((self._clock(), True))

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def wait_estimate(self) -> float:
        with self._lock:
            return self._wait_ewma or 0.0

    def ready(self) -> bool:
        """False while the recent decision window shows sustained shed."""
        now = self._clock()
        with self._lock:
            recent = [
                was_shed
                for ts, was_shed in self._outcomes
                if now - ts <= self.ready_horizon
            ]
            if len(recent) < self.ready_min_samples:
                return True
            fraction = sum(recent) / len(recent)
            return fraction < self.ready_shed_threshold

    def render(self) -> str:
        return (
            f"depth={self.depth}/{self.queue_capacity} "
            f"wait~{self.wait_estimate * 1000:.2f}ms "
            f"admitted={self.admitted} shed={self.shed} "
            f"ready={'yes' if self.ready() else 'NO'}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdmissionController {self.render()}>"


# ---------------------------------------------------------------------------
# Prompt-exit guard
# ---------------------------------------------------------------------------

#: object → shutdown callable (unbound, so the registry never keeps a
#: guarded service alive); drained by one atexit hook, which Python runs
#: *before* threading's shutdown joins non-daemon pool workers
_GUARDED: "weakref.WeakKeyDictionary[object, Callable[[object], None]]" = (
    weakref.WeakKeyDictionary()
)
_GUARD_LOCK = threading.Lock()


def guard_exit(obj: object, shutdown: Callable[[object], None]) -> None:
    """Arrange for ``shutdown(obj)`` to run at interpreter exit (unless
    ``obj`` was garbage-collected first).  ``shutdown`` must be an
    unbound callable — typically the class's shutdown method — so the
    guard holds no strong reference to ``obj``."""
    with _GUARD_LOCK:
        _GUARDED[obj] = shutdown


@atexit.register
def _drain_exit_guards() -> None:  # pragma: no cover - interpreter exit
    with _GUARD_LOCK:
        survivors = list(_GUARDED.items())
    for obj, shutdown in survivors:
        try:
            shutdown(obj)
        except Exception:
            pass  # exiting: nothing useful left to do with a failure

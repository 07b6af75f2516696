"""Overload protection primitives: admission control, adaptive
concurrency, retry budgets.

PR 3 taught the engine to *degrade* under storage faults (breakers,
rewriting-based fallback); this module extends the same protocol to
**load** faults.  The serving layer must fail partially and predictably
when offered more work than it has capacity for — shed early and typed,
never time out late after burning a worker slot, and never let recovery
mechanisms (retries) amplify the very storm they are recovering from.
Four primitives, composed by :class:`~repro.core.service.QueryService`:

* :class:`AdmissionController` — a bounded admission queue with
  deadline-aware shedding: a query whose remaining deadline cannot cover
  the *observed* queue wait (an EWMA over recent dequeues) is rejected
  at submit time with :class:`~repro.errors.QueryRejected` instead of
  queuing toward a guaranteed timeout.  Two priority classes
  (``interactive`` and ``background``) share the queue; background work
  gets a smaller share and is shed first when the limiter is degraded.
  The controller also answers the service's **readiness** question: a
  sustained shed rate over the recent decision window flips
  ``/health/ready`` to 503 until accepted work dilutes it.
* :class:`AdaptiveConcurrencyLimiter` — AIMD on windowed p99 latency:
  when the p99 of the last ``window`` executions exceeds
  ``degrade_factor`` × the healthy baseline (explicit ``target_latency``
  or the best windowed p99 seen), the effective concurrency limit is cut
  multiplicatively; healthy windows grow it back additively.  Worker
  threads above the limit block in :meth:`~AdaptiveConcurrencyLimiter.
  acquire`, so a degrading backend is offered *less* concurrency exactly
  when more would hurt.
* :class:`TokenBucket` — the shared retry budget: per-query retries
  spend from one bucket, so a breaker-open storm across many concurrent
  queries cannot multiply load when capacity is lowest.  An empty bucket
  converts retries into an immediate degraded fallback (see
  ``QueryService._execute_with_retries``).
* :func:`guard_exit` — a process-exit guard: ``ThreadPoolExecutor``
  threads are non-daemon and joined at interpreter shutdown, so a
  saturated pool would hang ``SIGTERM`` exits.  Guarded services are
  cancelled (cooperative stop flags + ``cancel_futures``) by a normal
  ``atexit`` hook, which runs *before* ``concurrent.futures`` joins its
  workers — exits stay prompt without resorting to daemon threads that
  could tear a query log mid-write.

Everything is standard library and engine-layer only (no core imports),
and every knob resolves through an environment variable so ``serve``
deployments can be tuned without code changes.
"""

from __future__ import annotations

import atexit
import math
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
    "AdaptiveConcurrencyLimiter",
    "TokenBucket",
    "guard_exit",
    "resolve_queue_capacity",
    "resolve_adaptive_limit",
    "resolve_retry_budget",
    "QUEUE_CAPACITY_ENV_VAR",
    "ADAPTIVE_LIMIT_ENV_VAR",
    "RETRY_BUDGET_ENV_VAR",
    "RETRY_REFILL_ENV_VAR",
    "PRIORITIES",
]

#: admission priority classes, shed in reverse order (background first)
PRIORITIES = ("interactive", "background")

#: environment knobs — every admission parameter is deployable without a
#: code change (``repro serve`` flags override these)
QUEUE_CAPACITY_ENV_VAR = "REPRO_QUEUE_CAPACITY"
ADAPTIVE_LIMIT_ENV_VAR = "REPRO_ADAPTIVE_LIMIT"
RETRY_BUDGET_ENV_VAR = "REPRO_RETRY_BUDGET"
RETRY_REFILL_ENV_VAR = "REPRO_RETRY_REFILL"


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


def resolve_adaptive_limit(value: Optional[bool]) -> bool:
    """Whether the adaptive concurrency limiter is on (``None`` →
    ``$REPRO_ADAPTIVE_LIMIT`` → on)."""
    if value is not None:
        return bool(value)
    env = os.environ.get(ADAPTIVE_LIMIT_ENV_VAR)
    if env is None or env == "":
        return True
    return env.lower() not in ("0", "false", "no", "off")


def resolve_retry_budget(
    capacity: Optional[float], refill: Optional[float]
) -> tuple[float, float]:
    """``(capacity, refill per second)`` of the shared retry budget
    (``None`` → env vars → 256 tokens refilling at 64/s — effectively
    unlimited for a healthy workload, hard-bounded under a fault storm)."""
    if capacity is None:
        env = os.environ.get(RETRY_BUDGET_ENV_VAR)
        capacity = float(env) if env else 256.0
    if refill is None:
        env = os.environ.get(RETRY_REFILL_ENV_VAR)
        refill = float(env) if env else 64.0
    if capacity < 1:
        raise ValueError(f"retry budget capacity must be >= 1, got {capacity}")
    if refill < 0:
        raise ValueError(f"retry budget refill must be >= 0, got {refill}")
    return float(capacity), float(refill)


# ---------------------------------------------------------------------------
# Token bucket (the shared retry budget)
# ---------------------------------------------------------------------------


class TokenBucket:
    """A thread-safe token bucket with continuous refill.

    ``try_spend`` never blocks: overload protection must not add waiting
    to the hot path — a caller that cannot afford the spend takes its
    fallback immediately.  ``clock`` is injectable so tests drive refill
    deterministically.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_second: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError("token bucket capacity must be > 0")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()
        #: lifetime totals, mirrored into metrics by the owning service
        self.spent = 0
        self.denied = 0

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        if self.refill_per_second > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_second
            )

    def try_spend(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False (without waiting) if not."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.spent += 1
                return True
            self.denied += 1
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens

    def render(self) -> str:
        return (
            f"tokens={self.tokens:.1f}/{self.capacity:g} "
            f"refill={self.refill_per_second:g}/s "
            f"spent={self.spent} denied={self.denied}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TokenBucket {self.render()}>"


# ---------------------------------------------------------------------------
# Adaptive concurrency (AIMD on windowed p99)
# ---------------------------------------------------------------------------


class AdaptiveConcurrencyLimiter:
    """AIMD concurrency limit driven by latency percentiles.

    Worker threads call :meth:`acquire` before executing and
    :meth:`release` after; completions feed :meth:`observe` with their
    *execution* latency.  Every ``window`` observations the windowed p99
    is evaluated against the healthy baseline (``target_latency`` when
    given, else the best windowed p99 seen so far, the classic
    gradient-style self-calibration): degraded windows cut the limit
    multiplicatively (``decrease_factor``), healthy windows grow it
    additively (``increase_step``) — the same asymmetry TCP uses, because
    overshooting capacity is much more expensive than undershooting it.

    The limit never leaves ``[min_limit, max_limit]``; with the limiter
    disabled the service simply never constructs one.
    """

    def __init__(
        self,
        max_limit: int,
        min_limit: int = 1,
        window: int = 16,
        degrade_factor: float = 2.0,
        decrease_factor: float = 0.5,
        increase_step: float = 1.0,
        target_latency: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_limit < 1:
            raise ValueError("max concurrency limit must be >= 1")
        if not 1 <= min_limit <= max_limit:
            raise ValueError("need 1 <= min_limit <= max_limit")
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError("decrease factor must be in (0, 1)")
        self.max_limit = max_limit
        self.min_limit = min_limit
        self.window = max(2, int(window))
        self.degrade_factor = degrade_factor
        self.decrease_factor = decrease_factor
        self.increase_step = increase_step
        self.target_latency = target_latency
        self._clock = clock
        self._limit = float(max_limit)
        self._inflight = 0
        self._cond = threading.Condition()
        #: FIFO ticket gate: only the oldest waiter may take a freed slot,
        #: so a shrunken limit degrades every caller evenly instead of
        #: starving unlucky threads into huge latency tails
        self._next_ticket = 0
        self._serving = 0
        self._abandoned: set[int] = set()
        self._samples: list[float] = []
        self._best_p99: Optional[float] = None
        #: lifetime transition counts, mirrored into metrics
        self.decreases = 0
        self.increases = 0

    # -- observation --------------------------------------------------------

    def observe(self, seconds: float) -> None:
        """Feed one completed execution's latency; evaluates (and may
        re-size the limit) once per full window."""
        with self._cond:
            self._samples.append(seconds)
            if len(self._samples) < self.window:
                return
            ordered = sorted(self._samples)
            self._samples = []
            rank = math.ceil(0.99 * len(ordered))
            p99 = ordered[min(len(ordered) - 1, max(0, rank - 1))]
            baseline = self.target_latency
            if baseline is None:
                if self._best_p99 is None or p99 < self._best_p99:
                    self._best_p99 = p99
                baseline = self._best_p99
            if baseline and p99 > self.degrade_factor * baseline:
                shrunk = max(
                    float(self.min_limit), self._limit * self.decrease_factor
                )
                if shrunk < self._limit:
                    self._limit = shrunk
                    self.decreases += 1
            else:
                grown = min(
                    float(self.max_limit), self._limit + self.increase_step
                )
                if grown > self._limit:
                    self._limit = grown
                    self.increases += 1
                    self._cond.notify_all()

    # -- the concurrency gate -----------------------------------------------

    @property
    def limit(self) -> int:
        with self._cond:
            return max(self.min_limit, int(self._limit))

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def degraded(self) -> bool:
        """Whether the limiter has shrunk below full concurrency — the
        signal on which background work is shed first."""
        with self._cond:
            return int(self._limit) < self.max_limit

    def _skip_abandoned_locked(self) -> None:
        while self._serving in self._abandoned:
            self._abandoned.discard(self._serving)
            self._serving += 1

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Block until an execution slot is free (or ``timeout`` elapses;
        returns False then — the caller sheds instead of executing).
        Slots are granted in strict FIFO order: waiters hold tickets and
        only the oldest runnable ticket proceeds when capacity frees up."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            while True:
                self._skip_abandoned_locked()
                if (
                    ticket == self._serving
                    and self._inflight
                    < max(self.min_limit, int(self._limit))
                ):
                    self._serving += 1
                    self._inflight += 1
                    # the next ticket may also be runnable (limit grew or
                    # several slots freed at once): wake the line
                    self._cond.notify_all()
                    return True
                remaining = (
                    None if deadline is None else deadline - self._clock()
                )
                if remaining is not None and remaining <= 0:
                    self._abandoned.add(ticket)
                    self._skip_abandoned_locked()
                    self._cond.notify_all()
                    return False
                self._cond.wait(remaining)

    def release(self) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._cond.notify_all()

    def render(self) -> str:
        return (
            f"limit={self.limit}/{self.max_limit} inflight={self.inflight} "
            f"decreases={self.decreases} increases={self.increases}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdaptiveConcurrencyLimiter {self.render()}>"


# ---------------------------------------------------------------------------
# Admission control (bounded queue, deadline-aware shed, readiness)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admitted: bool
    reason: str  #: "ok" | "queue_full" | "deadline" | "background_shed"
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
        limiter: Optional[AdaptiveConcurrencyLimiter] = None,
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
        self.limiter = limiter
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
            elif (
                priority == "background"
                and self.limiter is not None
                and self.limiter.degraded
            ):
                # background is shed first: any limiter degradation means
                # interactive traffic gets the shrunken capacity
                reason = "background_shed"
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
        """Record a shed that happened *after* admission (queued-then-
        shed, limiter-deadline) into the readiness window."""
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

"""Per-XAM circuit breakers: health state for access modules.

Each materialized access module (view / index / storage relation in the
catalog) gets a tiny state machine:

* **closed** — healthy; reads flow normally.
* **open** — the module failed ``failure_threshold`` consecutive times;
  the optimizer excludes it from rewriting ranking until a recovery
  window elapses (no point re-reading a corrupt structure on every
  query).
* **half-open** — the recovery window elapsed; the next query is allowed
  to probe the module.  Success closes the breaker, failure re-opens it
  and restarts the window.

The breaker never *changes answers*: the rewriting search only ever picks
among S-equivalent plans, so excluding an open module merely re-routes
the same query — the availability face of physical data independence.

The board lives on the :class:`~repro.core.uload.Database`, alongside the
catalog whose entries it tracks; ``Database.health()``, the REPL's
``.health`` command, and ``repro serve`` render it.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "BreakerBoard", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """The closed → open → half-open state machine of one access module.

    Not internally locked: the owning :class:`BreakerBoard` serializes
    access.  ``clock`` is injectable so tests drive the recovery window
    deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._failures = 0
        self._successes = 0
        self._opened_at: Optional[float] = None
        self.last_error: Optional[str] = None

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return CLOSED
        if self._clock() - self._opened_at >= self.recovery_timeout:
            return HALF_OPEN
        return OPEN

    @property
    def failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """Whether a read of this module may proceed (closed, or the
        half-open recovery probe)."""
        return self.state != OPEN

    def record_failure(self, error: Optional[str] = None) -> str:
        """Count a failure; returns the resulting state.  A failure in
        half-open re-opens immediately (the probe failed)."""
        self._failures += 1
        if error is not None:
            self.last_error = error
        if self._opened_at is not None or self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
        return self.state

    def record_success(self) -> str:
        """Count a success; a half-open probe succeeding closes the
        breaker and resets the failure count."""
        self._successes += 1
        if self._opened_at is not None and self.state != OPEN:
            self._opened_at = None
            self._failures = 0
        elif self._opened_at is None:
            self._failures = 0
        return self.state

    def force_open(self, error: Optional[str] = None) -> str:
        """Trip the breaker open immediately, regardless of the failure
        count — the chaos lever for rehearsing module loss (a half-open
        probe can still close it after the recovery window)."""
        self._failures = max(self._failures, self.failure_threshold)
        self._opened_at = self._clock()
        if error is not None:
            self.last_error = error
        return self.state

    def render(self) -> str:
        state = self.state
        text = f"{state} (failures={self._failures}"
        if state == OPEN and self._opened_at is not None:
            remaining = self.recovery_timeout - (self._clock() - self._opened_at)
            text += f", probe in {max(remaining, 0.0):.1f}s"
        if self.last_error:
            text += f", last: {self.last_error}"
        return text + ")"


class BreakerBoard:
    """Thread-safe registry of breakers, one per access module name.

    Breakers are created lazily on the first *failure* — a healthy
    catalog keeps the board empty, so rendering it answers "what is
    broken?" rather than listing everything.
    """

    #: numeric encoding of breaker states for the ``breaker.state`` gauge
    STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._registry = None

    def register_metrics(self, registry) -> None:
        """Publish the board into a
        :class:`~repro.engine.metrics.MetricsRegistry`: per-module
        failure/success counters are bumped inline (they are events, not
        state), while the state gauges are refreshed by a scrape-time
        collector (state is a function of the clock — half-open emerges
        from elapsed time, not from any recorded event)."""
        self._registry = registry
        registry.counter(
            "breaker.failures", "access-module failures recorded", ("module",)
        )
        registry.counter(
            "breaker.successes", "access-module successes recorded", ("module",)
        )
        registry.gauge(
            "breaker.open_modules", "access modules currently circuit-open"
        )
        registry.gauge(
            "breaker.state",
            "breaker state per module (0=closed 1=half-open 2=open)",
            ("module",),
        )

        self_ref = weakref.ref(self)

        def collect(reg) -> None:
            board = self_ref()
            if board is None:  # don't pin dead boards to the registry
                reg.unregister_collector(collect)
                return
            states = board.states()
            reg.set_gauge(
                "breaker.open_modules",
                sum(1 for state in states.values() if state == OPEN),
            )
            for name, state in states.items():
                reg.set_gauge(
                    "breaker.state", board.STATE_VALUES[state], module=name
                )

        registry.register_collector(collect)

    def breaker(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    self.failure_threshold, self.recovery_timeout, self._clock
                )
            return breaker

    def record_failure(self, name: str, error: Optional[str] = None) -> str:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    self.failure_threshold, self.recovery_timeout, self._clock
                )
            state = breaker.record_failure(error)
        if self._registry is not None:
            self._registry.inc("breaker.failures", module=name)
        return state

    def record_success(self, name: str) -> None:
        """Successes only touch modules already being tracked (no entry =
        nothing to recover)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                return
            breaker.record_success()
        if self._registry is not None:
            self._registry.inc("breaker.successes", module=name)

    def force_open(self, name: str, error: Optional[str] = None) -> str:
        """Trip one module's breaker open immediately (creating it if the
        module never failed before) — the chaos hook that rehearses
        losing an access module without injecting a fault."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    self.failure_threshold, self.recovery_timeout, self._clock
                )
            return breaker.force_open(error or "forced open")

    def state(self, name: str) -> str:
        with self._lock:
            breaker = self._breakers.get(name)
            return breaker.state if breaker is not None else CLOSED

    def allows(self, name: str) -> bool:
        with self._lock:
            breaker = self._breakers.get(name)
            return breaker.allow() if breaker is not None else True

    def unavailable_names(self) -> set[str]:
        """Modules whose circuit is open (excluded from rewriting
        ranking).  Half-open modules are *not* listed: the next query is
        their recovery probe."""
        with self._lock:
            return {
                name
                for name, breaker in self._breakers.items()
                if not breaker.allow()
            }

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: breaker.state for name, breaker in self._breakers.items()}

    def render(self) -> str:
        with self._lock:
            if not self._breakers:
                return "all access modules healthy (no failures recorded)"
            lines = []
            for name in sorted(self._breakers):
                lines.append(f"{name}: {self._breakers[name].render()}")
            return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BreakerBoard {self.states()!r}>"

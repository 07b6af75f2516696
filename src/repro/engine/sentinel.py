"""The live plan-regression sentinel.

The optimizer's choice among S-equivalent rewritings (§4) is only as good
as the statistics it ranks them with — and in production both drift: the
catalog changes, circuit breakers take modules out of the race, the
summary's cardinalities go stale against a mutating document set.  The
sentinel watches two symptoms of that drift on the live query stream:

* **plan flips** — the same normalized query re-prepared to a different
  plan fingerprint.  Some flips are intended (a view was added; a breaker
  opened); all of them deserve a record, a counter and a trace event,
  because a silent flip is how a production regression begins.
* **cardinality misestimates** — a pattern whose summary estimate is off
  from the observed tuple count by more than a configurable factor *and*
  by at least :data:`MISESTIMATE_MIN_ROWS` rows (the ratio of two tiny
  counts — 19 estimated, 0 observed — is noise, not drift).  One
  misestimate is noise; ``refresh_after`` misestimates on the same query
  are a signal the statistics are stale, so the sentinel triggers a
  statistics refresh through the callback the query service installs
  (which also bumps the catalog version, invalidating every plan ranked
  under the stale numbers — the loop from telemetry back to planner
  correctness).

Findings are kept in a bounded ring and served by the ``/regressions``
HTTP route; counters (``planner.plan_flip``, ``planner.misestimate``,
``planner.stats_refresh``) land in the metrics registry, and every
detection is stamped into the owning query's trace as an event span.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "MISESTIMATE_MIN_ROWS",
    "SentinelConfig",
    "RegressionFinding",
    "PlanRegressionSentinel",
]

#: an estimate within this many rows of the observation is never a
#: misestimate, whatever the ratio.  On the XMark battery (scales 1, 4
#: and 16, seeds 0 and 3) the only pattern past the ratio is ``q14`` at
#: scale 16 — 19.2 estimated, 0-1 observed — which this clears
MISESTIMATE_MIN_ROWS = 32.0


@dataclass(frozen=True)
class SentinelConfig:
    """Thresholds of the sentinel, gathered in one place.

    ``misestimate_factor`` is the max tolerated ratio between estimated
    and actual pattern cardinality (both smoothed by +1, so empty results
    and unknown-side zeros do not divide by zero); a gap under
    :data:`MISESTIMATE_MIN_ROWS` rows is tolerated at any ratio.  ``refresh_after``
    consecutive misestimating executions of the same query trigger the
    statistics-refresh callback; ``capacity`` bounds the finding ring.
    """

    misestimate_factor: float = 10.0
    refresh_after: int = 3
    capacity: int = 256

    def as_dict(self) -> dict:
        return {
            "misestimate_factor": self.misestimate_factor,
            "refresh_after": self.refresh_after,
            "capacity": self.capacity,
        }


@dataclass(frozen=True)
class RegressionFinding:
    """One detection: a plan flip, a misestimate, or a triggered refresh."""

    kind: str  # "plan_flip" | "misestimate" | "stats_refresh"
    query: str
    detail: str
    ts: float = field(default_factory=time.time)
    trace_id: Optional[str] = None
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "query": self.query,
            "detail": self.detail,
            "ts": self.ts,
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.data:
            out["data"] = dict(self.data)
        return out

    def summary(self) -> str:
        trace = f" trace={self.trace_id}" if self.trace_id else ""
        return f"[{self.kind}]{trace} {self.query}: {self.detail}"


class PlanRegressionSentinel:
    """Watches executed queries for plan flips and misestimates.

    One instance per :class:`~repro.core.service.QueryService`; `observe`
    is called once per successful execution, on the worker thread, while
    the query's trace is still open (so event spans land in the tree).
    Counters go straight to the registry rather than through
    ``ctx.bump`` — the per-query ``result.counters`` snapshot is taken
    before the sentinel runs, and the registry-equals-sum-of-results
    reconciliation invariant must stay exact.
    """

    def __init__(
        self,
        config: Optional[SentinelConfig] = None,
        registry=None,
        on_refresh: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config or SentinelConfig()
        self._registry = registry
        self._on_refresh = on_refresh
        self._lock = threading.Lock()
        #: normalized query → last observed plan fingerprint
        self._fingerprints: dict[str, str] = {}
        #: normalized query → consecutive misestimating executions
        self._miss_streaks: dict[str, int] = {}
        self._findings: deque[RegressionFinding] = deque(
            maxlen=self.config.capacity
        )
        self._plan_flips = 0
        self._misestimates = 0
        self._stats_refreshes = 0

    # -- observation ---------------------------------------------------------

    def observe(self, query: str, result, ctx=None) -> list[RegressionFinding]:
        """Check one successful execution; returns the new findings."""
        findings: list[RegressionFinding] = []
        trace_id = getattr(result, "trace_id", None)
        fingerprint = getattr(result, "plan_fingerprint", None)

        flip_from: Optional[str] = None
        if fingerprint:
            with self._lock:
                previous = self._fingerprints.get(query)
                self._fingerprints[query] = fingerprint
            if previous is not None and previous != fingerprint:
                flip_from = previous
        if flip_from is not None:
            findings.append(
                RegressionFinding(
                    kind="plan_flip",
                    query=query,
                    detail=f"plan fingerprint {flip_from} -> {fingerprint}",
                    trace_id=trace_id,
                    data={"from": flip_from, "to": fingerprint},
                )
            )
            self._count("planner.plan_flip")
            if ctx is not None:
                ctx.event(
                    "planner.plan_flip", before=flip_from, after=fingerprint
                )

        missed = False
        for resolution in getattr(result, "resolutions", ()):
            est = resolution.estimated_cardinality
            actual = resolution.actual_cardinality
            if est is None or actual is None:
                continue
            factor = max(
                (est + 1.0) / (actual + 1.0), (actual + 1.0) / (est + 1.0)
            )
            if (
                factor <= self.config.misestimate_factor
                or abs(est - actual) < MISESTIMATE_MIN_ROWS
            ):
                continue
            missed = True
            findings.append(
                RegressionFinding(
                    kind="misestimate",
                    query=query,
                    detail=(
                        f"pattern {resolution.pattern.to_text()} estimated "
                        f"{est:.1f} rows, observed {actual} "
                        f"({factor:.1f}x off)"
                    ),
                    trace_id=trace_id,
                    data={
                        "pattern": resolution.pattern.to_text(),
                        "est": est,
                        "actual": actual,
                        "factor": round(factor, 2),
                    },
                )
            )
            self._count("planner.misestimate")
            if ctx is not None:
                ctx.event(
                    "planner.misestimate",
                    est=round(est, 1),
                    actual=actual,
                )

        refresh = False
        with self._lock:
            if missed:
                streak = self._miss_streaks.get(query, 0) + 1
                self._miss_streaks[query] = streak
                if (
                    streak >= self.config.refresh_after
                    and self._on_refresh is not None
                ):
                    refresh = True
                    # statistics are global: a refresh resets every streak
                    self._miss_streaks.clear()
            else:
                self._miss_streaks.pop(query, None)
        if refresh:
            findings.append(
                RegressionFinding(
                    kind="stats_refresh",
                    query=query,
                    detail=(
                        f"{self.config.refresh_after} consecutive "
                        "misestimating executions; refreshing statistics"
                    ),
                    trace_id=trace_id,
                )
            )
            self._count("planner.stats_refresh")
            if ctx is not None:
                ctx.event("planner.stats_refresh")
            # outside the lock: the callback takes the service's mutate
            # lock and purges the plan cache
            self._on_refresh()

        if findings:
            with self._lock:
                self._findings.extend(findings)
                for finding in findings:
                    if finding.kind == "plan_flip":
                        self._plan_flips += 1
                    elif finding.kind == "misestimate":
                        self._misestimates += 1
                    else:
                        self._stats_refreshes += 1
        return findings

    def _count(self, name: str) -> None:
        if self._registry is not None:
            self._registry.inc(name)

    # -- introspection -------------------------------------------------------

    def findings(self, kind: Optional[str] = None) -> list[RegressionFinding]:
        with self._lock:
            found = list(self._findings)
        if kind is not None:
            found = [finding for finding in found if finding.kind == kind]
        return found

    @property
    def plan_flips(self) -> int:
        with self._lock:
            return self._plan_flips

    @property
    def misestimates(self) -> int:
        with self._lock:
            return self._misestimates

    @property
    def stats_refreshes(self) -> int:
        with self._lock:
            return self._stats_refreshes

    def fingerprint_of(self, query: str) -> Optional[str]:
        """Last observed fingerprint of a normalized query."""
        with self._lock:
            return self._fingerprints.get(query)

    def as_dict(self) -> dict:
        with self._lock:
            findings = [finding.as_dict() for finding in self._findings]
            return {
                "plan_flips": self._plan_flips,
                "misestimates": self._misestimates,
                "stats_refreshes": self._stats_refreshes,
                "tracked_queries": len(self._fingerprints),
                "config": self.config.as_dict(),
                "findings": findings,
            }

    def render(self) -> str:
        snapshot = self.as_dict()
        lines = [
            f"plan flips: {snapshot['plan_flips']}  "
            f"misestimates: {snapshot['misestimates']}  "
            f"statistics refreshes: {snapshot['stats_refreshes']}  "
            f"tracked queries: {snapshot['tracked_queries']}"
        ]
        with self._lock:
            entries = list(self._findings)
        lines.extend(finding.summary() for finding in entries)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanRegressionSentinel flips={self.plan_flips} "
            f"misestimates={self.misestimates}>"
        )

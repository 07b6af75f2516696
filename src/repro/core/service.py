"""The concurrent query service: sessions, a plan cache, a worker pool.

``Database`` is a single-threaded library object; this module wraps it in
the serving layer the ROADMAP's north star asks for.  A
:class:`QueryService` owns

* a versioned :class:`~repro.engine.plan_cache.PlanCache` keyed on
  ``(normalized query text, prefer_views)`` and stamped with the catalog
  version, so repeated queries skip the parse → translate →
  rewrite-search → assemble → compile pipeline entirely;
* a bounded :class:`~concurrent.futures.ThreadPoolExecutor` giving
  inter-query parallelism with per-query timeouts and cooperative
  cancellation (a timed-out query is cancelled if still queued, and asked
  to stop at its next unit boundary if already running);
* :class:`QuerySession` handles that record per-session latency
  percentiles.

Consistency model — the cache-invalidation protocol:

1. every mutation (register/drop a XAM, load a document, refresh
   statistics) bumps ``Database.catalog_version``; the version is a
   stamp on each entry, not part of its key;
2. plans are stamped with the version they were last known valid at;
3. a lookup whose stamp mismatches asks
   :meth:`~repro.core.uload.Database.revalidate`, outside the cache lock,
   whether the plan is still what preparation would build: no document
   or statistics mutation since, no pin and no open breaker behind it,
   and for every pattern the same relevant views — the catalog entries
   its rewriting search could use.  If so the entry (and its compiled
   artifact) is restamped and served (``plan_cache.revalidated``);
   otherwise it is dropped (an invalidation) and re-prepared.  So a view
   mutation re-plans exactly the queries it can affect.

Mutations should go through the service's ``add_view`` / ``drop_view`` /
``add_document_xml`` / ``refresh_statistics`` wrappers: they serialize
writers against each other.  A document or statistics mutation eagerly
purges every stale plan; a view mutation purges only stale pins, leaving
each plan to be checked at its next lookup.  Readers are never blocked —
already-running queries keep executing their (still S-equivalent) old
plans against copy-on-write store snapshots.

Cache-hit/miss/invalidation events are recorded into each query's
:class:`~repro.engine.context.ExecutionContext` counters, so they surface
through ``query(stats=True)`` (``result.counters``) and ``explain``
(rendered under ``counters:``) exactly like the per-operator metrics.
"""

from __future__ import annotations

import math
import random
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine.admission import (
    AdmissionController,
    guard_exit,
    resolve_queue_capacity,
)
from ..engine.context import ExecutionContext
from ..engine.metrics import MetricsRegistry, register_process_collector
from ..engine.plan_cache import (
    CacheStats,
    PinnedPlan,
    PlanCache,
    PlanPinStore,
    normalize_query,
)
from ..engine.profiler import Profiler
from ..engine.qlog import QueryLog, build_record
from ..engine.sentinel import PlanRegressionSentinel, SentinelConfig
from ..engine.tracing import SlowQueryLog
from ..errors import QueryRejected, ReproError, TransientStorageFault
from .uload import (
    Database,
    ExplainReport,
    PreparedQuery,
    QueryCancelled,
    QueryResult,
    require_physical,
)
from .xam import Pattern

__all__ = [
    "QueryService",
    "QuerySession",
    "QueryTimeout",
    "QueryCancelled",
    "QueryRejected",
    "LatencyRecorder",
    "RetryPolicy",
]


class QueryTimeout(ReproError, TimeoutError):
    """A query exceeded its deadline; it was cancelled if still queued,
    or asked to stop at its next unit boundary if already running.
    Subclasses both :class:`~repro.errors.ReproError` (the typed fault
    hierarchy the CLI switches on) and :class:`TimeoutError` (what
    callers of a timeout-bounded API expect)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient storage faults.

    The service retries a query whose execution raised
    :class:`~repro.errors.TransientStorageFault` up to
    ``max_attempts`` total attempts, sleeping
    ``base_delay * multiplier**(retry-1)`` (capped at ``max_delay``)
    scaled by a random factor in ``[1, 1+jitter]`` between attempts.
    Retries never cross the query's deadline: if the next sleep would
    overshoot it, the fault propagates instead.  A retrying query sleeps
    inside its worker thread, so the fixed pool also caps how many
    queries retry at once at ``max_workers``.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.5

    def delay(self, retry: int, rng: random.Random) -> float:
        """Sleep before retry number ``retry`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (retry - 1))
        return raw * (1.0 + self.jitter * rng.random())


class LatencyRecorder:
    """Thread-safe latency sample sink with percentile readout.

    Every query contributes a sample, tagged with its outcome (``"ok"``,
    ``"error"``, ``"timeout"``) — percentiles over successes only would
    paint exactly the wrong picture under faults, where the slowest
    queries are the ones that died.

    Samples live in a **bounded ring** (``capacity`` newest samples,
    default 10k): under sustained traffic an unbounded list is a memory
    leak, and recent samples are the ones percentile readouts should
    describe anyway.  Overwritten samples are counted in :attr:`dropped`
    (and, when a :class:`~repro.engine.metrics.MetricsRegistry` is
    attached, in the ``latency.samples_dropped`` counter, so the loss is
    visible on ``/metrics``, not silent).  An attached registry also
    receives every sample into the ``query.latency.seconds`` histogram,
    labeled by outcome — the unbounded-horizon aggregate that survives
    ring wraparound.
    """

    #: default ring capacity — ~160 KB of samples at sys.getsizeof scale,
    #: enough for percentile stability, bounded under any traffic
    DEFAULT_CAPACITY = 10_000

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
        histogram: str = "query.latency.seconds",
    ) -> None:
        if capacity < 1:
            raise ValueError("latency ring capacity must be >= 1")
        self.capacity = capacity
        self._samples: deque[tuple[float, str]] = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()
        self._registry = registry
        self._histogram = histogram

    def record(self, seconds: float, outcome: str = "ok") -> None:
        with self._lock:
            if len(self._samples) == self.capacity:
                self._dropped += 1
            self._samples.append((seconds, outcome))
        if self._registry is not None:
            self._registry.observe(self._histogram, seconds, outcome=outcome)
            if self._dropped:
                self._registry.counter(
                    "latency.samples_dropped",
                    "latency ring-buffer samples overwritten before readout",
                ).set_total(self._dropped)

    @property
    def dropped(self) -> int:
        """Samples overwritten by ring wraparound (lifetime total)."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def outcomes(self) -> dict[str, int]:
        """Sample count per outcome tag (retained samples only)."""
        counts: dict[str, int] = {}
        with self._lock:
            for _, outcome in self._samples:
                counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def percentile(self, pct: float) -> Optional[float]:
        """True nearest-rank percentile of the retained latencies
        (seconds), failures and timeouts included; None when nothing was
        recorded.

        Nearest-rank: the P-th percentile of n ordered samples is the
        value at 1-based rank ``ceil(P/100 * n)`` — index
        ``ceil(P/100 * n) - 1``.  (The previous ``round(P/100 * (n-1))``
        was *not* nearest-rank: Python's round-half-even pulled e.g. the
        p40 of 5 samples down a rank, biasing reported percentiles low.)
        """
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(seconds for seconds, _ in self._samples)
        rank = math.ceil(pct / 100.0 * len(ordered))
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]

    def percentiles(self, pcts: Sequence[float] = (50, 90, 99)) -> dict[float, float]:
        return {
            pct: value
            for pct in pcts
            if (value := self.percentile(pct)) is not None
        }

    def render(self) -> str:
        if not len(self):
            return "no queries recorded"
        parts = [f"n={len(self)}"]
        for pct, value in self.percentiles().items():
            parts.append(f"p{pct:g}={value * 1000:.2f}ms")
        outcomes = self.outcomes()
        if set(outcomes) != {"ok"}:
            parts.append(
                "outcomes="
                + ",".join(f"{k}:{v}" for k, v in sorted(outcomes.items()))
            )
        if self.dropped:
            parts.append(f"dropped={self.dropped}")
        return " ".join(parts)


@dataclass(eq=False)  # identity semantics: entries live in the pending set
class _PendingQuery:
    """Book-keeping for one in-flight query: the cooperative stop flag the
    execution polls at unit boundaries."""

    stop: threading.Event

    def should_stop(self) -> bool:
        return self.stop.is_set()


class QuerySession:
    """A named handle onto the service with its own latency history.

    Sessions are cheap; a connection-per-client server would make one per
    client.  All sessions share the service's plan cache and worker pool.
    """

    def __init__(self, service: "QueryService", name: str):
        self.service = service
        self.name = name
        # session recorders are registry-less: the service-level recorder
        # already feeds every sample into the shared histogram, and
        # feeding it twice would double-count
        self.latency = LatencyRecorder()

    def query(self, query: str, **kwargs) -> QueryResult:
        return self.service.query(query, session=self, **kwargs)

    def submit(self, query: str, **kwargs) -> Future:
        return self.service.submit(query, session=self, **kwargs)

    def explain(self, query: str, **kwargs) -> ExplainReport:
        return self.service.explain(query, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QuerySession {self.name} {self.latency.render()}>"


def _shutdown_service_at_exit(service: "QueryService") -> None:
    """Exit-guard hook (see :func:`~repro.engine.admission.guard_exit`):
    set every cooperative stop flag and cancel queued futures so the
    worker pool's interpreter-exit join cannot hang on a saturated
    queue.  Unbound on purpose — the guard must not keep services
    alive."""
    service.cancel_all()
    service.shutdown(wait=False, cancel_pending=True)


class QueryService:
    """Thread-safe query front-end over one :class:`Database`."""

    def __init__(
        self,
        db: Database,
        cache_capacity: int = 128,
        max_workers: int = 4,
        default_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        slow_query_threshold: Optional[float] = None,
        qlog: "QueryLog | None | bool" = None,
        sentinel_config: Optional[SentinelConfig] = None,
        queue_capacity: Optional[int] = None,
        background_share: float = 0.5,
        profiler: "Profiler | None | bool" = None,
        sample_hz: Optional[float] = None,
    ):
        self.db = db
        self.cache = PlanCache(cache_capacity)
        self.default_timeout = default_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self._retry_rng = random.Random(0)
        self._retry_rng_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        #: the overload-protection spine (shed-before-timeout invariant):
        #: one bounded admission queue in front of the fixed pool.  Its
        #: clock is ``ExecutionContext.clock``, so admission deadlines,
        #: queue waits and query deadlines are all on the same timeline.
        self.admission = AdmissionController(
            queue_capacity=resolve_queue_capacity(queue_capacity, max_workers),
            background_share=background_share,
            clock=ExecutionContext.clock,
        )
        self._mutate_lock = threading.RLock()
        self._sessions: dict[str, QuerySession] = {}
        self._session_lock = threading.Lock()
        self._session_counter = 0
        self._closed = False
        #: stop flags of every admitted-but-unfinished query, so
        #: ``cancel_all`` (and the exit guard) can ask running work to
        #: stop at its next unit boundary
        self._pending: set[_PendingQuery] = set()
        self._pending_lock = threading.Lock()
        #: the database's process-wide metrics registry — the one sink the
        #: plan cache, breakers, fault injections, retries and latency
        #: histogram all land in (and ``/metrics`` reads from)
        self.metrics: MetricsRegistry = db.metrics
        #: service-wide latency recorder: every query is sampled here
        #: (sessions keep their own, registry-less recorders on top)
        self.latency = LatencyRecorder(registry=self.metrics)
        #: bounded log of span trees for queries over the latency
        #: threshold (None = disabled)
        self.slow_queries = SlowQueryLog(threshold=slow_query_threshold)
        #: structured query log: every execution appends one JSONL record
        #: (fingerprint, checksum, est-vs-actual rows, latency, counters)
        #: — the substrate of ``repro record`` / ``repro replay``.
        #: ``qlog=None`` honours the ``REPRO_QLOG`` env var (memory-only
        #: ring otherwise, so ``/qlog`` always answers); ``qlog=False``
        #: disables capture entirely; an instance is used as given.
        self._owns_qlog = False
        if qlog is False:
            self.qlog: Optional[QueryLog] = None
        elif qlog is None or qlog is True:
            # explicit None check: a fresh QueryLog is len()==0 and falsy
            from_env = QueryLog.from_env()
            self.qlog = from_env if from_env is not None else QueryLog()
            self._owns_qlog = True
        else:
            self.qlog = qlog
        if self.qlog is not None:
            self.qlog.bind_registry(self.metrics)
        #: live plan-regression watch: fingerprint flips, cardinality
        #: misestimates, and (after repeated misestimates) an automatic
        #: statistics refresh closing the telemetry → planner loop
        self.sentinel = PlanRegressionSentinel(
            config=sentinel_config,
            registry=self.metrics,
            on_refresh=self.refresh_statistics,
        )
        #: resource profiler (attributed ring + optional continuous
        #: sampler).  ``None`` auto-attaches one when the database runs
        #: with attributed profiling or a sampling rate was requested;
        #: ``False`` disables (the ``/profile`` route then 404s);
        #: an instance is used as given.
        if profiler is False:
            self.profiler: Optional[Profiler] = None
        elif isinstance(profiler, Profiler):
            self.profiler = profiler
        elif profiler is True or db.profile or sample_hz:
            self.profiler = Profiler(
                registry=self.metrics, sample_hz=sample_hz
            )
        else:
            self.profiler = None
        if self.profiler is not None:
            self.profiler.start()
        self._register_metric_families()
        register_process_collector(self.metrics)
        self.cache.register_metrics(self.metrics)
        self.db.compiled_plans.register_metrics(
            self.metrics, prefix="compiled_plans"
        )
        self.db.plan_pins.register_metrics(self.metrics)
        self._register_admission_collector()
        # non-daemon pool threads are joined at interpreter exit; the
        # guard cancels saturated queues first so SIGTERM exits promptly
        guard_exit(self, _shutdown_service_at_exit)

    def _register_metric_families(self) -> None:
        """Pre-register every metric family the service can emit, so a
        scrape of a freshly started (or simply healthy) process already
        shows the full schema — families must not pop into existence only
        once something goes wrong."""
        registry = self.metrics
        registry.counter("plan_cache.hit", "plan cache lookups served from cache")
        registry.counter("plan_cache.miss", "plan cache lookups that had to prepare")
        registry.counter(
            "plan_cache.invalidated",
            "plan cache entries dropped on version-mismatch lookups",
        )
        registry.counter(
            "plan_cache.revalidated",
            "stale plan cache entries restamped: no view they could use "
            "was added or dropped",
        )
        registry.counter(
            "statistics.refresh_skipped",
            "statistics refreshes with nothing to refresh (no version bump)",
        )
        registry.counter(
            "plan_pin.hit", "patterns whose access path a pinned plan applied"
        )
        registry.counter(
            "plan_pin.unmatched",
            "pinned choices whose signature matched nothing "
            "(fell back to cost-model ranking)",
        )
        registry.counter(
            "plan_pin.invalidate",
            "pinned plans dropped on catalog-version bumps",
        )
        registry.counter(
            "plan_compile.hit", "compiled batch artifacts reused from cache"
        )
        registry.counter(
            "plan_compile.miss", "batch plan-to-closure compilations"
        )
        registry.counter(
            "plan_compile.invalidate",
            "compiled batch artifacts dropped on catalog-version bumps",
        )
        registry.counter(
            "fallback.materialized_rows",
            "input rows materialized by PLogicalFallback substitutions",
        )
        registry.counter("retry.attempts", "transient-fault retry attempts")
        registry.counter("retry.recovered", "queries that succeeded after retries")
        registry.counter("retry.exhausted", "queries that ran out of retries")
        registry.counter("breaker.opened", "circuit-breaker open transitions")
        registry.counter(
            "degraded.module_failures", "access-module failures during execution"
        )
        registry.counter(
            "degraded.reroutes", "patterns rerouted to a fallback rewriting"
        )
        registry.counter(
            "degraded.patterns", "patterns answered by a degraded access path"
        )
        registry.counter(
            "degraded.base_fallbacks", "patterns that fell back to the base store"
        )
        for kind in ("transient", "corrupt", "latency"):
            registry.counter(
                f"faults.injected.{kind}", f"injected {kind} faults (chaos mode)"
            )
        registry.counter(
            "latency.samples_dropped",
            "latency ring-buffer samples overwritten before readout",
        )
        registry.counter("queries.timeout", "queries cancelled on deadline")
        registry.histogram(
            "query.latency.seconds",
            "end-to-end query latency by outcome",
            labelnames=("outcome",),
        )
        registry.counter(
            "slow_queries.captured", "queries logged over the slow-query threshold"
        )
        registry.counter(
            "planner.plan_flip",
            "queries re-prepared to a different plan fingerprint",
        )
        registry.counter(
            "planner.misestimate",
            "pattern cardinality estimates off beyond the sentinel factor",
        )
        registry.counter(
            "planner.stats_refresh",
            "statistics refreshes triggered by repeated misestimates",
        )
        registry.counter(
            "admission.admitted", "queries admitted past the bounded queue"
        )
        registry.counter(
            "admission.shed",
            "queries rejected by admission control, by priority and reason",
            labelnames=("priority", "reason"),
        )
        registry.histogram(
            "admission.queue_wait.seconds",
            "measured wait between admission and worker pickup",
        )
        registry.counter(
            "profiler.samples", "stack samples aggregated by the sampler"
        )
        registry.counter(
            "profiler.dropped",
            "stack samples dropped at the distinct-stack bound",
        )
        registry.counter(
            "profiler.queries", "attributed query profiles recorded"
        )

    def _register_admission_collector(self) -> None:
        """Scrape-time gauges for the overload-protection state (pull
        model, weakly referenced — the plan-cache collector idiom)."""
        registry = self.metrics
        registry.gauge(
            "admission.queue_depth", "admitted queries waiting for a worker"
        )
        registry.gauge(
            "admission.ready", "readiness (1 = ready, 0 = sustained shed)"
        )

        self_ref = weakref.ref(self)

        def collect(reg) -> None:
            service = self_ref()
            if service is None:  # don't pin dead services to the registry
                reg.unregister_collector(collect)
                return
            reg.set_gauge("admission.queue_depth", service.admission.depth)
            reg.set_gauge("admission.ready", 1.0 if service.ready() else 0.0)
            reg.counter("admission.admitted").set_total(
                service.admission.admitted
            )

        registry.register_collector(collect)

    # -- sessions -----------------------------------------------------------

    def session(self, name: Optional[str] = None) -> QuerySession:
        """A (new or existing) named session handle."""
        with self._session_lock:
            if name is None:
                self._session_counter += 1
                name = f"session-{self._session_counter}"
            if name not in self._sessions:
                self._sessions[name] = QuerySession(self, name)
            return self._sessions[name]

    def sessions(self) -> list[QuerySession]:
        with self._session_lock:
            return list(self._sessions.values())

    # -- plan cache ---------------------------------------------------------

    def _lookup(
        self,
        query: str,
        prefer_views: bool,
        ctx: ExecutionContext,
    ) -> tuple[PreparedQuery, tuple]:
        """Cached prepared plan for the query (and its cache key),
        preparing on miss.  The hit/miss/invalidation outcome is recorded
        into ``ctx.counters`` (the per-query sink) — totals live in
        :meth:`cache_stats`."""
        key = (normalize_query(query), prefer_views)
        version = self.db.catalog_version
        prepared, outcome = self.cache.probe(key, version)
        if outcome == "stale":
            # outside the cache lock: the relevance check reads the catalog
            valid = self.db.revalidate(prepared)
            self.cache.settle(key, prepared, version, valid)
            if valid:
                outcome = "revalidated"
                prepared.catalog_version = version
                self.db.compiled_plans.restamp(prepared.fingerprint, version)
            else:
                prepared = None
        hit = prepared is not None
        ctx.bump("plan_cache.hit", 1.0 if hit else 0.0)
        ctx.bump("plan_cache.miss", 0.0 if hit else 1.0)
        ctx.bump("plan_cache.invalidated", 1.0 if outcome == "stale" else 0.0)
        ctx.bump("plan_cache.revalidated", 1.0 if outcome == "revalidated" else 0.0)
        ctx.event(f"cache.{outcome}")
        if prepared is None:
            prepared = self.db.prepare(query, prefer_views, context=ctx)
            self.cache.put(key, prepared, version)
        return prepared, key

    def cache_stats(self) -> CacheStats:
        return self.cache.stats()

    def invalidate(self) -> int:
        """Drop every cached plan (e.g. after out-of-band mutations made
        directly on the wrapped database)."""
        return self.cache.clear()

    # -- querying -----------------------------------------------------------

    def _shed(
        self,
        query: str,
        reason: str,
        priority: str,
        wait_estimate: float,
        queue_depth: int,
    ) -> "QueryRejected":
        """Account one shed query — counters, a (short) trace, a qlog
        record stamped with the admission outcome — and build the typed
        rejection for the caller to raise."""
        self.metrics.inc("admission.shed", priority=priority, reason=reason)
        retry_after = round(wait_estimate, 6) if wait_estimate else None
        admission = {
            "outcome": "shed",
            "reason": reason,
            "priority": priority,
            "queue_depth": queue_depth,
        }
        if retry_after is not None:
            admission["retry_after"] = retry_after
        tracer = self.db.tracer
        if tracer is not None:
            trace = tracer.start_trace("admission.shed")
            trace.event("admission.shed", query=query, **admission)
            trace.finish("shed")
        if self.qlog is not None:
            self.qlog.record(
                build_record(
                    normalize_query(query),
                    None,
                    0.0,
                    "rejected",
                    error="QueryRejected",
                    admission=admission,
                )
            )
        hint = (
            f" (retry after ~{retry_after:g}s)" if retry_after else ""
        )
        return QueryRejected(
            f"admission control shed this query ({reason}){hint}: {query!r}",
            reason=reason,
            priority=priority,
            retry_after=retry_after,
        )

    def _execute(
        self,
        query: str,
        prefer_views: bool,
        stats: bool,
        session: Optional[QuerySession],
        pending: _PendingQuery,
        deadline: Optional[float],
        queued_at: float,
        priority: str,
    ) -> QueryResult:
        queue_wait = self.admission.started(queued_at)
        self.metrics.observe("admission.queue_wait.seconds", queue_wait)
        # shed-before-timeout also applies *after* admission: a deadline
        # that expired while the query sat queued must not burn an
        # execution slot
        if deadline is not None and ExecutionContext.clock() >= deadline:
            self.admission.note_shed()
            raise self._shed(
                query, "queued_deadline", priority,
                self.admission.wait_estimate, self.admission.depth,
            )
        started = ExecutionContext.clock()
        outcome = "error"
        result: Optional[QueryResult] = None
        error_type: Optional[str] = None
        ctx = self.db.execution_context()
        ctx.event(
            "admission.dequeued",
            queue_wait=round(queue_wait, 6),
            priority=priority,
        )
        try:
            result = self._execute_with_retries(
                query, prefer_views, stats, pending, deadline, ctx
            )
            outcome = "ok"
            return result
        except QueryCancelled:
            # the waiter records the "timeout" sample (it knows the wall
            # time the caller actually waited); recording here too would
            # double-count the query
            outcome = None
            error_type = "QueryCancelled"
            raise
        except BaseException as exc:
            error_type = type(exc).__name__
            raise
        finally:
            if outcome == "ok" and result is not None:
                # while the trace is still open, so sentinel events land
                # in the span tree a /trace/<id> readout shows
                self.sentinel.observe(normalize_query(query), result, ctx)
            ctx.end_trace("ok" if outcome == "ok" else "error")
            elapsed = ExecutionContext.clock() - started
            if outcome is not None:
                self.latency.record(elapsed, outcome=outcome)
                if session is not None:
                    session.latency.record(elapsed, outcome=outcome)
            if self.qlog is not None:
                self.qlog.record(
                    build_record(
                        normalize_query(query),
                        result,
                        elapsed,
                        outcome or "cancelled",
                        error=error_type,
                        flags={"prefer_views": prefer_views, "stats": stats},
                        admission={
                            "outcome": "ok",
                            "priority": priority,
                            "queue_wait": round(queue_wait, 6),
                        },
                    )
                )
            profile_entry = None
            if (
                self.profiler is not None
                and self.db.profile
                and result is not None
            ):
                profile_entry = self.profiler.record(
                    normalize_query(query), result, elapsed
                )
            captured = self.slow_queries.consider(
                query,
                elapsed,
                outcome or "cancelled",
                ctx.trace,
                plan_fingerprint=(
                    getattr(result, "plan_fingerprint", "") or ""
                    if result is not None
                    else ""
                ),
                top_cpu=tuple(
                    f"{op['label']} cpu={op['self_cpu_ms']:.2f}ms"
                    for op in profile_entry.top_cpu()
                )
                if profile_entry is not None
                else (),
            )
            if captured is not None:
                self.metrics.inc("slow_queries.captured")

    def _execute_with_retries(
        self,
        query: str,
        prefer_views: bool,
        stats: bool,
        pending: _PendingQuery,
        deadline: Optional[float],
        ctx: ExecutionContext,
    ) -> QueryResult:
        """One query through the cache and database, absorbing transient
        storage faults with bounded backoff.  A degraded result evicts the
        plan from the cache, so the next preparation re-ranks rewritings
        with the circuit breakers in view."""
        policy = self.retry_policy
        if self.db.profile:
            # attributed profiling reads the instrumented unit plans —
            # promote profiled queries to stats so there is something to
            # attribute
            stats = True
        prepared, key = self._lookup(query, prefer_views, ctx)
        retries = 0
        while True:
            try:
                result = self.db.execute_prepared(
                    prepared,
                    stats=stats,
                    context=ctx,
                    should_stop=pending.should_stop,
                )
            except TransientStorageFault as fault:
                retries += 1
                ctx.bump("retry.attempts")
                with self._retry_rng_lock:
                    pause = policy.delay(retries, self._retry_rng)
                out_of_time = (
                    deadline is not None
                    and ExecutionContext.clock() + pause >= deadline
                )
                if (
                    retries >= policy.max_attempts
                    or out_of_time
                    or pending.should_stop()
                ):
                    ctx.bump("retry.exhausted")
                    raise
                with ctx.span(
                    "retry", attempt=retries, fault=type(fault).__name__
                ):
                    time.sleep(pause)
                continue
            if retries:
                ctx.bump("retry.recovered")
                result.counters = dict(ctx.counters)
            if result.degraded:
                self.cache.remove(key)
            return result

    def submit(
        self,
        query: str,
        prefer_views: bool = True,
        stats: bool = False,
        session: Optional[QuerySession] = None,
        timeout: Optional[float] = None,
        priority: str = "interactive",
    ) -> Future:
        """Enqueue a query on the worker pool; returns its Future.  The
        future's ``cancel_query()`` attribute sets the cooperative stop
        flag of a run already in progress.  ``timeout`` (seconds from now)
        sets the deadline transient-fault retries must not cross.

        Admission control runs *here*, synchronously: a query the bounded
        queue cannot hold (``"background"`` gets the smaller share of it,
        so it is shed first) or whose remaining deadline cannot cover the
        observed queue wait raises :class:`~repro.errors.QueryRejected`
        before any work is enqueued — shed-before-timeout, never a slot
        burned on a guaranteed-late answer."""
        if self._closed:
            raise RuntimeError("query service is shut down")
        deadline = (
            None if timeout is None else ExecutionContext.clock() + timeout
        )
        decision = self.admission.try_admit(priority, deadline)
        if not decision.admitted:
            raise self._shed(
                query, decision.reason, priority,
                decision.wait_estimate, decision.queue_depth,
            )
        # ``admission.admitted`` is mirrored from the controller's
        # lifetime total by the scrape-time collector — no inline bump,
        # one source of truth
        pending = _PendingQuery(stop=threading.Event())
        with self._pending_lock:
            self._pending.add(pending)
        queued_at = ExecutionContext.clock()
        try:
            future = self._executor.submit(
                self._execute,
                query, prefer_views, stats, session, pending,
                deadline, queued_at, priority,
            )
        except BaseException:
            self.admission.cancelled()
            with self._pending_lock:
                self._pending.discard(pending)
            raise
        future.cancel_query = pending.stop.set  # type: ignore[attr-defined]

        def _settle(f: Future, _pending=pending) -> None:
            with self._pending_lock:
                self._pending.discard(_pending)
            if f.cancelled():
                # cancelled while still queued: no worker ever called
                # admission.started, unwind the depth accounting
                self.admission.cancelled()

        future.add_done_callback(_settle)
        return future

    def query(
        self,
        query: str,
        prefer_views: bool = True,
        stats: bool = False,
        session: Optional[QuerySession] = None,
        timeout: Optional[float] = None,
        priority: str = "interactive",
        *,
        physical: bool = True,
    ) -> QueryResult:
        """Run one query through the pool and wait for its result.

        ``timeout`` (seconds; default :attr:`default_timeout`) bounds the
        wait: on expiry the query is cancelled — immediately if still
        queued, at its next unit boundary if running — and
        :class:`QueryTimeout` is raised.  Admission control may raise
        :class:`~repro.errors.QueryRejected` before anything runs.
        ``physical`` accepts only True (see
        :func:`~repro.core.uload.require_physical`).
        """
        require_physical(physical)
        timeout = self.default_timeout if timeout is None else timeout
        started = ExecutionContext.clock()
        future = self.submit(
            query, prefer_views=prefer_views, stats=stats, session=session,
            timeout=timeout, priority=priority,
        )
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            future.cancel_query()
            elapsed = ExecutionContext.clock() - started
            self.latency.record(elapsed, outcome="timeout")
            self.metrics.inc("queries.timeout")
            if session is not None:
                session.latency.record(elapsed, outcome="timeout")
            raise QueryTimeout(
                f"query did not finish within {timeout:g}s: {query!r}"
            ) from None

    def run_batch(
        self,
        queries: Sequence[str],
        prefer_views: bool = True,
        session: Optional[QuerySession] = None,
        timeout: Optional[float] = None,
        priority: str = "interactive",
    ) -> list[QueryResult]:
        """Run many queries concurrently, returning results in submission
        order (the batch CLI verb's engine)."""
        futures = [
            self.submit(
                q, prefer_views=prefer_views, session=session,
                timeout=timeout, priority=priority,
            )
            for q in queries
        ]
        results: list[QueryResult] = []
        started = ExecutionContext.clock()
        for query, future in zip(queries, futures):
            try:
                results.append(future.result(timeout))
            except FutureTimeoutError:
                future.cancel()
                future.cancel_query()
                elapsed = ExecutionContext.clock() - started
                self.latency.record(elapsed, outcome="timeout")
                self.metrics.inc("queries.timeout")
                if session is not None:
                    session.latency.record(elapsed, outcome="timeout")
                raise QueryTimeout(
                    f"query did not finish within {timeout:g}s: {query!r}"
                ) from None
        return results

    def explain(self, query: str, prefer_views: bool = True) -> ExplainReport:
        """EXPLAIN through the cache: a repeated explain reuses the cached
        plan, and the report's counters show the hit/miss outcome."""
        ctx = self.db.execution_context()
        try:
            prepared, _ = self._lookup(query, prefer_views, ctx)
            return self.db.explain_prepared(prepared, ctx)
        except BaseException:
            ctx.end_trace("error")
            raise

    def trace(self, trace_id: str):
        """The retained span tree of a past query, by the trace id its
        :class:`QueryResult` / :class:`ExplainReport` carried; None when
        tracing is off or the ring evicted it."""
        tracer = self.db.tracer
        return tracer.get(trace_id) if tracer is not None else None

    def health(self) -> str:
        """Access-module health (the database's circuit-breaker board)."""
        return self.db.health()

    def ready(self) -> bool:
        """Readiness (vs. liveness): False while admission control is
        shedding a sustained fraction of recent traffic — the signal
        ``/health/ready`` turns into a 503 so load balancers route
        around an overloaded instance that is still alive."""
        return not self._closed and self.admission.ready()

    def cancel_all(self) -> int:
        """Set the cooperative stop flag of every admitted-but-unfinished
        query (running work stops at its next unit boundary; queued work
        sees the flag at pickup).  Returns the number of queries asked to
        stop — the prompt-exit lever ``SIGTERM`` handling relies on."""
        with self._pending_lock:
            pending = list(self._pending)
        for entry in pending:
            entry.stop.set()
        return len(pending)

    # -- mutations (serialized writers) ---------------------------------------

    def add_view(self, name: str, pattern: "Pattern | str", kind: str = "view"):
        with self._mutate_lock:
            entry = self.db.add_view(name, pattern, kind)
            self._purge_stale_pins()
            return entry

    def drop_view(self, name: str) -> None:
        with self._mutate_lock:
            self.db.drop_view(name)
            self._purge_stale_pins()

    def add_document_xml(self, source: str, name: str = "doc.xml"):
        with self._mutate_lock:
            doc = self.db.add_document_xml(source, name)
            self._purge_stale_plans()
            return doc

    def refresh_statistics(self) -> None:
        with self._mutate_lock:
            self.db.refresh_statistics()
            self._purge_stale_plans()

    def _purge_stale_plans(self) -> None:
        """Eagerly drop prepared plans, compiled batch artifacts *and*
        pinned plans made stale by a document or statistics mutation —
        no cached plan survives one (the lazy version check would catch
        them on the next lookup anyway)."""
        version = self.db.catalog_version
        self.cache.purge_stale(version)
        self.db.compiled_plans.purge_stale(version)
        self._purge_stale_pins()

    def _purge_stale_pins(self) -> None:
        """Drop pinned plans stamped before the latest mutation.  After a
        view mutation this is all that is purged: a cached plan is checked
        lazily, at its next lookup, against the views it could use."""
        self.db.plan_pins.purge_stale(self.db.catalog_version)

    # -- pinned plans --------------------------------------------------------

    def pin_plan(self, pin: PinnedPlan) -> None:
        """Install a tournament-promoted pin and evict any cached prepared
        plans for that query, so the very next execution re-prepares under
        the pin (a cached entry would otherwise keep serving the cost
        model's pick until a version bump)."""
        with self._mutate_lock:
            self.db.plan_pins.pin(pin)
            for key in self.cache.keys():
                if key[0] == pin.query:
                    self.cache.remove(key)

    def unpin(self, query: str) -> bool:
        """Drop the pin for a query (normalized form or raw text).
        Returns True when a pin existed."""
        with self._mutate_lock:
            dropped = self.db.plan_pins.drop(normalize_query(query))
            if dropped:
                for key in self.cache.keys():
                    if key[0] == normalize_query(query):
                        self.cache.remove(key)
            return dropped

    def pins(self) -> list[PinnedPlan]:
        """The currently installed pinned plans."""
        return self.db.plan_pins.entries()

    def load_pins(self, path: str) -> int:
        """Install pins persisted by a tournament run (``pins.json`` in
        its audit directory), re-stamped to the *current* catalog version
        — version numbers are process-local, so the stamp in the file only
        meant something to the process that wrote it.  Later mutations
        still invalidate the loaded pins through the version bump.
        Returns the number installed."""
        loaded = PlanPinStore.load(path)
        version = self.db.catalog_version
        with self._mutate_lock:
            for pin in loaded:
                self.pin_plan(pin.restamped(version))
        return len(loaded)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop accepting queries; optionally cancel queued ones and wait
        for running ones to drain.  An owned query log (one the service
        created itself) is flushed and closed; an injected one is left to
        its owner."""
        already_closed = self._closed
        self._closed = True
        if cancel_pending and not wait:
            # a non-waiting cancel shutdown (the SIGTERM / atexit path)
            # also stops *running* queries at their next unit boundary —
            # the pool's interpreter-exit join must not outlive them
            self.cancel_all()
        self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)
        if self.profiler is not None:
            self.profiler.stop()
        if self._owns_qlog and self.qlog is not None and not already_closed:
            self.qlog.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryService {self.cache.stats().render()}>"

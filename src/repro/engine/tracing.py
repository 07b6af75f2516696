"""Span-based tracing of the query lifecycle.

EXPLAIN (PR 1) answers "why this plan?" for one query run under
instrumentation; what it cannot answer is "what happened to the query
that was slow at 3am" — the plan choice, the cache outcome, the faults
injected, the breaker transitions, the retries, and where the time went,
*after the fact*.  This module records that story as a span tree:

========================  ====================================================
span                      covers
========================  ====================================================
``query``                 the whole lifecycle (the root; one per trace)
``parse``                 query text → AST
``extract``               AST → maximal query patterns (translation included)
``rewrite-search``        rewriting enumeration for one pattern (attributes:
                          candidates, containment tests, pre-filter
                          rejections, memo hits, caps reached)
``rank``                  cost-ranking the candidate rewritings
``compile``               logical → physical lowering
``execute``               running the prepared plan against the store
``unit``                  one extraction unit inside ``execute``
``pattern``               one pattern access inside a unit
``retry``                 one backoff sleep before a re-attempt
========================  ====================================================

plus zero-duration **event spans** (``cache.hit`` / ``cache.miss`` /
``cache.stale``, ``fault.injected``, ``breaker.opened``,
``degraded.reroute``, ``degraded.base-fallback``) stamped where PRs 2–3
only bumped counters.  Every span carries the trace id that
:class:`~repro.core.uload.QueryResult` / ``ExplainReport`` expose, so a
result in hand leads back to its full tree via :meth:`Tracer.get`.

Design constraints:

* **bounded**: the tracer keeps the last ``capacity`` traces in a ring —
  tracing a sustained workload must not leak (the same discipline the
  latency recorder's ring buffer follows);
* **cheap when off**: a ``None`` trace on the
  :class:`~repro.engine.context.ExecutionContext` makes ``span()`` /
  ``event()`` single-branch no-ops, keeping overhead well under the 5%
  budget the CI observability lane enforces;
* **single-writer spans, concurrent readers**: one query runs on one
  worker thread, but its trace is published in the tracer ring *while
  still open* — an HTTP scrape of ``/trace/<id>`` or a slow-query render
  can walk the tree mid-mutation.  Each trace therefore carries one
  plain lock: the writer takes it per span transition, readers take it
  to snapshot/render.  The tracer's ring and the slow-query log (shared
  across workers) keep their own locks.

:class:`SlowQueryLog` rides on top: the query service captures the
rendered span tree of any query slower than a configurable threshold —
the production answer to "which queries hurt, and why".
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "SlowQueryLog",
    "SlowQuery",
    "active_spans",
]


_ids = itertools.count(1)


def _next_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):08x}"


#: thread ident → (trace_id, innermost open span name), maintained by
#: span transitions so the continuous profiler's sampler thread can tag
#: stack samples with the query phase running on each worker.  Writes are
#: single-key dict stores from the owning worker thread and reads are a
#: ``dict()`` copy — both atomic under the GIL, so no lock is paid on the
#: span hot path (the tracing-overhead CI gate budget).
_ACTIVE_SPANS: dict[int, tuple[str, str]] = {}


def active_spans() -> dict[int, tuple[str, str]]:
    """Snapshot of the per-thread active spans: ``{thread ident:
    (trace_id, span name)}``.  Entries disappear when their trace
    finishes and are overwritten by the next query on the same worker."""
    return dict(_ACTIVE_SPANS)


@dataclass
class Span:
    """One timed step of a query's lifecycle.

    ``end`` is None while the span is open; :meth:`finish` is one-shot
    (double-finishing is a tracing bug and raises, which is what the
    stress suite leans on to prove no span is double-closed).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    status: str = "ok"
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def ended(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, status: str = "ok", **attributes) -> "Span":
        if self.end is not None:
            raise RuntimeError(
                f"span {self.name!r} ({self.span_id}) finished twice"
            )
        self.end = time.perf_counter()
        self.status = status
        if attributes:
            self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        duration = self.duration
        timing = "…open…" if duration is None else f"{duration * 1000:.3f}ms"
        text = f"{'  ' * indent}{self.name}  [{timing}]"
        if self.status != "ok":
            text += f" status={self.status}"
        if self.attributes:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(self.attributes.items())
            )
            text += f"  {attrs}"
        lines = [text]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }


class Trace:
    """The span tree of one query lifecycle.

    Spans are created through the owning :class:`Tracer` (or the
    execution context's ``span()`` helper) and always attach under the
    current innermost open span, so the tree mirrors the call structure.
    """

    def __init__(self, trace_id: str, root_name: str = "query"):
        self.trace_id = trace_id
        self.root = Span(
            name=root_name,
            trace_id=trace_id,
            span_id=_next_id("s"),
            start=time.perf_counter(),
        )
        self._stack: list[Span] = [self.root]
        _ACTIVE_SPANS[threading.get_ident()] = (trace_id, root_name)
        # guards _stack and every Span's children list: the owning worker
        # is the only writer, but /trace/<id> scrapes read open traces
        # concurrently.  Plain Lock — locked methods inline the stack
        # access instead of re-entering through ``current``.
        self._lock = threading.Lock()

    # -- span lifecycle -----------------------------------------------------

    @property
    def current(self) -> Span:
        with self._lock:
            return self._stack[-1] if self._stack else self.root

    def start_span(self, name: str, **attributes) -> Span:
        with self._lock:
            parent = self._stack[-1] if self._stack else self.root
            span = Span(
                name=name,
                trace_id=self.trace_id,
                span_id=_next_id("s"),
                parent_id=parent.span_id,
                start=time.perf_counter(),
                attributes=dict(attributes),
            )
            parent.children.append(span)
            self._stack.append(span)
            _ACTIVE_SPANS[threading.get_ident()] = (self.trace_id, name)
            return span

    def finish_span(self, span: Span, status: str = "ok", **attributes) -> None:
        with self._lock:
            span.finish(status, **attributes)
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            if self._stack:
                _ACTIVE_SPANS[threading.get_ident()] = (
                    self.trace_id,
                    self._stack[-1].name,
                )

    def event(self, name: str, **attributes) -> Span:
        """A zero-duration child span marking a point event (cache
        outcome, fault injection, breaker transition, reroute)."""
        with self._lock:
            parent = self._stack[-1] if self._stack else self.root
            now = time.perf_counter()
            span = Span(
                name=name,
                trace_id=self.trace_id,
                span_id=_next_id("s"),
                parent_id=parent.span_id,
                start=now,
                end=now,
                attributes=dict(attributes),
            )
            parent.children.append(span)
            return span

    def finish(self, status: str = "ok") -> None:
        """Close the trace: any still-open non-root spans are finished
        with the trace's final status (an error propagating out of a span
        body unwinds through here), then the root."""
        with self._lock:
            while len(self._stack) > 1:
                self._stack[-1].finish(status)
                self._stack.pop()
            if not self.root.ended:
                self.root.finish(status)
                self._stack.clear()
            ident = threading.get_ident()
            if _ACTIVE_SPANS.get(ident, (None,))[0] == self.trace_id:
                _ACTIVE_SPANS.pop(ident, None)

    # -- introspection ------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.root.ended

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self.root.walk())

    def find(self, name: str) -> list[Span]:
        with self._lock:
            return [span for span in self.root.walk() if span.name == name]

    def complete(self) -> bool:
        """Every span closed and reachable from the root — the "no span
        orphaned or double-closed" check, structurally."""
        with self._lock:
            return all(span.ended for span in self.root.walk())

    def render(self) -> str:
        with self._lock:
            return self.root.pretty()

    def as_dict(self) -> dict:
        with self._lock:
            return {"trace_id": self.trace_id, "root": self.root.as_dict()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.trace_id} {len(self.spans())} spans>"


class Tracer:
    """Creates traces and retains the most recent ``capacity`` of them.

    The ring is insertion-ordered: starting trace N+capacity evicts the
    oldest.  Lookup by trace id serves the ``/trace/<id>`` HTTP route and
    the ``.trace`` REPL command.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._lock = threading.Lock()
        self._started = 0
        self._evicted = 0

    def start_trace(self, root_name: str = "query") -> Trace:
        trace = Trace(_next_id("t"), root_name)
        with self._lock:
            self._started += 1
            self._traces[trace.trace_id] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self._evicted += 1
        return trace

    def get(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            return self._traces.get(trace_id)

    def traces(self) -> list[Trace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    @property
    def started(self) -> int:
        with self._lock:
            return self._started

    @property
    def evicted(self) -> int:
        with self._lock:
            return self._evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self)}/{self.capacity} traces>"


@dataclass(frozen=True)
class SlowQuery:
    """One slow-query log entry: enough to reconstruct the incident
    without the tracer ring still holding the trace."""

    trace_id: str
    query: str
    seconds: float
    outcome: str
    rendered: str  # the full span tree, rendered at capture time
    #: plan fingerprint of the execution that was slow — actionable
    #: without cross-referencing the query log
    plan_fingerprint: str = ""
    #: which engine ran it ("iter"/"batch")
    executor: str = ""
    #: top CPU-consuming operators ("label cpu=…ms" strings), present
    #: only when the query ran with attributed profiling enabled
    top_cpu: tuple = ()

    def summary(self) -> str:
        text = (
            f"{self.seconds * 1000:.1f}ms [{self.outcome}] "
            f"trace={self.trace_id} {self.query}"
        )
        if self.plan_fingerprint:
            text += f" plan={self.plan_fingerprint}"
        if self.executor:
            text += f" executor={self.executor}"
        return text


class SlowQueryLog:
    """Bounded log of queries that exceeded the latency threshold.

    ``threshold`` is in seconds; ``None`` disables capture entirely (the
    check then costs one comparison).  The service records the *full*
    rendered span tree at capture time: a slow query's trace may be
    evicted from the tracer ring long before anyone reads the log.
    """

    def __init__(self, threshold: Optional[float] = None, capacity: int = 64):
        self.threshold = threshold
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._captured = 0

    def consider(
        self,
        query: str,
        seconds: float,
        outcome: str,
        trace: Optional[Trace],
        plan_fingerprint: str = "",
        executor: str = "",
        top_cpu: tuple = (),
    ) -> Optional[SlowQuery]:
        if self.threshold is None or seconds < self.threshold:
            return None
        entry = SlowQuery(
            trace_id=trace.trace_id if trace is not None else "",
            query=query,
            seconds=seconds,
            outcome=outcome,
            rendered=trace.render() if trace is not None else "(tracing disabled)",
            plan_fingerprint=plan_fingerprint,
            executor=executor,
            top_cpu=tuple(top_cpu),
        )
        with self._lock:
            self._entries.append(entry)
            self._captured += 1
        return entry

    def entries(self) -> list[SlowQuery]:
        with self._lock:
            return list(self._entries)

    @property
    def captured(self) -> int:
        with self._lock:
            return self._captured

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "no slow queries captured"
        lines = []
        for entry in entries:
            lines.append(entry.summary())
            for rank, op in enumerate(entry.top_cpu, 1):
                lines.append(f"  cpu#{rank} {op}")
            lines.extend(f"  {line}" for line in entry.rendered.splitlines())
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

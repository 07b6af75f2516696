"""Resource profiling: attributed per-operator CPU/memory + stack sampling.

PR 1's ``PlanMetrics`` records per-operator *wall* time, which says where
elapsed time went but not where the CPU or the allocations went — and the
cost units feeding ``rank_rewritings`` and the plan tournament had never
been checked against observed resource usage.  This module adds the two
collection modes that close the gap:

**Mode 1 — attributed profiling** (per query, opt-in via
``Database(profile=True)`` / ``$REPRO_PROFILE``).  The batch engine already
observes every operator at block granularity; with
``ExecutionContext.profile`` set, those same observation points also read
``time.thread_time_ns()`` (per-thread CPU, so concurrent queries do not
bleed into each other) and sample ``tracemalloc``'s traced-allocation
counter, filling :attr:`OperatorMetrics.cpu_ns` and
:attr:`OperatorMetrics.peak_mem_bytes`.  The numbers flow into
``QueryResult``, EXPLAIN, the query log (``cpu_ms`` / ``peak_mem_kb``)
and — through :mod:`repro.engine.calibrate` — the cost-model calibration
report.

**Mode 2 — continuous sampling** (always-on capable).  A daemon thread
walks ``sys._current_frames()`` at a configurable rate, tags each worker
thread's stack with the active query span published by
:func:`repro.engine.tracing.active_spans`, and aggregates into
collapsed-stack form (``frame;frame;frame count``) — the input format of
flamegraph.pl and speedscope.  The aggregate is bounded: at most
``max_stacks`` distinct stacks are retained and overflow increments the
``profiler.dropped`` counter, so an always-on sampler cannot leak.

:class:`Profiler` is the facade the query service and HTTP endpoint
share: it owns the sampler plus a bounded ring of per-query attributed
profiles linked to trace ids.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import tracemalloc
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "PROFILE_ENV_VAR",
    "resolve_profile",
    "traced_memory",
    "StackSampler",
    "QueryProfile",
    "Profiler",
    "valid_trace_id",
]

#: environment override for the attributed-profiling default: truthy
#: values ("1", "true", "on", "yes") enable
PROFILE_ENV_VAR = "REPRO_PROFILE"

_TRUTHY = frozenset({"1", "true", "on", "yes"})
_FALSY = frozenset({"0", "false", "off", "no", ""})

#: trace ids are ``t`` + a lowercase hex counter (see tracing._next_id);
#: anything else on ``/profile?trace=`` is malformed, not merely unknown
_TRACE_ID_RE = re.compile(r"t[0-9a-f]{1,16}")


def resolve_profile(value) -> bool:
    """Resolve the attributed-profiling flag: explicit argument wins,
    then ``$REPRO_PROFILE``, then off.  Unrecognized strings raise — a
    typo silently disabling profiling would defeat the point."""
    if value is None:
        value = os.environ.get(PROFILE_ENV_VAR)
        if value is None:
            return False
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUTHY:
        return True
    if text in _FALSY:
        return False
    raise ValueError(
        f"invalid profile setting {value!r}: expected one of "
        "true/false/on/off/1/0/yes/no"
    )


def valid_trace_id(trace_id: str) -> bool:
    return bool(_TRACE_ID_RE.fullmatch(trace_id))


# ---------------------------------------------------------------------------
# Bounded tracemalloc window
# ---------------------------------------------------------------------------

#: Default stride for the peak-memory column: attributed CPU costs two
#: clock reads per observation point and runs on every profiled query,
#: but a live tracemalloc session roughly doubles allocation cost — so
#: only every Nth profiled query per database opens the window (the
#: first always does).  ``Database.profile_memory_stride`` overrides.
MEM_SAMPLE_STRIDE = 16

_mem_lock = threading.Lock()
_mem_refs = 0
_mem_owner = False  # we called tracemalloc.start(); we must stop it


@contextmanager
def traced_memory(frames: int = 1) -> Iterator[None]:
    """Refcounted tracemalloc window: starts tracing (bounded to
    ``frames`` frames — depth 1 keeps the per-allocation overhead at its
    floor) when no window is open, and stops it when the last concurrent
    window closes *iff* this module started it.  An application that
    already runs tracemalloc keeps ownership."""
    global _mem_refs, _mem_owner
    with _mem_lock:
        if _mem_refs == 0 and not tracemalloc.is_tracing():
            tracemalloc.start(frames)
            _mem_owner = True
        _mem_refs += 1
    try:
        yield
    finally:
        with _mem_lock:
            _mem_refs -= 1
            if _mem_refs == 0 and _mem_owner:
                tracemalloc.stop()
                _mem_owner = False


# ---------------------------------------------------------------------------
# Mode 2: the continuous stack sampler
# ---------------------------------------------------------------------------

class StackSampler:
    """Background thread sampling every live thread's Python stack.

    Aggregation is collapsed-stack: one counter per distinct
    root-first ``;``-joined frame chain.  Worker threads running a traced
    query get a synthetic leading frame ``query:<span>`` (the innermost
    open lifecycle span), so flamegraphs separate parse/compile/execute
    time without symbol archaeology.  The sampler's own thread is
    excluded.

    Bounded by construction: ``max_stacks`` distinct chains and
    ``max_depth`` frames per chain; overflow counts into ``dropped`` (and
    the ``profiler.dropped`` registry counter when one is attached).
    """

    def __init__(
        self,
        hz: float = 19.0,
        registry=None,
        max_stacks: int = 4096,
        max_depth: int = 48,
    ):
        if hz <= 0:
            raise ValueError("sampler hz must be > 0")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.registry = registry
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples = 0
        self.dropped = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    # -- the sampling loop --------------------------------------------------

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop.wait(interval):
            self.sample_once(skip_ident=me)

    def sample_once(self, skip_ident: Optional[int] = None) -> int:
        """Take one sample of every thread; returns threads sampled.
        Public so tests can drive the aggregation deterministically
        without racing a live thread."""
        from .tracing import active_spans

        tags = active_spans()
        frames = sys._current_frames()
        taken = 0
        for ident, frame in frames.items():
            if ident == skip_ident:
                continue
            chain: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                chain.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]}:{frame.f_lineno})")
                frame = frame.f_back
                depth += 1
            chain.reverse()
            tag = tags.get(ident)
            if tag is not None:
                chain.insert(0, f"query:{tag[1]}")
            key = ";".join(chain)
            with self._lock:
                if key in self._counts:
                    self._counts[key] += 1
                elif len(self._counts) < self.max_stacks:
                    self._counts[key] = 1
                else:
                    self.dropped += 1
                    if self.registry is not None:
                        self.registry.inc("profiler.dropped")
                    continue
                self.samples += 1
            if self.registry is not None:
                self.registry.inc("profiler.samples")
            taken += 1
        return taken

    # -- exposition ---------------------------------------------------------

    def collapsed(self) -> str:
        """The aggregate in collapsed-stack text form, highest count
        first — pipe straight into flamegraph.pl or speedscope."""
        with self._lock:
            items = sorted(self._counts.items(), key=lambda kv: -kv[1])
        return "\n".join(f"{stack} {count}" for stack, count in items)

    def top_frames(self, n: int = 10) -> list[dict]:
        """Leaf-frame ranking: which function was on-CPU most often."""
        leaves: dict[str, int] = {}
        with self._lock:
            for stack, count in self._counts.items():
                leaf = stack.rsplit(";", 1)[-1]
                leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda kv: -kv[1])[:n]
        return [{"frame": frame, "samples": count} for frame, count in ranked]

    def snapshot(self) -> dict:
        with self._lock:
            distinct = len(self._counts)
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.samples,
            "dropped": self.dropped,
            "distinct_stacks": distinct,
            "top": self.top_frames(),
        }


# ---------------------------------------------------------------------------
# Attributed per-query profiles
# ---------------------------------------------------------------------------

@dataclass
class QueryProfile:
    """The attributed resource profile of one executed query."""

    trace_id: str
    query: str
    seconds: float
    #: flat pre-order operator rows: label / est / actual / wall ms /
    #: inclusive cpu ms / exclusive cpu ms / peak traced KB
    operators: list[dict] = field(default_factory=list)

    @property
    def cpu_ms(self) -> float:
        """Inclusive CPU of the plan roots (depth-0 operators)."""
        return sum(op["cpu_ms"] for op in self.operators if op["depth"] == 0)

    def top_cpu(self, n: int = 3) -> list[dict]:
        ranked = [op for op in self.operators if op["self_cpu_ms"] > 0]
        ranked.sort(key=lambda op: -op["self_cpu_ms"])
        return ranked[:n]

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "query": self.query,
            "seconds": self.seconds,
            "cpu_ms": self.cpu_ms,
            "operators": list(self.operators),
        }

    @classmethod
    def from_result(cls, query: str, result, seconds: float) -> "QueryProfile":
        """Flatten a ``QueryResult``'s metrics trees (one per executed
        plan) into profile rows."""
        operators: list[dict] = []

        def visit(node, depth: int) -> None:
            operators.append(
                {
                    "label": node.label,
                    "depth": depth,
                    "est": node.estimated_rows,
                    "actual": node.rows_out,
                    "ms": round(node.elapsed * 1000, 4),
                    "cpu_ms": round(node.cpu_ns / 1e6, 4),
                    "self_cpu_ms": round(node.self_cpu_ns / 1e6, 4),
                    "peak_mem_kb": round(node.peak_mem_bytes / 1024, 2),
                }
            )
            for child in node.children:
                visit(child, depth + 1)

        for plan_metrics in getattr(result, "metrics", ()) or ():
            visit(plan_metrics.root, 0)
        return cls(
            trace_id=getattr(result, "trace_id", None) or "",
            query=query,
            seconds=seconds,
            operators=operators,
        )


class Profiler:
    """Facade over both collection modes, owned by the query service.

    * ``record(query, result, seconds)`` files an attributed
      :class:`QueryProfile` into a bounded trace-id-keyed ring;
    * the optional :class:`StackSampler` (``sample_hz``) runs
      continuously and feeds ``/flamegraph``;
    * ``payload()`` / ``for_trace()`` back the ``/profile`` HTTP route.
    """

    def __init__(
        self,
        registry=None,
        sample_hz: Optional[float] = None,
        ring_capacity: int = 128,
    ):
        self.registry = registry
        self.ring_capacity = ring_capacity
        self._ring: "OrderedDict[str, QueryProfile]" = OrderedDict()
        self._lock = threading.Lock()
        self._recorded = 0
        self.sampler: Optional[StackSampler] = (
            StackSampler(hz=sample_hz, registry=registry)
            if sample_hz
            else None
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.sampler is not None:
            self.sampler.start()

    def stop(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()

    # -- attributed ring ----------------------------------------------------

    def record(self, query: str, result, seconds: float) -> Optional[QueryProfile]:
        profile = QueryProfile.from_result(query, result, seconds)
        if not profile.operators:
            return None
        key = profile.trace_id or f"untraced-{self._recorded}"
        with self._lock:
            self._recorded += 1
            self._ring[key] = profile
            while len(self._ring) > self.ring_capacity:
                self._ring.popitem(last=False)
        if self.registry is not None:
            self.registry.inc("profiler.queries")
        return profile

    def for_trace(self, trace_id: str) -> Optional[QueryProfile]:
        with self._lock:
            return self._ring.get(trace_id)

    def profiles(self) -> list[QueryProfile]:
        """Ring contents, oldest first."""
        with self._lock:
            return list(self._ring.values())

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    # -- exposition ---------------------------------------------------------

    def payload(self) -> dict:
        profiles = self.profiles()
        return {
            "recorded": self.recorded,
            "ring": [
                {
                    "trace_id": p.trace_id,
                    "query": p.query,
                    "seconds": p.seconds,
                    "cpu_ms": p.cpu_ms,
                    "top_cpu": [
                        f"{op['label']} cpu={op['self_cpu_ms']:.2f}ms"
                        for op in p.top_cpu()
                    ],
                }
                for p in reversed(profiles)
            ],
            "sampler": self.sampler.snapshot() if self.sampler else None,
        }

    def flamegraph(self) -> Optional[str]:
        if self.sampler is None:
            return None
        return self.sampler.collapsed()

"""The execution context: one object threading the plan lifecycle together.

The thesis' central promise (§1.2.3–§1.2.4) is that the optimizer picks
among XAM-described access paths; the *quality* of that choice — and the
ability to observe it — is what physical data independence buys.  Before
this module, plan compilation (:func:`repro.engine.physical.compile_plan`),
rewriting selection (:func:`repro.core.statistics.rank_rewritings`) and
execution were wired ad hoc: no shared statistics, no runtime metrics, no
way to ask "why this plan?".

:class:`ExecutionContext` is the shared spine:

* a **statistics provider** answering "how many tuples does this base
  relation / tree pattern hold?" (summary- or store-backed);
* a **cost model** turning those cardinalities into operator costs, so the
  compiler chooses join algorithms and sort placement from estimates
  rather than fixed rules;
* a set of **tunables** (selectivities, per-tuple cost constants) in one
  place instead of scattered literals;
* an **operator registry** mapping logical operator types to lowering
  functions, so new physical operators plug in without editing the
  compiler;
* a **metrics sink**: :meth:`ExecutionContext.instrument` attaches an
  :class:`OperatorMetrics` node to every physical operator, and execution
  records tuples-in/out and wall time into the resulting
  :class:`PlanMetrics` tree — the "actual" column of EXPLAIN.

The module is deliberately independent of the physical operators (the
compiler imports *it*, not the other way around), so the core and CLI
layers can build contexts without pulling the whole engine in.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional

__all__ = [
    "Tunables",
    "CostModel",
    "StatisticsProvider",
    "EmptyStatistics",
    "OperatorMetrics",
    "PlanMetrics",
    "ExecutionContext",
    "EXEC_CTX_KEY",
]

#: reserved data-context key under which :meth:`ExecutionContext.run` (and
#: the database's rewriting executor) exposes the execution context to
#: operators at runtime — read with ``context.get(EXEC_CTX_KEY)``, which
#: bypasses the fault-checked ``__getitem__`` of store contexts.  Operators
#: use it to bump counters (e.g. ``fallback.materialized_rows``) without
#: pinning a context onto cached plans.
EXEC_CTX_KEY = "__execution_context__"


# ---------------------------------------------------------------------------
# Tunables & cost model
# ---------------------------------------------------------------------------

@dataclass
class Tunables:
    """Knobs of the estimator and cost model, gathered in one place.

    Cost constants are abstract "work units per tuple"; only their ratios
    matter (they decide algorithm choices, not absolute predictions).
    """

    #: selectivity of a value predicate on a pattern node / σ operator
    predicate_selectivity: float = 0.1
    #: selectivity of an equality value-join predicate (per tuple pair)
    equality_join_selectivity: float = 0.1
    #: expected matches per qualifying pair of a structural join
    structural_selectivity: float = 0.5
    #: fraction of distinct tuples surviving a duplicate-eliminating π⁰ / γ
    dedup_factor: float = 0.5
    #: average member count of an unnested collection
    collection_fanout: float = 2.0
    #: assumed size of a base relation with no statistics at all
    unknown_relation_size: float = 1000.0
    #: per-tuple cost of inserting into a hash table (build side)
    hash_build_cost: float = 2.0
    #: per-tuple cost of probing a hash table
    hash_probe_cost: float = 1.0
    #: per-pair cost of a nested-loops predicate evaluation
    nested_loops_pair_cost: float = 1.0
    #: per-tuple cost factor of a B+-tree sort (times log₂ n)
    sort_tuple_cost: float = 1.0


class CostModel:
    """Cardinalities → operator costs → algorithm choices.

    The compiler asks :meth:`choose_join`; benchmarks and tests can ask
    the raw cost functions to assert *why*.
    """

    def __init__(self, tunables: Optional[Tunables] = None):
        self.tunables = tunables or Tunables()

    def _known(self, rows: Optional[float]) -> float:
        if rows is None:
            return self.tunables.unknown_relation_size
        return max(float(rows), 0.0)

    def nested_loops_cost(self, left: Optional[float], right: Optional[float]) -> float:
        """Materialize right, evaluate the predicate on every pair."""
        l, r = self._known(left), self._known(right)
        return self.tunables.nested_loops_pair_cost * l * r

    def hash_join_cost(self, left: Optional[float], right: Optional[float]) -> float:
        """Build a table on right, probe once per left tuple."""
        l, r = self._known(left), self._known(right)
        return self.tunables.hash_build_cost * r + self.tunables.hash_probe_cost * l

    def sort_cost(self, rows: Optional[float]) -> float:
        import math

        n = self._known(rows)
        return self.tunables.sort_tuple_cost * n * math.log2(n + 2)

    def choose_join(self, left: Optional[float], right: Optional[float]) -> str:
        """``"hash"`` or ``"nested"`` for an equality value join.

        Tiny inputs do not amortize the hash-table build; everything else
        does.  Ties go to the hash join (it scales, the loops do not).
        """
        if self.nested_loops_cost(left, right) < self.hash_join_cost(left, right):
            return "nested"
        return "hash"


# ---------------------------------------------------------------------------
# Statistics providers
# ---------------------------------------------------------------------------

class StatisticsProvider:
    """What the estimator may ask about the database.

    ``None`` answers mean "unknown"; the cost model substitutes
    :attr:`Tunables.unknown_relation_size`.
    """

    def relation_size(self, name: str) -> Optional[float]:
        raise NotImplementedError

    def pattern_cardinality(self, pattern) -> Optional[float]:
        raise NotImplementedError


class EmptyStatistics(StatisticsProvider):
    """No statistics at all (stand-alone ``compile_plan`` calls)."""

    def relation_size(self, name: str) -> Optional[float]:
        return None

    def pattern_cardinality(self, pattern) -> Optional[float]:
        return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class OperatorMetrics:
    """Runtime record of one physical operator.

    ``elapsed`` is inclusive wall time: seconds spent running this
    operator's closure, children included (a child's time is also part of
    every ancestor's).  ``rows_in`` derives from the children's outputs.
    """

    label: str
    estimated_rows: Optional[float] = None
    rows_out: int = 0
    elapsed: float = 0.0
    executions: int = 0
    #: inclusive thread CPU time (``time.thread_time_ns``) spent running
    #: this operator, children included; stays 0 unless the query ran with
    #: attributed profiling enabled
    cpu_ns: int = 0
    #: peak traced allocation (bytes) observed while this operator ran —
    #: the high-water delta between operator open and close under a
    #: bounded ``tracemalloc`` window; 0 unless profiling was enabled
    peak_mem_bytes: int = 0
    children: list["OperatorMetrics"] = field(default_factory=list)

    @property
    def rows_in(self) -> int:
        return sum(child.rows_out for child in self.children)

    @property
    def self_cpu_ns(self) -> int:
        """Exclusive CPU: inclusive minus the children's inclusive CPU
        (clamped — clock granularity can make a child appear costlier
        than its parent)."""
        return max(0, self.cpu_ns - sum(child.cpu_ns for child in self.children))

    def walk(self) -> Iterator["OperatorMetrics"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        est = "?" if self.estimated_rows is None else f"{self.estimated_rows:.1f}"
        line = (
            f"{'  ' * indent}{self.label}  "
            f"[est={est} act={self.rows_out} time={self.elapsed * 1000:.2f}ms"
        )
        if self.cpu_ns or self.peak_mem_bytes:
            line += (
                f" cpu={self.cpu_ns / 1e6:.2f}ms"
                f" mem={self.peak_mem_bytes / 1024:.1f}KB"
            )
        line += "]"
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass
class PlanMetrics:
    """The metrics tree of one executed physical plan."""

    root: OperatorMetrics

    def walk(self) -> Iterator[OperatorMetrics]:
        return self.root.walk()

    def pretty(self) -> str:
        return self.root.pretty()

    def total_rows(self) -> int:
        return self.root.rows_out

    def find(self, label_prefix: str) -> list[OperatorMetrics]:
        return [m for m in self.walk() if m.label.startswith(label_prefix)]

    def total_cpu_ns(self) -> int:
        """Inclusive CPU of the whole plan (the root's attribution)."""
        return self.root.cpu_ns

    def top_cpu(self, n: int = 3) -> list[OperatorMetrics]:
        """The ``n`` operators with the largest *exclusive* CPU share —
        empty when the plan ran without attributed profiling."""
        ranked = [m for m in self.walk() if m.self_cpu_ns > 0]
        ranked.sort(key=lambda m: m.self_cpu_ns, reverse=True)
        return ranked[:n]


# ---------------------------------------------------------------------------
# The context itself
# ---------------------------------------------------------------------------

#: a lowering function: (logical op, recursive lower, context) → physical op
LoweringFn = Callable[[Any, Callable, "ExecutionContext"], Any]


class ExecutionContext:
    """Shared state of one query's compile-and-execute lifecycle.

    ``uload.Database`` builds one per query; stand-alone engine users get
    a default one with empty statistics.  The context owns:

    * :attr:`statistics` / :attr:`cost_model` / :attr:`tunables` — the
      estimator stack;
    * :attr:`registry` — ``{logical type: lowering function}`` overrides
      consulted by :func:`repro.engine.physical.compile_plan` before its
      built-in rules;
    * :attr:`metrics` — one :class:`PlanMetrics` per instrumented plan,
      in instrumentation order (the sink EXPLAIN reads from).
    """

    def __init__(
        self,
        statistics: Optional[StatisticsProvider] = None,
        cost_model: Optional[CostModel] = None,
        tunables: Optional[Tunables] = None,
        registry: Optional[Mapping[type, LoweringFn]] = None,
        metrics_registry=None,
    ):
        self.tunables = tunables or Tunables()
        self.statistics = statistics or EmptyStatistics()
        self.cost_model = cost_model or CostModel(self.tunables)
        self.registry: dict[type, LoweringFn] = dict(registry or {})
        self.metrics: list[PlanMetrics] = []
        #: named event counters threaded through the lifecycle (the query
        #: service records plan-cache hits/misses here; EXPLAIN and
        #: ``query(stats=True)`` surface them next to the plan metrics)
        self.counters: dict[str, float] = {}
        #: optional process-wide
        #: :class:`~repro.engine.metrics.MetricsRegistry` that every
        #: :meth:`bump` is forwarded to — the invariant the stress suite
        #: checks is that registry totals equal the sum of the per-query
        #: ``counters`` dicts
        self.metrics_registry = metrics_registry
        #: optional :class:`~repro.engine.tracing.Trace` of this query's
        #: lifecycle; None disables tracing (``span`` / ``event`` become
        #: single-branch no-ops)
        self.trace = None
        #: optional :class:`~repro.engine.faults.FaultInjector` activated
        #: around this query's execution (chaos mode); None in production
        self.fault_injector = None
        #: attributed resource profiling: when True, the batch closures pay
        #: the extra ``thread_time_ns`` reads per observation point and a
        #: bounded tracemalloc window, filling ``OperatorMetrics.cpu_ns``
        #: and ``peak_mem_bytes``.  Off by default — the unprofiled hot
        #: path must not grow even a branch on a flag read per block.
        self.profile = False
        #: whether THIS profiled run opens the tracemalloc window for the
        #: peak-memory column.  CPU attribution is near-free and runs on
        #: every profiled query; live tracemalloc roughly doubles
        #: allocation cost, so ``Database.execution_context`` samples it
        #: every ``profile_memory_stride``-th profiled query (stand-alone
        #: contexts default to sampling every run).
        self.mem_sample = True
        self._estimates: dict[int, Optional[float]] = {}

    # -- counters -----------------------------------------------------------

    def bump(self, name: str, value: float = 1.0) -> None:
        """Increment a named counter in the metrics sink (and its
        process-wide mirror, when a registry is attached)."""
        self.counters[name] = self.counters.get(name, 0.0) + value
        if self.metrics_registry is not None:
            self.metrics_registry.inc(name, value)

    # -- tracing ------------------------------------------------------------

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Any]:
        """A lifecycle span covering the ``with`` body; no-op when tracing
        is off.  An escaping exception marks the span (and, through
        :meth:`end_trace`, the trace) as errored."""
        if self.trace is None:
            yield None
            return
        span = self.trace.start_span(name, **attributes)
        try:
            yield span
        except BaseException as error:
            self.trace.finish_span(
                span, status="error", error=type(error).__name__
            )
            raise
        else:
            self.trace.finish_span(span)

    def event(self, name: str, **attributes) -> None:
        """A zero-duration point event in the trace; no-op when off."""
        if self.trace is not None:
            self.trace.event(name, **attributes)

    def end_trace(self, status: str = "ok") -> None:
        """Close this query's trace (idempotent — retries re-enter the
        execution path on the same context, and only the outcome that
        sticks should close the root)."""
        if self.trace is not None and not self.trace.done:
            self.trace.finish(status)

    # -- estimation ---------------------------------------------------------

    def estimate(self, op) -> Optional[float]:
        """Estimated output cardinality of a logical operator (cached by
        node identity, so shared subtrees are walked once)."""
        key = id(op)
        if key not in self._estimates:
            self._estimates[key] = op.estimated_cardinality(self)
        return self._estimates[key]

    # -- compilation --------------------------------------------------------

    def compile(self, logical, scan_orders: Optional[Mapping[str, str]] = None):
        """Lower a logical plan through the cost-based compiler."""
        from .physical import compile_plan

        with self.span("compile"):
            return compile_plan(logical, scan_orders, context=self)

    # -- instrumentation & execution ---------------------------------------

    def instrument(self, physical) -> PlanMetrics:
        """Attach a fresh metrics node to every operator of a physical
        plan; execution then records into them."""

        profiled = bool(self.profile)

        def build(op) -> OperatorMetrics:
            node = OperatorMetrics(
                label=op.label(), estimated_rows=op.estimated_rows
            )
            node.children = [build(child) for child in op.children]
            op.metrics = node
            # must be (re)stamped every time: compiled plans are cached
            # and reused across queries with different profile settings
            op.profiled = profiled
            return node

        plan_metrics = PlanMetrics(build(physical))
        self.metrics.append(plan_metrics)
        return plan_metrics

    def run(
        self, physical, data_context=None, batch_fn=None
    ) -> tuple[list, PlanMetrics]:
        """Instrument, execute to completion, and return (tuples, metrics).

        ``batch_fn`` is the plan's compiled batch closure (see
        :func:`repro.engine.batch.compile_batch`), typically a cached one;
        without it the plan is compiled here.  Metrics land in the
        instrumented nodes, accumulated per block.  The context publishes
        itself into the data context under :data:`EXEC_CTX_KEY` so
        operators can reach the counter sink at runtime.
        """
        if batch_fn is None:
            from .batch import compile_batch

            batch_fn = compile_batch(physical)
        plan_metrics = self.instrument(physical)
        if data_context is not None:
            try:
                data_context[EXEC_CTX_KEY] = self
            except TypeError:  # read-only mapping: operators just lose counters
                pass
        if self.profile:
            # the peak-memory column needs tracemalloc live, but tracing
            # roughly doubles allocation cost — only the sampled runs
            # (``mem_sample``) open the refcounted window; the others
            # still attribute CPU, and the observation points read
            # (0, 0) from the idle tracer so the memory column stays 0
            from .profiler import traced_memory

            window = traced_memory() if self.mem_sample else nullcontext()
            with window:
                cpu_started = time.thread_time_ns()
                tuples = batch_fn(data_context).tuples
                drive_cpu = time.thread_time_ns() - cpu_started
            # the drive loop and the observation points themselves burn
            # CPU between operator windows; fold that overhead into the
            # root's inclusive time (it surfaces as root self-CPU), so
            # attributed CPU accounts for the whole plan execution
            if drive_cpu > plan_metrics.root.cpu_ns:
                plan_metrics.root.cpu_ns = drive_cpu
        else:
            tuples = batch_fn(data_context).tuples
        return tuples, plan_metrics

    # -- timing primitive used by the physical layer ------------------------

    @staticmethod
    def clock() -> float:
        return time.perf_counter()

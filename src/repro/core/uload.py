"""The ULoad-style database facade (thesis Fig. 5.1 and [13]).

:class:`Database` wires the full pipeline together:

1. documents are loaded, labeled and summarized;
2. storage structures / indexes / materialized views are installed — each
   is *described to the optimizer purely as a XAM* in the catalog;
3. an XQuery (the Q subset) is parsed, translated, and its **maximal
   query patterns** extracted (Chapter 3);
4. each query pattern is rewritten over the view catalog under summary
   constraints (Chapters 4–5); patterns without a usable rewriting fall
   back to direct evaluation against the documents (the "base store"
   access path, itself describable as XAMs);
5. the per-pattern plans are stitched into the full query plan (value
   joins / products + compensations + XML construction) and executed.

Dropping or adding a view changes future access-path choices without any
other code change — the physical data independence the thesis targets.

Every query builds one :class:`~repro.engine.context.ExecutionContext`
carrying summary/store statistics, the cost model and the metrics sink;
rewriting selection, plan compilation and execution all read from it.
:meth:`Database.explain` exposes the whole lifecycle: the logical plan,
the rewritten (view-based) plans, and the compiled physical plan with
estimated *and* actual per-operator cardinalities and timings.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from ..algebra.model import NestedTuple
from ..algebra.operators import Operator
from ..engine import faults
from ..engine.batch import compile_batch
from ..engine.breaker import OPEN, BreakerBoard
from ..engine.context import (
    EXEC_CTX_KEY,
    ExecutionContext,
    OperatorMetrics,
    PlanMetrics,
)
from ..engine.metrics import MetricsRegistry, get_registry
from ..engine.physical import PScan
from ..engine.plan_cache import (
    CompiledPlanArtifact,
    CompiledSlot,
    PinnedChoice,
    PinnedPlan,
    PlanCache,
    PlanPinStore,
    normalize_query,
)
from ..engine import profiler as profiler_mod
from ..engine.profiler import PROFILE_ENV_VAR, resolve_profile
from ..engine.qlog import fingerprint_plan, rewriting_signature
from ..engine.storage import Store
from ..engine.tracing import Tracer
from ..errors import (
    AccessModuleUnavailable,
    DuplicateViewError,
    PlanExecutionError,
    ReproError,
)
from ..storage.catalog import Catalog, CatalogEntry
from ..storage.materialize import materialize_view
from ..summary.enhanced import annotate_edges
from ..summary.path_summary import PathSummary
from ..xmldata import Document, load
from ..xquery.ast import Expr
from ..xquery.extract import (
    ExtractionUnit,
    PatternAccess,
    assemble_plan,
    extract,
)
from ..xquery.parser import parse_query
from .containment import PatternFacts
from .embedding import evaluate_pattern
from .rewrite import Rewriting, SearchStats, relevant_views, rewrite_pattern
from .statistics import CatalogStatistics, rank_rewritings, views_cost
from .xam import Pattern
from .xam_parser import parse_pattern

__all__ = [
    "Database",
    "QueryResult",
    "PatternResolution",
    "PreparedUnit",
    "PreparedQuery",
    "QueryCancelled",
    "ExplainUnit",
    "ExplainReport",
    "PROFILE_ENV_VAR",
    "resolve_profile",
]


class QueryCancelled(ReproError, RuntimeError):
    """Raised inside :meth:`Database.execute_prepared` when the caller's
    ``should_stop`` callback asks a running query to abandon its remaining
    units (the service's cooperative cancellation hook)."""


@dataclass
class PatternResolution:
    """How one query pattern was answered."""

    pattern: Pattern
    access_path: str  # "rewriting" or "base"
    rewriting: Optional[Rewriting] = None
    #: summary-estimated tuple count of the pattern (None when unknown)
    estimated_cardinality: Optional[float] = None
    #: tuples the chosen access path actually produced (None = not executed)
    actual_cardinality: Optional[int] = None
    #: True when this access path came from a tournament-promoted pin
    #: instead of cost-model ranking
    pinned: bool = False
    #: the catalog entries the rewriting search could use, in catalog
    #: order (``()`` when no search ran; None when open circuit breakers
    #: took modules out of the search) — what :meth:`Database.revalidate`
    #: compares with the live catalog
    dependencies: Optional[tuple[CatalogEntry, ...]] = ()
    #: the pattern's containment facts, memoised by revalidation
    facts: Optional[PatternFacts] = field(default=None, repr=False, compare=False)

    def __repr__(self) -> str:
        if self.rewriting is not None:
            return f"<via views {list(self.rewriting.views)}>"
        return "<via base store>"


@dataclass
class QueryResult:
    """Execution outcome of one query."""

    xml: list[str] = field(default_factory=list)
    values: list = field(default_factory=list)
    tuples: list[NestedTuple] = field(default_factory=list)
    resolutions: list[PatternResolution] = field(default_factory=list)
    plans: list[Operator] = field(default_factory=list)
    #: per-unit runtime metrics (populated when the query ran with
    #: ``stats=True`` — one PlanMetrics tree per assembled unit plan)
    metrics: list[PlanMetrics] = field(default_factory=list)
    #: named event counters copied from the execution context's metrics
    #: sink (plan-cache hits/misses when a QueryService ran the query)
    counters: dict = field(default_factory=dict)
    #: True when any pattern was answered by a fallback access path after
    #: its chosen access module failed (the result is still correct — the
    #: fallback is S-equivalent — but served under degraded conditions)
    degraded: bool = False
    #: human-readable log of what degraded and where the query was routed
    degradation_events: list[str] = field(default_factory=list)
    #: id of this query's span tree in the database's tracer ring
    #: (``service.trace(result.trace_id)`` / ``/trace/<id>``); None when
    #: tracing is disabled
    trace_id: Optional[str] = None
    #: stable hash of the prepared physical plan shape and chosen access
    #: paths (see :func:`repro.engine.qlog.fingerprint_plan`) — what the
    #: query log records and the plan-regression sentinel watches
    plan_fingerprint: Optional[str] = None
    #: how many store partitions served this query (None = unsharded
    #: database; the query log stamps this so replay can diff the same
    #: workload across physical layouts)
    shard_count: Optional[int] = None
    #: True when the plan came from a tournament-promoted pinned plan
    #: (every pattern's access path applied from the pin, none missed)
    pinned: bool = False

    @property
    def used_views(self) -> list[str]:
        names: list[str] = []
        for resolution in self.resolutions:
            if resolution.rewriting is not None:
                names.extend(resolution.rewriting.views)
        return names

    def collect(self, unit: ExtractionUnit, tuples: list[NestedTuple]) -> None:
        """Append one unit's output tuples, and the XML fragments or the
        scalar values they carry."""
        self.tuples.extend(tuples)
        if unit.template is not None:
            self.xml.extend(t["xml"] for t in tuples)
            return
        for t in tuples:
            for _pidx, path in unit.outputs:
                for value in t.iter_path(path):
                    if value is not None and not isinstance(value, list):
                        self.values.append(value)


def require_physical(physical: bool) -> None:
    """Every plan runs compiled; ``physical`` survives on the public entry
    points only so existing ``physical=True`` callers keep working."""
    if not physical:
        raise ValueError(
            "physical=False is not supported: every plan runs as a "
            "compiled batch plan"
        )


@dataclass
class PreparedUnit:
    """One extraction unit of a prepared query: its resolved access paths,
    the assembled logical plan, and its compiled physical plans."""

    unit: ExtractionUnit
    resolutions: list[PatternResolution]
    logical: Operator
    #: position of this unit in the prepared query (names the slots of
    #: the fingerprint-keyed compiled artifact: ``unit:<index>`` /
    #: ``pattern:<index>:<pattern>``)
    index: int = 0
    #: pattern index → compiled physical plan of the chosen rewriting
    #: (filled at prepare time, when the plan is fingerprinted)
    compiled_patterns: dict[int, object] = field(default_factory=dict)
    #: compiled physical plan of the assembled unit (filled at prepare
    #: time, when the plan is fingerprinted)
    compiled_plan: Optional[object] = None


@dataclass
class PreparedQuery:
    """The reusable output of the parse → translate → extract → rewrite →
    assemble pipeline — everything about a query that does not depend on
    the data, only on the catalog state it was prepared against.

    Executing a prepared query re-reads the store, so results stay fresh
    for data already covered by :attr:`catalog_version`; any XAM /
    document / statistics mutation bumps the database's version and makes
    this plan's stamp stale.  A stale plan is not necessarily a wrong one:
    :meth:`Database.revalidate` keeps it (the cache restamps it) when no
    document or statistics mutation happened since :attr:`mutations` and
    no view its searches could use was added or dropped.

    Prepared queries are **not re-entrant**: resolutions and compiled
    plans carry per-execution mutable state, so :attr:`lock` serializes
    executions of the same plan (distinct plans run fully in parallel).
    """

    text: str
    prefer_views: bool
    catalog_version: int
    units: list[PreparedUnit]
    #: stable hash of the compiled plan shapes + chosen access paths
    #: (identical state re-prepares to an identical fingerprint; a
    #: different fingerprint means the optimizer changed its mind)
    fingerprint: str = ""
    #: the human-readable text the fingerprint hashes — kept for
    #: explaining *what* flipped when two fingerprints differ
    plan_shape: str = ""
    executions: int = 0
    #: True when every pattern's access path was applied from a pinned
    #: plan (a pin whose signatures no longer all match leaves this False
    #: — those patterns fell back to cost-model ranking)
    pinned: bool = False
    #: the database's document/statistics mutation counter at preparation
    mutations: int = 0
    #: False when a pinned plan steered the preparation: pins are not a
    #: function of the catalog, so such a plan is never revalidated
    revalidatable: bool = True
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


@dataclass
class ExplainUnit:
    """The three-stage lifecycle of one query unit: the assembled
    **logical** plan, the per-pattern **rewritten** plans chosen by the
    optimizer (None = base-store access), and the compiled **physical**
    plan whose metrics hold estimated and actual cardinalities side by
    side."""

    logical: Operator
    resolutions: list[PatternResolution]
    rewritten: list[Optional[Operator]]
    physical: "object"
    metrics: PlanMetrics

    def render(self) -> str:
        lines: list[str] = []
        for index, resolution in enumerate(self.resolutions):
            est = resolution.estimated_cardinality
            act = resolution.actual_cardinality
            est_text = "?" if est is None else f"{est:.1f}"
            act_text = "?" if act is None else str(act)
            lines.append(f"pattern {index}: {resolution.pattern.to_text()}")
            lines.append(f"  → {resolution}  (est={est_text} act={act_text})")
            plan = self.rewritten[index]
            if plan is not None:
                lines.append("  rewritten plan:")
                lines.extend("    " + l for l in plan.pretty().splitlines())
        lines.append("logical plan:")
        lines.extend("  " + l for l in self.logical.pretty().splitlines())
        profiled = any(
            node.cpu_ns or node.peak_mem_bytes for node in self.metrics.walk()
        )
        if profiled:
            lines.append("physical plan (est | act | time | cpu | peak mem):")
        else:
            lines.append("physical plan (est | act | time):")
        lines.extend("  " + l for l in self.metrics.pretty().splitlines())
        return "\n".join(lines)


class ExplainReport:
    """What :meth:`Database.explain` returns.

    Iterating (or indexing) the report yields the per-pattern
    :class:`PatternResolution`\\ s — the original access-path view of
    explain — while :attr:`units` carries the full three-stage plan trees
    and :meth:`render` formats everything for humans."""

    def __init__(
        self,
        units: list[ExplainUnit],
        counters: Optional[dict] = None,
        health: Optional[dict] = None,
        trace_id: Optional[str] = None,
        plan_fingerprint: Optional[str] = None,
    ):
        self.units = units
        #: named event counters from the execution context's metrics sink
        #: (plan-cache hit/miss/invalidation when explained via a service)
        self.counters = dict(counters or {})
        #: access-module breaker states (name → closed/open/half-open) at
        #: explain time; empty when no module has ever failed
        self.health = dict(health or {})
        #: id of the explain run's span tree (None when tracing is off)
        self.trace_id = trace_id
        #: the prepared plan's fingerprint — compare against the query
        #: log / sentinel to see whether EXPLAIN describes the same plan
        #: production executed
        self.plan_fingerprint = plan_fingerprint

    @property
    def resolutions(self) -> list[PatternResolution]:
        return [r for unit in self.units for r in unit.resolutions]

    def __iter__(self) -> Iterator[PatternResolution]:
        return iter(self.resolutions)

    def __len__(self) -> int:
        return len(self.resolutions)

    def __getitem__(self, index: int) -> PatternResolution:
        return self.resolutions[index]

    def render(self) -> str:
        parts = []
        if self.plan_fingerprint:
            parts.append(f"plan fingerprint: {self.plan_fingerprint}")
        for number, unit in enumerate(self.units, 1):
            if len(self.units) > 1:
                parts.append(f"── unit {number} " + "─" * 24)
            parts.append(unit.render())
        if self.counters:
            parts.append("counters:")
            for name in sorted(self.counters):
                value = self.counters[name]
                text = f"{value:g}" if isinstance(value, float) else str(value)
                parts.append(f"  {name} = {text}")
        if self.health:
            parts.append("access modules:")
            for name in sorted(self.health):
                parts.append(f"  {name} = {self.health[name]}")
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


def _lower_pattern_access(op: PatternAccess, lower, ctx) -> PScan:
    """Registry rule: a pattern access compiles to a scan of the binding
    relation the resolution layer publishes (``__pattern_<i>``)."""
    return PScan(op.context_key)


class Database:
    """An XML database with XAM-described physical storage."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: "Tracer | None | bool" = True,
        profile: "bool | str | None" = None,
    ) -> None:
        self.store = Store()
        self.catalog = Catalog()
        self.documents: list[Document] = []
        self.summary = PathSummary()
        #: the unified metrics sink: every per-query counter bump, the
        #: breaker board, the plan cache and the latency histogram land
        #: here (the process-wide default registry unless one is injected
        #: — tests asserting exact totals inject private ones)
        self.metrics = metrics if metrics is not None else get_registry()
        #: span-based tracer of the query lifecycle; ``True`` (default)
        #: builds a bounded :class:`~repro.engine.tracing.Tracer`, an
        #: explicit instance shares one, ``None``/``False`` disables
        #: tracing entirely (the overhead-comparison configuration)
        if tracer is True:
            tracer = Tracer()
        elif tracer is False:
            tracer = None
        self.tracer: Optional[Tracer] = tracer
        #: per-access-module circuit breakers, living alongside the
        #: catalog whose entries they track (closed → open after repeated
        #: failures → half-open recovery probe; open modules are excluded
        #: from rewriting ranking)
        self.breakers = BreakerBoard()
        self.breakers.register_metrics(self.metrics)
        #: optional default :class:`~repro.engine.faults.FaultInjector`
        #: attached to every execution context (chaos mode); the
        #: ``REPRO_FAULTS`` environment variable is the other way in
        self.fault_injector = None
        #: pinned statistics answers consulted before the live catalog /
        #: summary (key: relation name or pattern text).  The lever for
        #: reproducing stale-statistics incidents: pin a wrong number,
        #: watch the sentinel catch the misestimate, and let
        #: :meth:`refresh_statistics` clear it — mutate via
        #: :meth:`override_statistic` so cached plans invalidate
        self.statistics_overrides: dict[str, float] = {}
        #: document/statistics mutation counter (catalog mutations are
        #: counted by the catalog itself; see :attr:`catalog_version`)
        self._mutations = 0
        #: how many of :attr:`documents` the last annotation pass covered
        self._annotated = 0
        #: attributed resource profiling (per-operator CPU + peak traced
        #: memory): ``None`` defers to ``$REPRO_PROFILE``, off by
        #: default.  Mutable at runtime (the REPL's ``.profile``
        #: command) — it only changes what execution records, never the
        #: plan.
        self.profile = resolve_profile(profile)
        #: attributed CPU is measured on every profiled query (two clock
        #: reads per observation point — effectively free), but the
        #: tracemalloc window behind ``peak_mem_bytes`` slows allocation
        #: ~2x, so the memory column is *sampled*: every Nth profiled
        #: query per database opens the window (the first always does).
        #: Set to 1 for memory on every query (``repro profile`` does).
        self.profile_memory_stride = profiler_mod.MEM_SAMPLE_STRIDE
        self._profiled_queries = itertools.count()
        #: fingerprint-keyed cache of compiled batch artifacts
        #: (:class:`~repro.engine.plan_cache.CompiledPlanArtifact`);
        #: entries are stamped with :attr:`catalog_version`, so any
        #: view/document/statistics mutation invalidates them exactly as
        #: it invalidates prepared plans
        self.compiled_plans = PlanCache(capacity=64)
        #: tournament-promoted plan pins
        #: (:class:`~repro.engine.plan_cache.PlanPinStore`): per normalized
        #: query, the benchmark-validated access-path choices that bypass
        #: ``rank_rewritings`` at prepare time.  Not an LRU — pins survive
        #: any cache pressure and die only on catalog-version bumps.
        self.plan_pins = PlanPinStore()

    @property
    def catalog_version(self) -> int:
        """Monotonically increasing version of everything a prepared plan
        depends on: the XAM catalog, the document set, and the statistics.
        The plan cache stamps entries with this number; any mismatch means
        the plan was derived against outdated state."""
        return self._mutations + self.catalog.version

    # -- loading ------------------------------------------------------------

    @classmethod
    def from_xml(cls, source: str, name: str = "doc.xml") -> "Database":
        db = cls()
        db.add_document_xml(source, name)
        return db

    def add_document_xml(self, source: str, name: str = "doc.xml") -> Document:
        return self.add_document(load(source, name))

    def add_document(self, doc: Document) -> Document:
        self.add_documents([doc])
        return doc

    def add_documents(self, docs: Iterable[Document]) -> list[Document]:
        """Bulk-load documents, finalizing the path summary and
        re-annotating edge statistics once for the whole batch instead of
        once per document.  Every stored view is rebuilt over the whole
        corpus, in place: its catalog position, and so the rewriting
        order, does not move."""
        docs = list(docs)
        for doc in docs:
            self.documents.append(doc)
            self.summary.add_document(doc)
        self._annotate()
        for entry in list(self.catalog):
            self._store_view(entry.name, entry.pattern, entry.kind)
        return docs

    def _annotate(self) -> None:
        """Finalize the summary, re-annotate edge statistics over every
        document and bump the mutation counter."""
        self.summary.finalize()
        for doc in self.documents:
            annotate_edges(self.summary, doc)
        self._annotated = len(self.documents)
        self._mutations += 1

    def refresh_statistics(self) -> None:
        """Recompute summary annotations over all documents, drop any
        pinned statistics overrides, and bump the catalog version:
        cardinality estimates feed rewriting choice, so cached plans
        ranked under the old statistics must be re-prepared.

        With no override pinned and no document added since the last
        annotation pass, the statistics already are what a refresh would
        compute: nothing is bumped, and the no-op is counted as
        ``statistics.refresh_skipped``."""
        if not self.statistics_overrides and self._annotated == len(self.documents):
            self.metrics.inc("statistics.refresh_skipped")
            return
        self.statistics_overrides.clear()
        self._annotate()

    def override_statistic(self, key: str, value: Optional[float]) -> None:
        """Pin (or, with ``value=None``, unpin) one statistics answer.

        ``key`` is a relation/view name (``relation_size``) or a pattern's
        ``to_text()`` form (``pattern_cardinality``).  Bumps the catalog
        version: plans ranked under the old answer are stale and must be
        re-prepared — which is exactly how a deliberately dropped or
        corrupted statistics entry surfaces as a plan-fingerprint flip."""
        if value is None:
            self.statistics_overrides.pop(key, None)
        else:
            self.statistics_overrides[key] = float(value)
        self._mutations += 1

    # -- storage management ----------------------------------------------------

    def add_view(self, name: str, pattern: Pattern | str, kind: str = "view") -> CatalogEntry:
        """Materialize a XAM view over all documents and register it.

        Raises :class:`ValueError` if a view of that name already exists
        (``drop_view`` it first).
        """
        if any(entry.name == name for entry in self.catalog):
            raise DuplicateViewError(f"view {name!r} already exists")
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        return self._store_view(name, pattern, kind)

    def _store_view(self, name: str, pattern: Pattern, kind: str) -> CatalogEntry:
        """Materialize ``pattern`` over every document, store it as
        ``name`` and register it (a name already registered keeps its
        catalog position)."""
        if len(self.documents) == 1:
            return materialize_view(
                name, pattern, self.documents[0], self.store, self.catalog, kind
            )
        # multi-document: concatenate per-document materializations
        self.store.add(
            name, [t for doc in self.documents for t in evaluate_pattern(pattern, doc)]
        )
        return self.catalog.register(name, pattern, relation=name, kind=kind)

    def drop_view(self, name: str) -> None:
        self.catalog.unregister(name)
        if name in self.store:
            self.store.drop(name)

    def views(self) -> list[str]:
        return [entry.name for entry in self.catalog.views()]

    def shard(self, shard_count: int, **kwargs) -> "Database":
        """Re-house this database's documents and views in a coordinator
        that assigns the documents to ``shard_count`` partitions
        (:class:`~repro.core.coordinator.ShardedDatabase`).

        The coordinator plans and executes over the same global state,
        so plan fingerprints stay byte-identical to this database's —
        replaying a workload recorded here against the sharded layout
        must diff clean, which is the physical-data-independence test
        the sharded CI lane runs.  Keyword arguments (``partitioner``)
        pass through to the coordinator.
        """
        from .coordinator import ShardedDatabase

        sharded = ShardedDatabase(
            shard_count,
            metrics=self.metrics,
            tracer=self.tracer,
            profile=self.profile,
            **kwargs,
        )
        sharded.fault_injector = self.fault_injector
        sharded.add_documents(self.documents)
        for entry in list(self.catalog):
            sharded.add_view(entry.name, entry.pattern, kind=entry.kind)
        sharded.statistics_overrides.update(self.statistics_overrides)
        return sharded

    # -- the per-query execution context ----------------------------------------

    def execution_context(self) -> ExecutionContext:
        """One context per query: summary/store statistics, the cost
        model, the PatternAccess lowering rule, and the metrics sink.
        Chaos mode rides along: the database's (or the environment's)
        fault injector is attached for :meth:`execute_prepared` to scope
        around execution."""
        ctx = ExecutionContext(
            statistics=CatalogStatistics(
                self.catalog,
                self.summary,
                self.store,
                overrides=self.statistics_overrides,
            ),
            registry={PatternAccess: _lower_pattern_access},
            metrics_registry=self.metrics,
        )
        ctx.fault_injector = self.fault_injector or faults.injector_from_env()
        ctx.profile = self.profile
        if self.profile:
            stride = max(1, int(self.profile_memory_stride))
            ctx.mem_sample = next(self._profiled_queries) % stride == 0
        if self.tracer is not None:
            ctx.trace = self.tracer.start_trace()
        return ctx

    def health(self) -> str:
        """Access-module health — the breaker board, rendered (the REPL's
        ``.health`` command and ``repro serve`` print this)."""
        return self.breakers.render()

    # -- querying ---------------------------------------------------------------

    def prepare(
        self,
        query: str | Expr,
        prefer_views: bool = True,
        context: Optional[ExecutionContext] = None,
        pin: Optional[PinnedPlan] = None,
        consult_pins: bool = True,
    ) -> PreparedQuery:
        """Run the data-independent half of the pipeline once: parse,
        translate, extract maximal patterns, search and rank rewritings,
        and assemble the per-unit logical plans.  The result can be
        executed any number of times (and is what the plan cache stores).

        A tournament-promoted **pinned plan** for this query (looked up in
        :attr:`plan_pins` unless ``consult_pins`` is False, or passed
        explicitly as ``pin`` — the tournament's way of preparing a
        specific candidate) bypasses cost-model ranking: each pinned
        choice names its access path by rewriting signature and is
        re-found among the enumerated candidates.  A choice whose
        signature no longer matches anything (or whose views sit behind an
        open breaker) falls back to normal ranking for that pattern —
        correctness never depends on the pin, only plan choice does.
        """
        ctx = context or self.execution_context()
        if pin is None and consult_pins and isinstance(query, str):
            pin, outcome = self.plan_pins.lookup(
                normalize_query(query), self.catalog_version
            )
            if outcome == "stale":
                ctx.bump("plan_pin.invalidate")
                ctx.event("plan_pin.invalidate", query=normalize_query(query))
        with ctx.span("parse"):
            expr = parse_query(query) if isinstance(query, str) else query
        with ctx.span("extract") as extract_span:
            extraction = extract(expr)
            if extract_span is not None:
                extract_span.attributes["units"] = len(extraction.units)
        pin_state = {"applied": 0, "missed": 0}
        units: list[PreparedUnit] = []
        for unit_index, unit in enumerate(extraction.units):
            resolutions = [
                self._resolve_pattern(
                    pattern,
                    prefer_views,
                    ctx,
                    pinned=(
                        pin.choice(unit_index, pattern_index)
                        if pin is not None
                        else None
                    ),
                    pin_state=pin_state,
                )
                for pattern_index, pattern in enumerate(unit.patterns)
            ]
            with ctx.span("assemble"):
                logical = assemble_plan(unit)
            units.append(
                PreparedUnit(
                    unit=unit,
                    resolutions=resolutions,
                    logical=logical,
                    index=len(units),
                )
            )
        # Fingerprint the prepared plan: compiles each unit and chosen
        # rewriting — the compiled plans are stored on the units, which
        # is what every execution runs — and hashes the physical shapes
        # plus the chosen access paths.
        fingerprint, plan_shape = fingerprint_plan(
            units, ctx, self.store.scan_orders()
        )
        return PreparedQuery(
            text=query if isinstance(query, str) else "",
            prefer_views=prefer_views,
            catalog_version=self.catalog_version,
            units=units,
            fingerprint=fingerprint,
            plan_shape=plan_shape,
            pinned=(
                pin is not None
                and pin_state["applied"] > 0
                and pin_state["missed"] == 0
            ),
            mutations=self._mutations,
            revalidatable=pin is None,
        )

    def revalidate(self, prepared: PreparedQuery) -> bool:
        """Whether a plan whose stamp went stale is still what
        :meth:`prepare` would build now.

        True only when no document or statistics mutation happened since
        it was prepared, no pin steered it, no open breaker narrowed its
        searches or would narrow them now, and every pattern's relevant views
        (:func:`~repro.core.rewrite.view_is_relevant`) in the live catalog
        are the very entries its search used, in the same order — a view
        dropped and re-added under the same name is a different entry.
        The search reads nothing else of the catalog, so a view mutation
        that passes this test leaves every search, ranking and compiled
        plan as it was."""
        if prepared.mutations != self._mutations or not prepared.revalidatable:
            return False
        if self.breakers.unavailable_names():
            return False
        if not prepared.prefer_views:
            return True  # no search ever read the catalog
        for unit in prepared.units:
            for resolution in unit.resolutions:
                dependencies = resolution.dependencies
                if dependencies is None:
                    return False
                facts = resolution.facts
                if facts is None or not facts.current_for(self.summary):
                    facts = resolution.facts = PatternFacts(
                        resolution.pattern, self.summary
                    )
                live = relevant_views(facts, self.catalog)
                if len(live) != len(dependencies) or any(
                    now is not then for now, then in zip(live, dependencies)
                ):
                    return False
        return True

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        stats: bool = False,
        context: Optional[ExecutionContext] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        *,
        physical: bool = True,
    ) -> QueryResult:
        """Execute a prepared query against the current store contents.

        Holds the prepared plan's lock for the duration (plans carry
        per-execution state, so executions of the *same* plan serialize;
        distinct plans run in parallel).  ``should_stop`` is polled at
        unit boundaries; returning True raises :class:`QueryCancelled`.
        """
        require_physical(physical)
        ctx = context or self.execution_context()
        result = QueryResult()
        events: list[str] = []
        with ctx.span("execute", units=len(prepared.units)):
            with prepared.lock, faults.scope(ctx.fault_injector, ctx):
                prepared.executions += 1
                for number, prepared_unit in enumerate(prepared.units):
                    if should_stop is not None and should_stop():
                        raise QueryCancelled(
                            f"query cancelled: {prepared.text!r}"
                        )
                    with ctx.span("unit", index=number):
                        self._run_prepared_unit(
                            prepared_unit, result, stats, ctx, events,
                            fingerprint=prepared.fingerprint,
                        )
        result.degradation_events = events
        result.degraded = bool(events)
        result.counters = dict(ctx.counters)
        result.trace_id = ctx.trace_id
        result.plan_fingerprint = prepared.fingerprint or None
        result.pinned = prepared.pinned
        ctx.end_trace("degraded" if result.degraded else "ok")
        return result

    def query(
        self,
        query: str | Expr,
        prefer_views: bool = True,
        stats: bool = False,
        context: Optional[ExecutionContext] = None,
        *,
        physical: bool = True,
    ) -> QueryResult:
        """Parse, extract, rewrite, stitch and execute.

        ``prefer_views=False`` forces base-store evaluation (useful to
        compare access paths).  Every plan — each pattern's rewriting and
        each unit's assembled plan — runs as compiled batch closures.
        ``stats=True`` runs the unit plans instrumented and records
        per-operator metrics into ``result.metrics`` (one tree per unit).
        ``context`` lets callers (the query service) thread one metrics
        sink through preparation and execution.  ``physical`` accepts
        only True (see :func:`require_physical`).
        """
        require_physical(physical)
        ctx = context or self.execution_context()
        try:
            prepared = self.prepare(query, prefer_views, context=ctx)
            return self.execute_prepared(prepared, stats=stats, context=ctx)
        except BaseException:
            ctx.end_trace("error")
            raise

    def explain(
        self,
        query: str | Expr,
        prefer_views: bool = True,
        context: Optional[ExecutionContext] = None,
    ) -> ExplainReport:
        """The full plan lifecycle of a query, executed with metrics.

        Per unit: the assembled logical plan, each pattern's chosen access
        path (with its rewritten plan when views are used), and the
        compiled physical plan annotated with estimated *and* actual
        per-operator cardinalities and timings.
        """
        ctx = context or self.execution_context()
        try:
            return self.explain_prepared(
                self.prepare(query, prefer_views, context=ctx), ctx
            )
        except BaseException:
            ctx.end_trace("error")
            raise

    def explain_prepared(
        self,
        prepared: PreparedQuery,
        context: Optional[ExecutionContext] = None,
    ) -> ExplainReport:
        """EXPLAIN an already prepared (possibly cached) query: compile
        the unit plans if needed, execute with metrics, and report —
        including any counters the context's metrics sink accumulated
        (e.g. the service's plan-cache hit/miss for this very lookup)."""
        ctx = context or self.execution_context()
        units: list[ExplainUnit] = []
        with ctx.span("execute", units=len(prepared.units), explain=True):
            with prepared.lock, faults.scope(ctx.fault_injector, ctx):
                prepared.executions += 1
                for prepared_unit in prepared.units:
                    slot, metrics = self._run_prepared_unit(
                        prepared_unit, QueryResult(), True, ctx,
                        fingerprint=prepared.fingerprint,
                    )
                    units.append(
                        ExplainUnit(
                            logical=prepared_unit.logical,
                            resolutions=prepared_unit.resolutions,
                            rewritten=[
                                r.rewriting.plan if r.rewriting is not None else None
                                for r in prepared_unit.resolutions
                            ],
                            physical=slot.plan,
                            metrics=metrics,
                        )
                    )
        report = ExplainReport(
            units,
            counters=ctx.counters,
            health=self.breakers.states(),
            trace_id=ctx.trace_id,
            plan_fingerprint=prepared.fingerprint or None,
        )
        ctx.end_trace()
        return report

    def rewrite(self, pattern: Pattern | str, **kwargs) -> list[Rewriting]:
        """Expose pattern rewriting directly (Chapter 5 entry point)."""
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        return rewrite_pattern(pattern, self.catalog, self.summary, **kwargs)

    # -- internals -------------------------------------------------------------

    def _batch_slot(
        self,
        fingerprint: Optional[str],
        slot_name: str,
        physical_plan,
        ctx: ExecutionContext,
    ) -> CompiledSlot:
        """The compiled batch slot for one physical plan.

        Compiled closures are cached in :attr:`compiled_plans` under the
        plan fingerprint, stamped with the catalog version — a
        view/document/statistics mutation makes the artifact stale on the
        next lookup (``plan_compile.invalidate``) and it is recompiled.
        """
        if not fingerprint:
            # unfingerprinted plans compile uncached
            return CompiledSlot(slot_name, physical_plan, compile_batch(physical_plan))
        version = self.catalog_version
        artifact, outcome = self.compiled_plans.lookup(fingerprint, version)
        if outcome == "stale":
            ctx.bump("plan_compile.invalidate")
            ctx.event("plan_compile.invalidate", fingerprint=fingerprint)
        if artifact is None:
            artifact = CompiledPlanArtifact(fingerprint, version)
            self.compiled_plans.put(fingerprint, artifact, version)
        slot, fresh = artifact.slot(slot_name, physical_plan, compile_batch)
        ctx.bump("plan_compile.miss" if fresh else "plan_compile.hit")
        return slot

    def _resolve_pattern(
        self,
        pattern: Pattern,
        prefer_views: bool,
        ctx: Optional[ExecutionContext] = None,
        pinned: Optional[PinnedChoice] = None,
        pin_state: Optional[dict] = None,
    ) -> PatternResolution:
        ctx = ctx or self.execution_context()
        estimate = ctx.statistics.pattern_cardinality(pattern)
        # the pattern's rewritings, enumerated at most once: the pin match
        # and the ranker read the same list
        rewritings: Optional[list[Rewriting]] = None
        dependencies: Optional[tuple[CatalogEntry, ...]] = ()
        if pinned is not None:
            if pinned.access != "base":
                # pin matching reads the full enumeration
                rewritings, dependencies = self._search_rewritings(
                    pattern, ctx, cheapest=False
                )
            resolution = self._resolve_pinned(
                pattern, pinned, rewritings, ctx, estimate
            )
            if resolution is not None:
                if pin_state is not None:
                    pin_state["applied"] += 1
                ctx.bump("plan_pin.hit")
                return resolution
            # The pinned rewriting no longer exists at this catalog state
            # (or its views are breaker-unavailable).  Safe fallback:
            # count the miss and let cost-model ranking decide below.
            if pin_state is not None:
                pin_state["missed"] += 1
            ctx.bump("plan_pin.unmatched")
            ctx.event("plan_pin.unmatched", pattern=pattern.to_text())
        if prefer_views and len(self.catalog.views()) > 0:
            if rewritings is None:
                rewritings, dependencies = self._search_rewritings(pattern, ctx)
            best = self._best_rewriting(rewritings, ctx)
            if best is not None:
                return PatternResolution(
                    pattern,
                    "rewriting",
                    best,
                    estimated_cardinality=estimate,
                    dependencies=dependencies,
                )
        return PatternResolution(
            pattern,
            "base",
            estimated_cardinality=estimate,
            dependencies=dependencies,
        )

    #: SearchStats field → the counter it is accumulated under
    _SEARCH_COUNTERS = {
        "containment_tests": "rewrite.containment_tests",
        "prefilter_rejected": "rewrite.prefilter_rejected",
        "memo_hits": "rewrite.memo_hits",
        "product_truncated": "rewrite.product_truncated",
        "psi_capped": "containment.psi_capped",
        "skipped": "rewrite.validations_skipped",
    }

    def _search_rewritings(
        self,
        pattern: Pattern,
        ctx: ExecutionContext,
        exclude: frozenset = frozenset(),
        cheapest: bool = True,
    ) -> tuple[list[Rewriting], Optional[tuple[CatalogEntry, ...]]]:
        """The S-equivalent rewritings of the pattern whose access modules
        are available, smallest plan first — under a ``rewrite-search``
        span carrying what the search did, capped and skipped — and the
        catalog entries the search could use (None when some module was
        unavailable: the outcome then depends on breaker state too).

        ``cheapest`` validates candidates in the ranker's cost order and
        stops at the first cost holding a rewriting: the ranker's pick is
        among those returned.  Without it every candidate is validated."""
        with ctx.span("rewrite-search", pattern=pattern.to_text()) as search_span:
            stats = SearchStats()
            relevant: list[CatalogEntry] = []
            # open-circuit modules are out of the race at planning time
            # (half-open ones stay in: the probe that may close them); they
            # leave before validation, so a cheaper survivor is still found
            unavailable = exclude | self.breakers.unavailable_names()
            rewritings = rewrite_pattern(
                pattern,
                self.catalog,
                self.summary,
                max_results=None,
                stats=stats,
                relevant=relevant,
                cost=partial(views_cost, statistics=ctx.statistics)
                if cheapest
                else None,
                exclude=unavailable,
            )
            dependencies = None if unavailable else tuple(relevant)
            counts = asdict(stats)
            if search_span is not None:
                search_span.attributes["candidates"] = len(rewritings)
                search_span.attributes.update(counts)
            for name, count in counts.items():
                if count:
                    ctx.bump(self._SEARCH_COUNTERS[name], count)
        return rewritings, dependencies

    def _best_rewriting(
        self, rewritings: list[Rewriting], ctx: ExecutionContext
    ) -> Optional[Rewriting]:
        """The cost model's pick among the candidates (None without any)."""
        if not rewritings:
            return None
        with ctx.span("rank", candidates=len(rewritings)):
            return rank_rewritings(
                rewritings,
                self.catalog,
                self.summary,
                self.store,
                statistics=ctx.statistics,
            )[0]

    def _resolve_pinned(
        self,
        pattern: Pattern,
        pinned: PinnedChoice,
        rewritings: Optional[list[Rewriting]],
        ctx: ExecutionContext,
        estimate: Optional[float],
    ) -> Optional[PatternResolution]:
        """Apply one pinned access-path choice among the enumerated
        ``rewritings``, or None when it cannot be honored (signature
        matches nothing at this catalog state, or the pinned views sit
        behind an open breaker).  Pins only ever select among S-equivalent
        candidates, so an unmatched pin degrades plan *choice*, never
        answer correctness."""
        if pinned.access == "base":
            return PatternResolution(
                pattern, "base", estimated_cardinality=estimate, pinned=True
            )
        with ctx.span("pin-match", pattern=pattern.to_text()):
            for rewriting in rewritings or ():
                if rewriting_signature(rewriting) == pinned.signature:
                    return PatternResolution(
                        pattern,
                        "rewriting",
                        rewriting,
                        estimated_cardinality=estimate,
                        pinned=True,
                    )
        return None

    def _prepared_pattern_tuples(
        self,
        prepared_unit: PreparedUnit,
        index: int,
        resolution: PatternResolution,
        ctx: ExecutionContext,
        events: Optional[list[str]] = None,
        fingerprint: Optional[str] = None,
    ) -> list[NestedTuple]:
        """Evaluate one resolved pattern against the current store,
        reusing (and lazily filling) the unit's compiled rewriting plan.

        This is the degradation point of the availability corollary
        (thesis §1.2.4): when the chosen access module fails with
        :class:`AccessModuleUnavailable`, the failure is recorded in the
        module's circuit breaker and the pattern is re-routed through the
        next-best S-equivalent rewriting that avoids the failed (and any
        open-circuit) modules, falling back to base-store evaluation when
        no rewriting survives.  Transient faults are *not* absorbed here —
        they propagate to the caller (the query service retries them).
        """
        if resolution.rewriting is None:
            return self._base_pattern_tuples(
                resolution.pattern, ctx, resolution.estimated_cardinality
            )
        rewriting = resolution.rewriting
        original = rewriting
        failed: set[str] = set()
        while rewriting is not None:
            try:
                if rewriting is original:
                    tuples = self._run_rewriting(
                        rewriting, ctx, prepared_unit, index, fingerprint
                    )
                else:
                    tuples = self._run_rewriting(rewriting, ctx)
            except AccessModuleUnavailable as fault:
                names = [fault.xam] if fault.xam else list(rewriting.views)
                for name in names:
                    failed.add(name)
                    state = self.breakers.record_failure(name, str(fault))
                    if state == OPEN:
                        ctx.bump("breaker.opened")
                        ctx.event("breaker.opened", module=name)
                ctx.bump("degraded.module_failures")
                if events is not None:
                    events.append(
                        self._stamp_event(
                            f"access module {'/'.join(names)} "
                            f"unavailable: {fault}",
                            ctx,
                        )
                    )
                rewriting = self._fallback_rewriting(
                    resolution.pattern, failed, ctx
                )
                if rewriting is not None:
                    ctx.bump("degraded.reroutes")
                    ctx.event(
                        "degraded.reroute", views=",".join(rewriting.views)
                    )
                    if events is not None:
                        events.append(
                            self._stamp_event(
                                "re-routed pattern through views "
                                f"{list(rewriting.views)}",
                                ctx,
                            )
                        )
                continue
            for name in rewriting.views:
                self.breakers.record_success(name)
            if rewriting is not original:
                ctx.bump("degraded.patterns")
            return tuples
        ctx.bump("degraded.patterns")
        ctx.bump("degraded.base_fallbacks")
        ctx.event("degraded.base-fallback")
        if events is not None:
            events.append(
                self._stamp_event(
                    "no usable rewriting left; fell back to base store", ctx
                )
            )
        return self._base_pattern_tuples(
            resolution.pattern, ctx, resolution.estimated_cardinality
        )

    @staticmethod
    def _stamp_event(message: str, ctx: ExecutionContext) -> str:
        """Degradation events carry the trace id, so a degraded result's
        log lines lead back to the span tree that explains them."""
        trace_id = ctx.trace_id
        return f"{message} [trace {trace_id}]" if trace_id else message

    def _run_rewriting(
        self,
        rewriting: Rewriting,
        ctx: ExecutionContext,
        prepared_unit: Optional[PreparedUnit] = None,
        index: int = 0,
        fingerprint: Optional[str] = None,
    ) -> list[NestedTuple]:
        """Run a rewriting's compiled plan over the store's relations.
        The chosen rewriting (given its ``prepared_unit``) reuses the
        unit's compiled plan and the fingerprint-keyed closure; a
        degraded reroute (no unit) compiles uncached, so it cannot poison
        the healthy plan's cached slot.
        Storage-level surprises are normalized to the typed hierarchy (a
        vanished relation is an unavailable module, anything else is a
        plan-execution fault blamed on this rewriting)."""
        plan = rewriting.plan
        context = self.store.context()
        context[EXEC_CTX_KEY] = ctx
        try:
            if prepared_unit is None:
                slot = self._batch_slot(
                    None, "reroute",
                    ctx.compile(plan, self.store.scan_orders()), ctx,
                )
            else:
                slot = self._batch_slot(
                    fingerprint,
                    f"pattern:{prepared_unit.index}:{index}",
                    prepared_unit.compiled_patterns[index],
                    ctx,
                )
            with slot.lock:
                if ctx.profile:
                    # most of a view-backed query's work happens here, not
                    # in the final unit stitch: run instrumented so the
                    # rewriting plan's CPU/memory is attributed (the trees
                    # land in ctx.metrics; _run_prepared_unit forwards
                    # them into the result)
                    return ctx.run(slot.plan, context, batch_fn=slot.fn)[0]
                return slot.fn(context).tuples
        except ReproError:
            raise
        except KeyError as error:
            raise AccessModuleUnavailable(
                f"relation {error} missing from the store",
                xam=rewriting.views[0] if rewriting.views else None,
            ) from error
        except Exception as error:
            raise PlanExecutionError(
                f"{type(error).__name__} while evaluating rewriting "
                f"{list(rewriting.views)}: {error}",
                operator=plan.label() if hasattr(plan, "label") else None,
                xam=rewriting.views[0] if rewriting.views else None,
            ) from error

    def _fallback_rewriting(
        self,
        pattern: Pattern,
        failed: set[str],
        ctx: ExecutionContext,
    ) -> Optional[Rewriting]:
        """Best S-equivalent rewriting avoiding the just-failed and any
        open-circuit access modules; None when no candidate survives."""
        rewritings, _dependencies = self._search_rewritings(
            pattern, ctx, exclude=frozenset(failed)
        )
        return self._best_rewriting(rewritings, ctx)

    def _base_pattern_tuples(
        self,
        pattern: Pattern,
        ctx: Optional[ExecutionContext] = None,
        estimate: Optional[float] = None,
    ) -> list[NestedTuple]:
        """Evaluate a pattern directly over the in-memory documents — the
        always-available access path of last resort (it bypasses the
        store, so storage-level fault points cannot touch it).

        Base evaluation runs no physical operators, so under attributed
        profiling it contributes a synthetic one-node metrics tree — the
        dominant cost of view-less queries must not vanish from the
        profile."""
        profiled = ctx is not None and ctx.profile
        if profiled:
            started = time.perf_counter()
            cpu_started = time.thread_time_ns()
        tuples: list[NestedTuple] = []
        for doc in self.documents:
            tuples.extend(evaluate_pattern(pattern, doc))
        if profiled:
            node = OperatorMetrics(
                label=f"BaseEval({pattern.to_text()})", estimated_rows=estimate
            )
            node.executions = 1
            node.cpu_ns = time.thread_time_ns() - cpu_started
            node.elapsed = time.perf_counter() - started
            node.rows_out = len(tuples)
            ctx.metrics.append(PlanMetrics(node))
        return tuples

    def _run_prepared_unit(
        self,
        prepared_unit: PreparedUnit,
        result: QueryResult,
        stats: bool,
        ctx: ExecutionContext,
        events: Optional[list[str]] = None,
        fingerprint: Optional[str] = None,
    ) -> tuple[CompiledSlot, Optional[PlanMetrics]]:
        """Answer one unit into ``result``: its patterns' tuples, then its
        compiled assembled plan over them — instrumented under ``stats``
        (returning the metrics tree), the bare batch closure otherwise."""
        cpu_started = time.thread_time_ns() if ctx.profile else 0
        unit = prepared_unit.unit
        resolutions = prepared_unit.resolutions
        result.resolutions.extend(resolutions)
        bindings = {EXEC_CTX_KEY: ctx}
        pattern_mark = len(ctx.metrics)
        metrics = None
        for index, resolution in enumerate(resolutions):
            with ctx.span(
                "pattern", index=index, access=resolution.access_path
            ):
                tuples = self._prepared_pattern_tuples(
                    prepared_unit, index, resolution, ctx, events,
                    fingerprint=fingerprint,
                )
            resolution.actual_cardinality = len(tuples)
            bindings[f"__pattern_{index}"] = tuples
        pattern_trees = ctx.metrics[pattern_mark:]
        if ctx.profile:
            # profiled rewriting runs instrumented their plans into
            # ctx.metrics; surface those trees alongside the unit plan's
            result.metrics.extend(pattern_trees)
        plan = prepared_unit.logical
        result.plans.append(plan)
        try:
            slot = self._batch_slot(
                fingerprint,
                f"unit:{prepared_unit.index}",
                prepared_unit.compiled_plan,
                ctx,
            )
            with slot.lock:
                if stats:
                    tuples, metrics = ctx.run(
                        slot.plan, bindings, batch_fn=slot.fn
                    )
                else:
                    tuples = slot.fn(bindings).tuples
        except ReproError:
            raise
        except Exception as error:
            raise PlanExecutionError(
                f"{type(error).__name__} while executing {plan.label()}: {error}",
                operator=plan.label(),
            ) from error
        if metrics is not None:
            result.metrics.append(metrics)
        result.collect(unit, tuples)
        if ctx.profile and metrics is not None:
            # CPU outside every operator window (spans, bindings, output
            # extraction) folds into the root, as run() folds its drive loop
            outside = time.thread_time_ns() - cpu_started
            outside -= sum(tree.total_cpu_ns() for tree in pattern_trees)
            metrics.root.cpu_ns = max(metrics.root.cpu_ns, outside)
        return slot, metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Database docs={len(self.documents)} views={len(self.catalog)} "
            f"|S|={len(self.summary) if self.documents else 0}>"
        )

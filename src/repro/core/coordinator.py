"""The scatter-gather coordinator: N store partitions, one answer.

:class:`ShardedDatabase` is the physical-data-independence stress test
the thesis invites (§1.2): the same documents, re-housed across N store
partitions, must answer every query **bit-for-bit** like the single
:class:`~repro.core.uload.Database` — same tuples, same duplicates, same
order, same plan fingerprint.  The record/replay machinery of
:mod:`repro.engine.qlog` is the proof harness: a workload recorded
against one layout replays against the other with zero checksum or
fingerprint diffs (the sharded CI lane).

Architecture — *plan globally, execute locally, merge deterministically*:

* the coordinator **is** a :class:`Database` over the full corpus: the
  inherited state (all documents, the global path summary, the full view
  materializations, the statistics overrides) is the planner, so
  ``prepare`` — and therefore every plan fingerprint and every ranking
  decision — is byte-identical to the single-store database by
  construction.  The inherited store doubles as the gathered-re-execution
  fallback for plans that do not distribute;
* each shard wraps its document partition in its own cheaply-constructed
  :class:`Database` (bulk-loaded via ``add_documents``, private metrics
  registry, its own breaker board) — the unit a future process-per-shard
  deployment would promote to a remote ``QueryService``;
* execution scatters **per pattern, per document**, one shard after
  another on the thread executing the query (the shards share one GIL:
  a thread pool measured 0.77–1.09× at 2, 4 and 7 shards, so it bought
  nothing): base-access patterns evaluate against each shard's documents;
  rewriting plans are decomposed by the plan splitter
  (:func:`repro.engine.shard.split_plan`) into a distributive subplan —
  run over per-document view segments on the shards — and a
  coordinator-side suffix (regrouping, duplicate elimination) applied to
  the merged stream.  Each shard returns ``(global document sequence,
  tuples)`` runs, and the gather merges them respecting order
  descriptors — k-way heap merge when the relation is sorted,
  document-order concatenation otherwise — so the stitched
  ``__pattern_i`` bindings are exactly what the single store would have
  produced.  Joins, products and the other cross-pattern operators then
  run *above* the gather, at the coordinator, over the global bindings;
* plans the splitter cannot decompose (non-linear spines) fall back to
  gathered re-execution against the inherited full store, counted as
  ``shard.fallback`` — degraded in efficiency, never in correctness.

Partial results extend the degradation protocol of the breaker layer:
when one shard's access modules are circuit-open (or a relation is
missing from its partition), the shard raises
:class:`~repro.errors.AccessModuleUnavailable`; the coordinator drops
that shard's runs, returns the survivors' rows with
``QueryResult.degraded`` set, and records a per-shard degradation event
(``shard.degraded``).  Only when every shard holding documents fails
does the query itself fail.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Optional

from ..algebra.operators import Scan
from ..engine.context import EXEC_CTX_KEY, ExecutionContext
from ..engine.metrics import MetricsRegistry
from ..engine.orderdesc import sort_key_for
from ..engine.shard import (
    Partitioner,
    RoundRobinPartitioner,
    ScatterPlan,
    evaluate_suffix,
    merge_runs,
    merge_sorted_runs,
    split_plan,
)
from ..engine.storage import FaultCheckedContext
from ..errors import AccessModuleUnavailable, ReproError
from ..storage.catalog import CatalogEntry
from ..xmldata import Document
from .embedding import evaluate_pattern
from .uload import (
    Database,
    PatternResolution,
    PreparedUnit,
    QueryResult,
)

__all__ = [
    "ShardedDatabase",
    "SHARDS_ENV_VAR",
    "resolve_shards",
]

#: environment variable selecting the shard count for new databases
#: (``repro serve``/``repro replay`` honour it when ``--shards`` is absent)
SHARDS_ENV_VAR = "REPRO_SHARDS"


def resolve_shards(value: "int | str | None") -> int:
    """Normalize and validate a shard count (``None`` → the
    ``REPRO_SHARDS`` environment variable → 1, i.e. unsharded)."""
    if value is None:
        value = os.environ.get(SHARDS_ENV_VAR) or "1"
    count = int(value)
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return count


class ShardedDatabase(Database):
    """A :class:`Database` whose documents live in N store partitions.

    Planning happens against the inherited global state (identical
    fingerprints to the unsharded database); execution scatters across
    the shards and gathers deterministically.  See the module docstring
    for the full protocol.
    """

    def __init__(
        self,
        shard_count: int,
        partitioner: Optional[Partitioner] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: "object | None | bool" = True,
        profile: "bool | str | None" = None,
    ) -> None:
        super().__init__(metrics=metrics, tracer=tracer, profile=profile)
        shard_count = resolve_shards(shard_count)
        self.shard_count = shard_count
        self.partitioner: Partitioner = partitioner or RoundRobinPartitioner()
        #: per-shard databases over their document partitions.  Private
        #: metrics registries: shard-internal breaker boards would
        #: otherwise collide with the coordinator's on shared module
        #: names (the coordinator owns the externally visible registry).
        self.shards: list[Database] = [
            Database(
                metrics=MetricsRegistry(),
                tracer=None,
                profile=self.profile,
            )
            for _ in range(shard_count)
        ]
        #: shard index → list of (global document sequence, document)
        self._partitions: list[list[tuple[int, Document]]] = [
            [] for _ in range(shard_count)
        ]
        #: relation name → {global document sequence → tuples}: the
        #: per-document view segments scattered rewriting plans read
        self._segments: dict[str, dict[int, list]] = {}
        self._register_shard_metrics()

    def _register_shard_metrics(self) -> None:
        self.metrics.counter(
            "shard.fanout", "pattern scatters fanned out across shards"
        )
        self.metrics.counter(
            "shard.merge", "per-document result runs merged back together"
        )
        self.metrics.counter(
            "shard.fallback",
            "patterns whose plan was not shard-distributive "
            "(gathered re-execution against the full store)",
        )
        self.metrics.counter(
            "shard.degraded",
            "shards dropped from a scatter (access module unavailable)",
        )
        self.metrics.counter(
            "shard.degraded.by_shard",
            "scatter drops per shard (access module unavailable)",
            ("shard",),
        )
        self.metrics.histogram(
            "shard.latency.seconds", "per-shard scatter task latency", ("shard",)
        )
        self.metrics.gauge("shard.count", "store partitions behind this database")
        self.metrics.set_gauge("shard.count", float(self.shard_count))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """A no-op: shards run on the query's own thread, so there is
        nothing to release.  Kept so callers may hold a coordinator as a
        context manager or close it like any other resource."""

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- corpus management: keep planner and partitions in lock-step --------

    def add_documents(self, docs: Iterable[Document]) -> list[Document]:
        start = len(self.documents)
        docs = super().add_documents(docs)
        batches: list[list[Document]] = [[] for _ in range(self.shard_count)]
        for offset, doc in enumerate(docs):
            seq = start + offset
            index = self.partitioner.assign(doc, seq, self.shard_count)
            index %= self.shard_count
            self._partitions[index].append((seq, doc))
            batches[index].append(doc)
        for index, batch in enumerate(batches):
            if batch:
                self.shards[index].add_documents(batch)
        return docs

    def _view_added(self, entry: CatalogEntry, segments: list[list]) -> None:
        """Install the view's per-document segments on the owning shards;
        ``add_view`` registered it globally, as the unsharded database."""
        name = entry.name
        self._segments[name] = dict(enumerate(segments))
        for shard, partition in zip(self.shards, self._partitions):
            shard.store.add(name, [t for seq, _doc in partition for t in segments[seq]])
            shard.catalog.register(name, entry.pattern, relation=name, kind=entry.kind)

    def drop_view(self, name: str) -> None:
        super().drop_view(name)
        self._segments.pop(name, None)
        for shard in self.shards:
            if any(entry.name == name for entry in shard.catalog):
                shard.catalog.unregister(name)
            if name in shard.store:
                shard.store.drop(name)

    # -- observability -------------------------------------------------------

    def health(self) -> str:
        """Coordinator breaker board plus every shard's, labelled."""
        lines = [f"coordinator ({self.shard_count} shard(s)): {super().health()}"]
        for index, shard in enumerate(self.shards):
            docs = len(self._partitions[index])
            lines.append(f"shard {index} ({docs} doc(s)): {shard.breakers.render()}")
        return "\n".join(lines)

    def execute_prepared(self, *args, **kwargs) -> QueryResult:
        result = super().execute_prepared(*args, **kwargs)
        result.shard_count = self.shard_count
        return result

    # -- the scatter-gather pattern path -------------------------------------

    def _prepared_pattern_tuples(
        self,
        prepared_unit: PreparedUnit,
        index: int,
        resolution: PatternResolution,
        physical: bool,
        ctx: ExecutionContext,
        events: Optional[list[str]] = None,
        fingerprint: Optional[str] = None,
    ) -> list:
        """Answer one resolved pattern by scattering it across the
        shards, or fall back to the inherited full-store path when the
        plan is not shard-distributive (``shard.fallback``)."""
        decision = self._classify(resolution)
        if not decision:
            ctx.bump("shard.fallback")
            ctx.event("shard.fallback", pattern=index, reason=decision.reason)
            return super()._prepared_pattern_tuples(
                prepared_unit, index, resolution, physical, ctx, events,
                fingerprint=fingerprint,
            )
        with ctx.span(
            "shard.fanout", pattern=index, shards=self.shard_count
        ):
            ctx.bump("shard.fanout")
            runs, dropped = self._scatter(resolution, decision, ctx)
        if dropped:
            attempted = sum(1 for partition in self._partitions if partition)
            if len(dropped) == attempted:
                # no survivors: nothing partial to serve, fail the query
                raise dropped[0][1]
            for shard_index, error in dropped:
                ctx.bump("shard.degraded")
                self.metrics.inc(
                    "shard.degraded.by_shard", shard=str(shard_index)
                )
                ctx.event("shard.degraded", shard=shard_index)
                if events is not None:
                    events.append(
                        self._stamp_event(
                            f"shard {shard_index} dropped from scatter-gather "
                            f"(partial results): {error}",
                            ctx,
                        )
                    )
        with ctx.span("shard.merge", pattern=index, runs=len(runs)):
            ctx.bump("shard.merge", float(len(runs)))
            order = self._global_order(resolution, decision)
            if order is not None:
                tuples = merge_sorted_runs(runs, sort_key_for(order))
            else:
                tuples = merge_runs(runs)
            if decision.suffix:
                # the non-distributive tail (regroup, π⁰, …) sees the
                # merged global stream — single-store semantics exactly
                schema = ()
                if decision.scatter_root is not None:
                    schema = decision.scatter_root.schema()
                tuples = evaluate_suffix(
                    decision.suffix,
                    tuples,
                    context={EXEC_CTX_KEY: ctx},
                    schema=schema,
                )
        return tuples

    def _classify(self, resolution: PatternResolution) -> ScatterPlan:
        """Base access always scatters (per-document evaluation *is* its
        single-store semantics — ``scatter_root`` stays None); rewriting
        plans go through the plan splitter, cached per resolution."""
        cached = getattr(resolution, "_scatter_decision", None)
        if cached is not None:
            return cached
        if resolution.rewriting is None:
            decision = ScatterPlan(True)
        else:
            decision = split_plan(
                resolution.rewriting.plan, self._segments, self.store.names()
            )
        resolution._scatter_decision = decision
        return decision

    def _global_order(
        self, resolution: PatternResolution, decision: ScatterPlan
    ) -> Optional[str]:
        """The order descriptor under which the scattered runs should
        k-way merge: the global relation's, when the store maintains one
        and the scattered subplan is the bare scan (per-tuple operators
        above the scan may drop or rewrite the order attribute, so the
        merge then falls back to document-order concatenation — always
        correct, since an ordered global relation is also its own
        document-order concatenation)."""
        rewriting = resolution.rewriting
        if rewriting is None or len(rewriting.views) != 1:
            return None
        if not isinstance(decision.scatter_root, Scan):
            return None
        name = decision.scatter_root.name
        if name not in self.store:
            return None
        return self.store[name].order

    def _scatter(
        self,
        resolution: PatternResolution,
        decision: ScatterPlan,
        ctx: ExecutionContext,
    ):
        """Run the pattern on every shard holding documents, in shard
        order, on the calling thread.  Returns ``(runs, dropped)`` where
        ``dropped`` is a list of ``(shard index, error)`` for shards
        serving degraded queries.  Transient faults and plan-execution
        errors propagate — the query service owns retries, exactly as on
        the unsharded path."""
        runs: list = []
        dropped: list = []
        for index, partition in enumerate(self._partitions):
            if not partition:
                continue
            try:
                runs.extend(self._shard_task(index, resolution, decision, ctx))
            except AccessModuleUnavailable as error:
                dropped.append((index, error))
        return runs, dropped

    def _shard_task(
        self,
        shard_index: int,
        resolution: PatternResolution,
        decision: ScatterPlan,
        ctx: ExecutionContext,
    ) -> list:
        """One shard's slice of a scattered pattern: evaluate the
        distributive subplan per document against the shard's breaker
        board.  It runs inside the coordinator's fault scope and its
        attributed operator windows, so faults and CPU land on the
        query like any other pattern's."""
        shard = self.shards[shard_index]
        partition = self._partitions[shard_index]
        start = time.perf_counter()
        try:
            rewriting = resolution.rewriting
            if rewriting is None:
                return [
                    (seq, evaluate_pattern(resolution.pattern, doc))
                    for seq, doc in partition
                ]
            for name in rewriting.views:
                if not shard.breakers.allows(name):
                    raise AccessModuleUnavailable(
                        f"shard {shard_index}: access module {name!r} "
                        "is circuit-open",
                        xam=name,
                    )
            try:
                runs = [
                    (seq, decision.scatter_root.evaluate(
                        self._segment_context(seq, ctx)
                    ))
                    for seq, _doc in partition
                ]
            except ReproError:
                raise
            except KeyError as error:
                raise AccessModuleUnavailable(
                    f"shard {shard_index}: relation {error} missing "
                    "from the partition",
                    xam=rewriting.views[0] if rewriting.views else None,
                ) from error
            for name in rewriting.views:
                shard.breakers.record_success(name)
            return runs
        except AccessModuleUnavailable as error:
            names = [error.xam] if error.xam else list(
                resolution.rewriting.views if resolution.rewriting else ()
            )
            for name in names:
                shard.breakers.record_failure(name, str(error))
            raise
        finally:
            self.metrics.observe(
                "shard.latency.seconds",
                time.perf_counter() - start,
                shard=str(shard_index),
            )

    def _segment_context(self, seq: int, ctx: ExecutionContext) -> FaultCheckedContext:
        """The evaluation context of one document's slice of every view:
        fault-checked like a store context (``relation.scan`` fires per
        read), carrying the execution context for operator metrics."""
        context = FaultCheckedContext(
            (name, segments.get(seq, []))
            for name, segments in self._segments.items()
        )
        context[EXEC_CTX_KEY] = ctx
        return context

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedDatabase shards={self.shard_count} "
            f"docs={len(self.documents)} views={len(self.catalog)}>"
        )

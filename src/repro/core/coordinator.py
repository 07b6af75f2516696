"""The scatter-gather coordinator: N document partitions, one answer.

:class:`ShardedDatabase` is the physical-data-independence stress test
the thesis invites (§1.2): the answer must not depend on the storage
layout, and a document partition is one more layout.  The same
documents, re-housed across N partitions, must answer every query
**bit-for-bit** like the single :class:`~repro.core.uload.Database` —
same tuples, same duplicates, same order, same plan fingerprint.  The
record/replay machinery of :mod:`repro.engine.qlog` is the proof
harness: a workload recorded against one layout replays against the
other with zero checksum or fingerprint diffs (the sharded CI lane).

The coordinator **is** a :class:`Database` over the full corpus, so
``prepare`` — every plan fingerprint and ranking decision — is the
single store's by construction, and so is execution, apart from where a
rewriting reads its views:

* each shard is its document partition plus a breaker board over the
  access modules it serves;
* ``add_view`` keeps every view's per-document segments.  A rewriting
  runs the pattern's compiled batch slot — the fingerprint-keyed slot the
  single store runs — over its view relations **gathered** from the
  shards that serve all of its views, concatenated in global document
  order.  With every shard healthy a gathered relation is list-equal to
  the stored one, which ``add_view`` built as the same concatenation;
* base-store patterns take the inherited per-document loop, which is
  the single store's answer already.

Partial results extend the degradation protocol of the breaker layer: a
shard whose breaker is open for any of the rewriting's views is dropped
from every relation of the pattern, and the survivors' rows are returned
with ``QueryResult.degraded`` set and a per-shard degradation event
(``shard.degraded``).  Only when every shard holding documents is
dropped does the query fail, with
:class:`~repro.errors.AccessModuleUnavailable`.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Protocol, Sequence

from ..engine.breaker import BreakerBoard
from ..engine.context import ExecutionContext
from ..engine.metrics import MetricsRegistry
from ..engine.storage import FaultCheckedContext
from ..errors import AccessModuleUnavailable
from ..storage.catalog import CatalogEntry
from ..xmldata import Document
# not called here: bench/layers.py times it through this module's namespace
from .embedding import evaluate_pattern  # noqa: F401
from .uload import (
    Database,
    PatternResolution,
    PreparedUnit,
    QueryResult,
)

__all__ = [
    "ShardedDatabase",
    "Partitioner",
    "RoundRobinPartitioner",
    "ExplicitPartitioner",
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


# -- partitioners ------------------------------------------------------------


class Partitioner(Protocol):
    """Document → shard assignment policy.

    ``assign`` sees the document, its global sequence number (position in
    the coordinator's document list — the corpus-wide document order),
    and the shard count; it returns the shard index.  Implementations
    must be deterministic: replaying a workload against a rebuilt
    coordinator must land every document on the same shard.
    """

    def assign(self, doc, seq: int, shard_count: int) -> int: ...


class RoundRobinPartitioner:
    """The default: document *i* lands on shard ``i % n``."""

    def assign(self, doc, seq: int, shard_count: int) -> int:
        return seq % shard_count

    def __repr__(self) -> str:
        return "RoundRobinPartitioner()"


class ExplicitPartitioner:
    """A fixed sequence-number → shard map (property tests use this to
    drive scatter-gather through *every* partitioning of a corpus).
    Unmapped documents fall back to round-robin."""

    def __init__(self, assignments: Sequence[int]):
        self.assignments = list(assignments)

    def assign(self, doc, seq: int, shard_count: int) -> int:
        if seq < len(self.assignments):
            return self.assignments[seq] % shard_count
        return seq % shard_count

    def __repr__(self) -> str:
        return f"ExplicitPartitioner({self.assignments!r})"


class Shard:
    """One store partition: its documents as ``(global document sequence,
    document)`` pairs, and the breakers of the access modules it serves."""

    __slots__ = ("partition", "breakers")

    def __init__(self) -> None:
        self.partition: list[tuple[int, Document]] = []
        self.breakers = BreakerBoard()


class ShardedDatabase(Database):
    """A :class:`Database` whose documents live in N store partitions.

    Planning and execution are the inherited single-store ones; view
    relations are gathered from the shards that serve them.  See the
    module docstring for the full protocol.
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
        self.shard_count = resolve_shards(shard_count)
        self.partitioner: Partitioner = partitioner or RoundRobinPartitioner()
        self.shards = [Shard() for _ in range(self.shard_count)]
        #: relation name → {global document sequence → tuples}: the
        #: per-document view segments rewritings read gathered
        self._segments: dict[str, dict[int, list]] = {}
        self._register_shard_metrics()

    def _register_shard_metrics(self) -> None:
        self.metrics.counter(
            "shard.fanout", "view patterns gathered across shards"
        )
        self.metrics.counter(
            "shard.merge", "per-document view segments gathered"
        )
        self.metrics.counter(
            "shard.degraded",
            "shards dropped from a gather (access module unavailable)",
        )
        self.metrics.counter(
            "shard.degraded.by_shard",
            "gather drops per shard (access module unavailable)",
            ("shard",),
        )
        self.metrics.gauge("shard.count", "store partitions behind this database")
        self.metrics.set_gauge("shard.count", float(self.shard_count))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """A no-op: the gather runs on the query's own thread, so there is
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
        for seq, doc in enumerate(docs, start):
            index = self.partitioner.assign(doc, seq, self.shard_count)
            self.shards[index % self.shard_count].partition.append((seq, doc))
        return docs

    def _view_added(self, entry: CatalogEntry, segments: list[list]) -> None:
        """Keep the view's per-document segments; ``add_view`` registered
        it globally, as the unsharded database."""
        self._segments[entry.name] = dict(enumerate(segments))

    def drop_view(self, name: str) -> None:
        super().drop_view(name)
        self._segments.pop(name, None)

    # -- observability -------------------------------------------------------

    def health(self) -> str:
        """Coordinator breaker board plus every shard's, labelled."""
        lines = [f"coordinator ({self.shard_count} shard(s)): {super().health()}"]
        for index, shard in enumerate(self.shards):
            lines.append(
                f"shard {index} ({len(shard.partition)} doc(s)): "
                f"{shard.breakers.render()}"
            )
        return "\n".join(lines)

    def execute_prepared(self, *args, **kwargs) -> QueryResult:
        result = super().execute_prepared(*args, **kwargs)
        result.shard_count = self.shard_count
        return result

    # -- the gather path -----------------------------------------------------

    def _prepared_pattern_tuples(
        self,
        prepared_unit: PreparedUnit,
        index: int,
        resolution: PatternResolution,
        ctx: ExecutionContext,
        events: Optional[list[str]] = None,
        fingerprint: Optional[str] = None,
    ) -> list:
        """Base-store patterns take the inherited path; a rewriting runs
        its compiled slot over the view segments gathered from the shards
        serving all of its views."""
        rewriting = resolution.rewriting
        if rewriting is None:
            return super()._prepared_pattern_tuples(
                prepared_unit, index, resolution, ctx, events,
                fingerprint=fingerprint,
            )
        views = set(rewriting.views)
        with ctx.span("shard.fanout", pattern=index, shards=self.shard_count):
            ctx.bump("shard.fanout")
            serving = self._serving_shards(views, ctx, events)
            context = self._gather(views, serving, ctx)
        tuples = self._run_rewriting(
            rewriting, ctx, prepared_unit, index, fingerprint, context=context
        )
        for shard in serving:
            for name in views:
                shard.breakers.record_success(name)
        return tuples

    def _serving_shards(
        self,
        views: set[str],
        ctx: ExecutionContext,
        events: Optional[list[str]],
    ) -> list[Shard]:
        """The shards holding documents whose breakers allow every one of
        ``views``.  Each other shard holding documents is dropped from the
        pattern (partial results); with none left the pattern fails."""
        serving: list[Shard] = []
        dropped: list[tuple[int, AccessModuleUnavailable]] = []
        for index, shard in enumerate(self.shards):
            if not shard.partition:
                continue
            closed = [name for name in views if not shard.breakers.allows(name)]
            if not closed:
                serving.append(shard)
                continue
            dropped.append((index, AccessModuleUnavailable(
                f"shard {index}: access module {closed[0]!r} is circuit-open",
                xam=closed[0],
            )))
        if dropped and not serving:
            # no survivors: nothing partial to serve, fail the query
            raise dropped[0][1]
        for index, error in dropped:
            ctx.bump("shard.degraded")
            self.metrics.inc("shard.degraded.by_shard", shard=str(index))
            ctx.event("shard.degraded", shard=index)
            if events is not None:
                events.append(
                    self._stamp_event(
                        f"shard {index} dropped from scatter-gather "
                        f"(partial results): {error}",
                        ctx,
                    )
                )
        return serving

    def _gather(
        self, views: set[str], serving: list[Shard], ctx: ExecutionContext
    ) -> FaultCheckedContext:
        """The views' relations over the serving shards' documents: the
        per-document segments concatenated in global document order,
        fault-checked like a store context.  A view missing from the
        catalog stays missing, as in the store."""
        seqs = sorted(seq for shard in serving for seq, _doc in shard.partition)
        ctx.bump("shard.merge", float(len(seqs)))
        context = FaultCheckedContext()
        for name in views:
            segments = self._segments.get(name)
            if segments is not None:
                context[name] = [
                    t for seq in seqs for t in segments.get(seq, ())
                ]
        return context

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedDatabase shards={self.shard_count} "
            f"docs={len(self.documents)} views={len(self.catalog)}>"
        )

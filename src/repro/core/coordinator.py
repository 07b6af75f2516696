"""The sharded store layout: N document partitions, one answer.

:class:`ShardedDatabase` is the physical-data-independence stress test
the thesis invites (§1.2): the answer must not depend on the storage
layout, and a document partition is one more layout.  The same
documents, assigned across N partitions, must answer every query
**bit-for-bit** like the single :class:`~repro.core.uload.Database` —
same tuples, same duplicates, same order, same plan fingerprint.  The
record/replay machinery of :mod:`repro.engine.qlog` is the proof
harness: a workload recorded against one layout replays against the
other with zero checksum or fingerprint diffs (the sharded CI lane).

The coordinator **is** a :class:`Database` over the full corpus, so
planning, execution and the degradation protocol are the single
store's: a rewriting runs its compiled plan over the store's relations,
and a failed access module is recorded on the database's breaker board
and re-routed through the next S-equivalent rewriting or the base store
(thesis §1.2.4), as on one store.  What the coordinator adds is the
partition map — which documents each shard holds, by a deterministic
:class:`Partitioner` — the input a process-per-shard executor would
scatter over, and the shard count stamped on every result.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Protocol, Sequence

from ..engine.metrics import MetricsRegistry
from ..xmldata import Document
# not called here: bench/layers.py times it through this module's namespace
from .embedding import evaluate_pattern  # noqa: F401
from .uload import Database, QueryResult

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
    drive the coordinator through *every* partitioning of a corpus).
    Unmapped documents fall back to round-robin."""

    def __init__(self, assignments: Sequence[int]):
        self.assignments = list(assignments)

    def assign(self, doc, seq: int, shard_count: int) -> int:
        if seq < len(self.assignments):
            return self.assignments[seq] % shard_count
        return seq % shard_count

    def __repr__(self) -> str:
        return f"ExplicitPartitioner({self.assignments!r})"


class ShardedDatabase(Database):
    """A :class:`Database` whose documents are assigned to N partitions.

    Planning, execution and degradation are the inherited single-store
    ones.  See the module docstring for what the partitions are for.
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
        #: per shard, its documents as ``(global document sequence,
        #: document)`` pairs
        self.partitions: list[list[tuple[int, Document]]] = [
            [] for _ in range(self.shard_count)
        ]
        self.metrics.gauge("shard.count", "store partitions behind this database")
        self.metrics.set_gauge("shard.count", float(self.shard_count))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """A no-op: queries run on their own thread, so there is nothing
        to release.  Kept so callers may hold a coordinator as a context
        manager or close it like any other resource."""

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
            self.partitions[index % self.shard_count].append((seq, doc))
        return docs

    def execute_prepared(self, *args, **kwargs) -> QueryResult:
        result = super().execute_prepared(*args, **kwargs)
        result.shard_count = self.shard_count
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedDatabase shards={self.shard_count} "
            f"docs={len(self.documents)} views={len(self.catalog)}>"
        )

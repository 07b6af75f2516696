"""Summary-based cardinality estimation for tree patterns.

The thesis notes (§1.2.4) that tree patterns are "the common abstraction
for XML query cardinality estimations" and that path summaries serve "as
a support for statistics".  This module follows that lead: every summary
node records how many document nodes map onto its path (the φ-image
cardinality collected during summary construction), and a pattern's
cardinality is estimated per embedding:

* a pattern node contributes the cardinality of the summary node it maps
  to, scaled by its parent's share (independence assumption between
  sibling branches — the classic estimator);
* value predicates apply a default selectivity;
* optional/nested edges do not reduce the parent's count (outer
  semantics); semijoin branches apply a containment factor.

The estimator powers :func:`rank_rewritings`: given several S-equivalent
plans, prefer the one reading the fewest view tuples — a small but real
cost-based access-path selection on top of Chapter 5's rewriting, in the
spirit of the access-path selection the introduction celebrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine.context import StatisticsProvider
from ..storage.catalog import Catalog
from ..summary.path_summary import PathSummary, SummaryNode
from .canonical import admits_label
from .embedding import iter_embeddings
from .rewrite import Rewriting
from .xam import Pattern, PatternNode

__all__ = [
    "CardinalityEstimate",
    "CatalogStatistics",
    "estimate_pattern_cardinality",
    "estimate_view_size",
    "rank_rewritings",
    "views_cost",
    "DEFAULT_PREDICATE_SELECTIVITY",
]

DEFAULT_PREDICATE_SELECTIVITY = 0.1


@dataclass(frozen=True)
class CardinalityEstimate:
    """An estimate with the embeddings that produced it."""

    expected: float
    per_embedding: tuple[float, ...]

    def __float__(self) -> float:
        return self.expected


def estimate_pattern_cardinality(
    pattern: Pattern,
    summary: PathSummary,
    predicate_selectivity: float = DEFAULT_PREDICATE_SELECTIVITY,
) -> CardinalityEstimate:
    """Expected number of result tuples of the pattern over documents
    conforming to the summary (sum over embeddings — each embedding is a
    disjoint family of matches)."""
    estimates = []

    def children(snode: SummaryNode):
        return list(snode.children.values())

    def admits(pattern_node: PatternNode, snode: SummaryNode) -> bool:
        return admits_label(pattern_node, snode.label)

    has_below = summary.has_labeled_below

    def descendants(snode: SummaryNode, pattern_node: PatternNode):
        # the generic walk's order, minus the subtrees holding no path the
        # pattern node admits
        tag = pattern_node.tag
        if not has_below(snode, tag):
            return
        stack = list(snode.children.values())
        while stack:
            candidate = stack.pop()
            yield candidate
            if has_below(candidate, tag):
                stack.extend(candidate.children.values())

    seen: set[tuple] = set()
    for embedding in iter_embeddings(
        pattern, summary.root, children, admits, descendants=descendants
    ):
        key = tuple(
            (node.name, snode.number if snode is not None else None)
            for node, snode in sorted(embedding.items(), key=lambda kv: kv[0].name)
        )
        if key in seen:
            continue
        seen.add(key)
        estimates.append(
            _estimate_embedding(pattern, embedding, predicate_selectivity)
        )
    return CardinalityEstimate(sum(estimates), tuple(estimates))


def _estimate_embedding(
    pattern: Pattern,
    embedding: dict[PatternNode, SummaryNode],
    predicate_selectivity: float,
) -> float:
    """Expected tuples for one embedding: per top-level branch, the
    target path's cardinality times a multiplicative factor per edge —
    join edges multiply by children-per-parent, semijoins filter,
    outerjoins never drop below 1, nest edges contribute one collection
    per parent."""

    def ratio(edge) -> float:
        child = embedding.get(edge.child)
        parent = embedding.get(edge.parent)
        if child is None or parent is None:
            return 0.0  # optional branch without a match
        parent_count = max(parent.cardinality, 1)
        value = child.cardinality / parent_count
        if not edge.child.value_formula.is_true:
            value *= predicate_selectivity
        return value

    def branch_factor(node: PatternNode) -> float:
        factor = 1.0
        for edge in node.edges:
            per_parent = ratio(edge) * branch_factor(edge.child)
            if edge.semi:
                factor *= min(1.0, per_parent)
            elif edge.nested:
                factor *= 1.0  # one collection per parent tuple
            elif edge.optional:
                factor *= max(1.0, per_parent)
            else:
                factor *= per_parent
        return factor

    total = 1.0
    for edge in pattern.root.edges:
        target = embedding.get(edge.child)
        if target is None:
            if edge.optional:
                continue
            return 0.0
        count = float(max(target.cardinality, 0))
        if not edge.child.value_formula.is_true:
            count *= predicate_selectivity
        total *= count * branch_factor(edge.child)
    return total


def estimate_view_size(
    view: Pattern,
    summary: PathSummary,
    predicate_selectivity: float = DEFAULT_PREDICATE_SELECTIVITY,
) -> float:
    """Estimated stored-tuple count of a materialized XAM."""
    return estimate_pattern_cardinality(
        view, summary, predicate_selectivity
    ).expected


class CatalogStatistics(StatisticsProvider):
    """The database-backed statistics provider the
    :class:`~repro.engine.context.ExecutionContext` consults.

    Base relations answer with their *actual* stored size when a store is
    at hand, falling back to the summary estimate of the catalog entry
    describing them; tree patterns answer with the summary estimator.

    ``overrides`` pins answers by key — a relation/view name for
    :meth:`relation_size`, a pattern's ``to_text()`` form for
    :meth:`pattern_cardinality` — and is consulted *first*.  The database
    shares its ``statistics_overrides`` dict here, which is the lever for
    reproducing stale-statistics incidents (pin a wrong cardinality, watch
    rewriting ranking flip and the sentinel flag the misestimate) without
    mutating documents.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        summary: Optional[PathSummary] = None,
        store=None,
        predicate_selectivity: float = DEFAULT_PREDICATE_SELECTIVITY,
        overrides: Optional[dict[str, float]] = None,
    ):
        self.catalog = catalog
        self.summary = summary
        self.store = store
        self.predicate_selectivity = predicate_selectivity
        self.overrides = overrides if overrides is not None else {}
        #: (pattern text, summary generation) → estimate: a query's
        #: resolution and its compiled plan ask for each pattern once
        self._pattern_estimates: dict[tuple[str, int], float] = {}

    def relation_size(self, name: str) -> Optional[float]:
        pinned = self.overrides.get(name)
        if pinned is not None:
            return float(pinned)
        if self.store is not None and name in self.store:
            return float(len(self.store[name]))
        if self.catalog is not None and self.summary is not None and name in self.catalog:
            return estimate_view_size(
                self.catalog[name].pattern, self.summary, self.predicate_selectivity
            )
        return None

    def pattern_cardinality(self, pattern: Pattern) -> Optional[float]:
        text = pattern.to_text()
        pinned = self.overrides.get(text)
        if pinned is not None:
            return float(pinned)
        if self.summary is None:
            return None
        key = (text, self.summary.generation)
        known = self._pattern_estimates.get(key)
        if known is None:
            known = self._pattern_estimates[key] = estimate_pattern_cardinality(
                pattern, self.summary, self.predicate_selectivity
            ).expected
        return known


def views_cost(
    views: Sequence[str], statistics: StatisticsProvider
) -> tuple[int, float]:
    """The part of :func:`rank_rewritings`' key known from a plan's views
    alone: ``(unknown view count, known volume)``.  The rewriting search
    validates candidates in this order (``rewrite_pattern(cost=...)``)."""
    unknown = 0
    volume = 0.0
    for name in views:
        size = statistics.relation_size(name)
        if size is None:
            unknown += 1
        else:
            volume += size
    return unknown, volume


def rank_rewritings(
    rewritings: Sequence[Rewriting],
    catalog: Catalog,
    summary: PathSummary,
    store=None,
    statistics: Optional[StatisticsProvider] = None,
) -> list[Rewriting]:
    """Order S-equivalent rewritings by estimated input volume.

    The volume of each rewriting is the summed size of the views it reads,
    answered by a statistics provider (actual sizes when a store is at
    hand, summary estimates otherwise).  A view with *unknown* statistics
    is not priced at infinity — that would rank a tiny fresh view behind a
    full base scan — instead the cost key is
    ``(unknown view count, known volume, operator count)``: rewritings
    touching fewer statistics-less views win, known volume breaks the tie,
    plan size breaks the rest.  The first two fields are
    :func:`views_cost`.  ``statistics`` lets callers share one
    :class:`~repro.engine.context.ExecutionContext` provider across
    ranking, compilation and EXPLAIN.
    """
    if statistics is None:
        statistics = CatalogStatistics(catalog, summary, store)
    return sorted(
        rewritings,
        key=lambda rewriting: (
            *views_cost(rewriting.views, statistics),
            rewriting.plan.operator_count(),
        ),
    )

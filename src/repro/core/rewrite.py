"""Rewriting query patterns using XAM views (thesis Chapter 5).

Generate-and-test, as §5.3 prescribes: candidate plans over the view
catalog are proposed from path-annotation compatibility, converted to
their S-equivalent union of patterns (§5.5, :mod:`repro.core.plan_pattern`)
and kept only when that union is S-equivalent to the query pattern.

The generator exploits every rewriting enabler called out in §5.2:

* **summary-based matching** — a view node serves a query node when their
  path annotations (Definition 4.3.1) intersect; the final equivalence
  test confirms the summary closes the gap (e.g. ``//region/*/description
  /parlist/listitem`` serving ``//region/item//listitem``);
* **navigation in stored content** — a view storing ``Cont`` of an
  ancestor path serves descendant value/content needs through a
  :class:`~repro.algebra.operators.Navigate` operator;
* **structural identifiers** — views without common nodes combine through
  structural joins on their stored structural IDs;
* **ID properties** — navigational (``p``) identifiers derive the parent
  ID, enabling equality joins the stored attributes alone would not allow
  (:class:`~repro.algebra.operators.DerivedColumn`);
* **unions** — when no single view covers the query, views individually
  contained in it may cover it jointly (the summary-driven union
  rewritings of §5.3).

The result plans read from the base relations named in the catalog, so
they execute directly against the store — physical data independence
end-to-end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

from ..algebra.formulas import Formula
from ..algebra.model import NestedTuple
from ..algebra.operators import (
    DeepRename,
    DerivedColumn,
    Navigate,
    Operator,
    Project,
    Regroup,
    Scan,
    Select,
    StructuralJoin,
    Union as UnionOp,
    ValueJoin,
)
from ..algebra.predicates import Attr, Compare, Predicate
from ..storage.catalog import Catalog, CatalogEntry
from ..summary.path_summary import PathSummary
from ..xmldata.ids import ID_KINDS, DeweyID, kind_supports
from .containment import PatternFacts, SearchStats, contained_in, may_be_contained
from .embedding import subtree_attribute_names
from .plan_pattern import GlueCondition, merged_patterns
from .xam import (
    CHILD,
    DESCENDANT,
    JOIN,
    NEST,
    NEST_OUTER,
    OUTER,
    Pattern,
    PatternNode,
)

__all__ = [
    "Rewriting",
    "SearchStats",
    "rewrite_pattern",
    "relevant_views",
    "view_is_relevant",
    "DeepRename",
    "Regroup",
    "SatisfiesFormula",
]

#: cap on the candidate combinations tried per view (pair): keeps the
#: candidate explosion in check; reaching it is counted, never silent
MAX_COMBINATIONS = 64


@dataclass(frozen=True)
class SatisfiesFormula(Predicate):
    """σ over a value attribute against an interval formula (query value
    predicates a view stores but does not enforce)."""

    attr: Attr
    formula: Formula

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return any(
            self.formula.evaluate(value) for value in left.iter_path(self.attr.path)
        )

    def __repr__(self) -> str:
        return f"{self.attr.path} ~ {self.formula!r}"


# ---------------------------------------------------------------------------
# Candidate bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    """One way a view node can serve a query node."""

    entry: CatalogEntry
    view_node: str  # original view node name
    mode: str  # 'direct', 'nav' or 'parent'
    nav_steps: tuple = ()  # for 'nav': ((axis, label), ...)


@dataclass(frozen=True)
class _Use:
    """One occurrence of a view in a plan."""

    index: int
    entry: CatalogEntry
    pattern: Pattern  # per-use renamed copy of the view pattern
    #: q node name → renamed view node name (direct services)
    direct: dict[str, str]
    #: q node name → (renamed content node, steps, q attr, out node name)
    navs: dict[str, tuple[str, tuple, str, str]]
    #: q node name → (renamed child node whose parent ID is derived, name
    #: of the parent node in the adapted pattern)
    derived: dict[str, tuple[str, str]]
    #: q node name → where the plan reads it
    outputs: dict[str, "_Output"]


@dataclass(frozen=True)
class _Output:
    """Where a plan reads one query return node from."""

    use: int
    #: the serving node, named as in the use's adapted pattern: a view
    #: node, a navigation's target or a derived parent
    node: str
    #: the node's attributes in the plan's tuples (``node.attr``)
    attrs: tuple[str, ...]
    #: the serving view node sits inside a view collection
    nested: bool


@dataclass(frozen=True)
class _Skeleton:
    """One candidate plan, decided once: the S-equivalence test and the
    plan builder read the same decisions.  ``joins`` is a join tree in
    lowering order: the first glue's left use seeds it, and each glue
    joins a use in the tree (left) to a new one (right).  ``outputs`` has
    one entry per query return node; entries may share a view node."""

    query: Pattern
    uses: tuple[_Use, ...]
    joins: tuple[GlueCondition, ...]
    outputs: dict[str, _Output]

    def __post_init__(self):
        tree = {self.joins[0].left_use if self.joins else 0}
        for glue in self.joins:
            assert glue.left_use != glue.right_use, glue
            assert glue.left_use in tree and glue.right_use not in tree, glue
            tree.add(glue.right_use)
        assert tree == set(range(len(self.uses)))
        returns = [node.name for node in self.query.return_nodes()]
        assert sorted(self.outputs) == sorted(returns), (self.outputs, returns)

    @property
    def views(self) -> tuple[str, ...]:
        return tuple(use.entry.name for use in self.uses)

    @property
    def multi_served(self) -> bool:
        """Whether some view node serves several query nodes."""
        served = {(output.use, output.node) for output in self.outputs.values()}
        return len(served) < len(self.outputs)

    @property
    def lowerable(self) -> bool:
        """A view node serving several query nodes is copied into flat
        columns, so no output may then sit in a collection or come from a
        navigation (no battery reaches such a candidate)."""
        return not self.multi_served or not (
            any(output.nested for output in self.outputs.values())
            or any(use.navs for use in self.uses)
        )

    @cached_property
    def regroup(self):
        return _regroup_spec(self)


@dataclass
class Rewriting:
    """One S-equivalent plan over materialized views."""

    plan: Operator
    views: tuple[str, ...]
    #: the union of patterns the plan is equivalent to (inspection aid)
    equivalent_patterns: tuple[Pattern, ...]
    kind: str  # 'single', 'join', 'union'

    def __repr__(self) -> str:
        return f"<Rewriting {self.kind} views={list(self.views)}>"


def _id_kind_at_least(view_kind: Optional[str], query_kind: Optional[str]) -> bool:
    if query_kind is None:
        return True
    if view_kind is None:
        return False
    return ID_KINDS.index(view_kind) >= ID_KINDS.index(query_kind)


def _rename_pattern(pattern: Pattern, prefix: str) -> Pattern:
    clone = pattern.copy()
    for node in clone.nodes():
        node.name = f"{prefix}{node.name}"
    return clone


def _attr_path(pattern: Pattern, node_name: str, attr: str) -> str:
    """Nesting path of ``node.attr`` inside the pattern's output tuples."""
    node = pattern.node_by_name(node_name)
    segments: list[str] = []
    walk = node
    while walk.parent_edge is not None:
        if walk.parent_edge.nested:
            segments.append(walk.name)
        walk = walk.parent_edge.parent
    segments.reverse()
    segments.append(f"{node.name}.{attr}")
    return "/".join(segments)


# ---------------------------------------------------------------------------
# The rewriting algorithm
# ---------------------------------------------------------------------------

@dataclass
class _Search:
    """One :func:`rewrite_pattern` call: everything about the query that
    does not depend on the candidate is worked out here, once."""

    query: Pattern
    summary: PathSummary
    stats: SearchStats
    #: the query as containment sees it
    facts: PatternFacts
    #: the catalog's views with their memoised facts, snapshotted once
    views: list[tuple[CatalogEntry, PatternFacts]]
    #: the query with some collections flattened (what a re-nesting plan is
    #: validated against), by the set of rebuilt collection names
    flattened: dict[frozenset, PatternFacts] = field(default_factory=dict)
    #: containment verdicts of this search, by the patterns' structure
    verdicts: dict[tuple, bool] = field(default_factory=dict)

    @property
    def query_returns(self) -> list[str]:
        return self.facts.return_names

    def validation_query(self, rebuilt: frozenset) -> PatternFacts:
        if not rebuilt:
            return self.facts
        facts = self.flattened.get(rebuilt)
        if facts is None:
            facts = self.flattened[rebuilt] = PatternFacts(
                _unnest_pattern(self.query, rebuilt),
                self.summary,
                self.query_returns,
            )
        return facts

    def contained(self, pattern: PatternFacts, views: list[PatternFacts]) -> bool:
        """``pattern ⊑_S ∪views``: remembered, else settled by the path
        annotations, else decided."""
        key = (pattern.key, tuple(view.key for view in views))
        verdict = self.verdicts.get(key)
        if verdict is not None:
            self.stats.memo_hits += 1
        elif not may_be_contained(pattern, views):
            self.stats.prefilter_rejected += 1
            verdict = self.verdicts[key] = False
        else:
            self.stats.containment_tests += 1
            verdict = self.verdicts[key] = contained_in(
                pattern, views, stats=self.stats
            )
        return verdict


def _view_facts(
    entry: CatalogEntry, summary: PathSummary, stats: SearchStats
) -> PatternFacts:
    """The entry's memoised facts, replaced when they were derived from
    another summary or an earlier state of this one.  Nothing is computed
    here: each fact is filled in by the first search that asks for it."""
    facts = entry.search_memo
    if facts is not None and facts.current_for(summary):
        stats.memo_hits += 1
        return facts
    facts = entry.search_memo = PatternFacts(entry.pattern, summary)
    return facts


def rewrite_pattern(
    query: Pattern,
    catalog: Catalog,
    summary: PathSummary,
    max_results: Optional[int] = 10,
    max_union: int = 3,
    stats: Optional[SearchStats] = None,
    relevant: Optional[list[CatalogEntry]] = None,
    cost: Optional[Callable[[tuple[str, ...]], tuple]] = None,
    exclude: frozenset = frozenset(),
) -> list[Rewriting]:
    """Non-redundant S-equivalent rewritings of the query pattern over the
    catalog's views, smallest plans first, at most ``max_results`` of them
    (``None`` = unbounded).

    Covers single-view plans (with compensating selections and content
    navigation), two-view join plans (node-equality, structural, and
    derived-parent glue) and union plans of up to ``max_union`` members.
    Views named in ``exclude`` take part in no candidate.

    Every candidate plan is enumerated first, unvalidated, and bucketed by
    ``cost`` of the views it reads; buckets are validated in ascending
    order and the search stops after the first one holding a rewriting.
    ``cost`` is a prefix of the ranker's key
    (:func:`~repro.core.statistics.views_cost`), so every rewriting of a
    skipped bucket would have ranked behind the ones returned, and
    :func:`~repro.core.statistics.rank_rewritings` picks from the returned
    list what it would pick from the full enumeration.  Inside a bucket,
    candidates are validated in enumeration order, one rewriting per
    (kind, views).

    Without ``cost`` all candidates share one bucket, so the enumeration
    runs to completion and ``max_results`` truncates only *after* the final
    sort.  (Truncating mid-enumeration would make the returned set depend
    on catalog registration order: a cheaper rewriting enumerated past the
    cutoff would be invisible to the ranker.)  The plan tournament, the
    golden and pin matching rely on that full set.

    ``stats``, when given, is filled with what the search did and what it
    capped or skipped (:class:`SearchStats`).  ``relevant``, when given, is
    extended with the catalog entries the search could use, in catalog
    order (see :func:`view_is_relevant`): no other view can change the
    answer.  It comes from the full candidate pass, whatever ``cost`` and
    ``exclude`` then leave out.
    """
    stats = stats if stats is not None else SearchStats()
    facts = PatternFacts(query, summary)
    if facts.placed is None:
        return []  # unsatisfiable under the summary
    search = _Search(
        query,
        summary,
        stats,
        facts,
        [(entry, _view_facts(entry, summary, stats)) for entry in catalog.views()],
    )
    candidates = _collect_candidates(search)
    views = _relevant_views(search, candidates)
    if relevant is not None:
        relevant.extend(entry for entry, _view in views)
    if exclude:
        views = [(entry, view) for entry, view in views if entry.name not in exclude]

    buckets: dict[tuple, list[_Plan]] = {}
    prices: dict[tuple[str, ...], tuple] = {}
    for plan in _candidate_plans(search, views, candidates, max_union):
        price = prices.get(plan.views)
        if price is None:
            price = prices[plan.views] = cost(plan.views) if cost else ()
        buckets.setdefault(price, []).append(plan)

    rewritings: list[Rewriting] = []
    seen: set[tuple] = set()
    ordered = sorted(buckets)
    for position, price in enumerate(ordered):
        for plan in buckets[price]:
            # one rewriting per (kind, views): a plan over views that
            # already have one is not validated again
            key = (plan.kind, plan.views)
            if key in seen:
                continue
            rewriting = plan.validate()
            if rewriting is not None:
                seen.add(key)
                rewritings.append(rewriting)
        if rewritings:
            stats.skipped += sum(len(buckets[p]) for p in ordered[position + 1 :])
            break

    rewritings.sort(key=lambda r: (r.plan.operator_count(), r.views))
    if max_results is None:
        return rewritings
    return rewritings[:max_results]


@dataclass
class _Plan:
    """One candidate plan, not yet validated."""

    kind: str  # 'single', 'join' or 'union'
    views: tuple[str, ...]
    #: the S-equivalence test: the rewriting, or None
    validate: Callable[[], Optional[Rewriting]]


def _candidate_plans(
    search: _Search,
    views: list[tuple[CatalogEntry, PatternFacts]],
    candidates: dict[str, list[_Candidate]],
    max_union: int,
):
    """Every candidate plan over ``views``, in enumeration order."""
    # 1. single-view plans
    entries = [entry for entry, _facts in views]
    for entry in entries:
        for skeleton in _single_view_uses(search, entry, candidates):
            yield _Plan("single", skeleton.views, partial(_validate, search, skeleton))

    # 2. two-view join plans
    for i, left_entry in enumerate(entries):
        for right_entry in entries[i:]:
            for skeleton in _pair_uses(search, left_entry, right_entry, candidates):
                validate = partial(_validate, search, skeleton)
                yield _Plan("join", skeleton.views, validate)

    # 3. union plans (each subset of views is tried once)
    yield from _union_plans(search, views, max_union)


def _collect_candidates(search: _Search) -> dict[str, list[_Candidate]]:
    """Per query node, the view nodes that can serve it."""
    out: dict[str, list[_Candidate]] = {
        name: [] for name in search.facts.annotations
    }
    for entry, view in search.views:
        for q_name, candidate in _view_candidates(search.facts, entry, view):
            out[q_name].append(candidate)
    return out


def _view_candidates(query: PatternFacts, entry: CatalogEntry, view: PatternFacts):
    """``(query node name, candidate)`` for every way a node of ``entry``
    can serve a query node.  Only return nodes (the nodes storing
    something) are ever served."""
    summary = query.summary
    ann_q, ann_v = query.annotations, view.annotations
    for q_node in query.pattern.nodes():
        needs = set(q_node.stored_attrs())
        if not needs:
            continue
        q_paths = ann_q[q_node.name]
        for v_node in entry.pattern.nodes():
            v_paths = ann_v[v_node.name]
            shared = q_paths & v_paths
            if shared:
                stored = set(v_node.stored_attrs())
                if needs <= stored and _id_kind_at_least(
                    v_node.store_id, q_node.store_id
                ):
                    yield q_node.name, _Candidate(entry, v_node.name, "direct")
            if v_node.store_content and needs <= {"V", "C"}:
                steps = _navigation_steps(v_paths, q_paths, summary)
                if steps is not None:
                    yield q_node.name, _Candidate(entry, v_node.name, "nav", steps)
            if v_node.store_id == "p" and needs <= {"ID"}:
                # §5.2: navigational IDs derive the parent's ID
                parents = (summary.node_by_number(p).parent for p in v_paths)
                parent_paths = {
                    parent.number
                    for parent in parents
                    if parent is not None and parent.parent is not None
                }
                if parent_paths & q_paths:
                    yield q_node.name, _Candidate(entry, v_node.name, "parent")


def view_is_relevant(
    query: PatternFacts, entry: CatalogEntry, view: PatternFacts
) -> bool:
    """Whether :func:`rewrite_pattern` could put ``entry`` into a rewriting
    of ``query``.

    Single-view and pair plans assign every query return node to a view
    node, so they only use views with a candidate for some return node;
    a union member is contained in the query, so it has the query's
    arity and passes :func:`~repro.core.containment.may_be_contained`.
    A view failing both tests changes no rewriting of the query: adding
    or dropping it leaves the search's answer as it was."""
    if query.placed is None:
        return False  # unsatisfiable: no rewriting whatever the catalog
    if any(True for _candidate in _view_candidates(query, entry, view)):
        return True
    same_arity = len(view.return_names) == len(query.return_names)
    return same_arity and may_be_contained(view, [query])


def relevant_views(query: PatternFacts, catalog: Catalog) -> list[CatalogEntry]:
    """The catalog's views relevant to ``query`` (:func:`view_is_relevant`),
    in catalog order — what ``rewrite_pattern(..., relevant=...)`` reports
    for the same catalog and summary."""
    stats = SearchStats()
    return [
        entry
        for entry in catalog.views()
        if view_is_relevant(query, entry, _view_facts(entry, query.summary, stats))
    ]


def _relevant_views(
    search: _Search, candidates: dict[str, list[_Candidate]]
) -> list[tuple[CatalogEntry, PatternFacts]]:
    """The search's views narrowed to the relevant ones, in catalog order —
    :func:`view_is_relevant` read off the candidates already collected.
    A view serving nothing goes through :meth:`_Search.contained`, as
    :func:`_validate_union` would send it, so the prefilter still counts it."""
    served = {id(c.entry) for options in candidates.values() for c in options}
    arity = len(search.query_returns)
    relevant: list[tuple[CatalogEntry, PatternFacts]] = []
    for entry, view in search.views:
        if id(entry) in served:
            relevant.append((entry, view))
        elif len(view.return_names) == arity:
            query = [search.facts]
            if search.contained(view, query) or may_be_contained(view, query):
                relevant.append((entry, view))
    return relevant


def _navigation_steps(
    content_paths: set[int], target_paths: set[int], summary: PathSummary
) -> Optional[tuple]:
    """A downward path from the content node to the targets.

    Preferred: the same child-step chain for every (content, target)
    ancestry pair.  When the chains differ (e.g. XMark's recursive
    parlist/listitem puts keywords at several depths), fall back to a
    single descendant step on the shared target label — the §5.5
    equivalence test decides whether that over- or under-shoots."""
    steps: Optional[tuple] = None
    found_any = False
    ambiguous = False
    labels = set()
    for c in content_paths:
        c_node = summary.node_by_number(c)
        for t in target_paths:
            t_node = summary.node_by_number(t)
            if not c_node.is_ancestor_of(t_node):
                continue
            found_any = True
            labels.add(t_node.label)
            chain = summary.chain(c_node, t_node)
            these = tuple(("child", node.label) for node in chain[1:])
            if steps is None:
                steps = these
            elif steps != these:
                ambiguous = True
    if not found_any:
        return None
    if ambiguous:
        if len(labels) == 1:
            return (("descendant", labels.pop()),)
        return None
    return steps


def _single_view_uses(
    search: _Search,
    entry: CatalogEntry,
    candidates: dict[str, list[_Candidate]],
):
    """Skeletons assigning every query return node to one node of ``entry``."""
    returns, query = search.query_returns, search.query
    per_node: list[list[_Candidate]] = []
    for name in returns:
        options = [c for c in candidates[name] if c.entry is entry]
        if not options:
            return
        per_node.append(options)
    for combo in _product(per_node, search.stats):
        use = _build_use(0, entry, dict(zip(returns, combo)), query)
        yield _Skeleton(query, (use,), (), use.outputs)


def _build_use(
    index: int, entry: CatalogEntry, assignment: dict[str, _Candidate], query: Pattern
) -> _Use:
    prefix = f"u{index}:"
    pattern = _rename_pattern(entry.pattern, prefix)
    use = _Use(index, entry, pattern, {}, {}, {}, {})
    for q_name, candidate in assignment.items():
        view_name = f"{prefix}{candidate.view_node}"
        view_node = pattern.node_by_name(view_name)
        if candidate.mode == "direct":
            use.direct[q_name] = node = view_name
            attrs = tuple(view_node.stored_attrs())
        elif candidate.mode == "parent":
            # the parent is the view's own node below a child edge, and a
            # node the plan adds (see _adapted_pattern) below a descendant one
            edge = view_node.parent_edge
            assert edge is not None
            node = (
                edge.parent.name
                if edge.axis == CHILD
                else f"{prefix}par{len(use.derived) + 1}"
            )
            use.derived[q_name] = (view_name, node)
            attrs = ("ID",)
        else:
            attrs = ("V" if query.node_by_name(q_name).store_value else "C",)
            node = f"{prefix}nav{len(use.navs) + 1}"
            use.navs[q_name] = (view_name, candidate.nav_steps, attrs[0], node)
        nested = _nest_collection_of(view_node) is not None
        use.outputs[q_name] = _Output(index, node, attrs, nested)
    return use


def _product(lists: list[list], stats: SearchStats) -> list[tuple]:
    out: list[tuple] = [()]
    for options in lists:
        out = [prefix + (option,) for prefix in out for option in options]
        if len(out) > MAX_COMBINATIONS:
            stats.product_truncated += 1
            out = out[:MAX_COMBINATIONS]
    return out


def _pair_uses(
    search: _Search,
    left_entry: CatalogEntry,
    right_entry: CatalogEntry,
    candidates: dict[str, list[_Candidate]],
):
    """Skeletons of two-view assignments joined by one glue."""
    query, returns = search.query, search.query_returns
    per_node: list[list[tuple[int, _Candidate]]] = []
    for name in returns:
        options: list[tuple[int, _Candidate]] = []
        options.extend((0, c) for c in candidates[name] if c.entry is left_entry)
        options.extend((1, c) for c in candidates[name] if c.entry is right_entry)
        if not options:
            return
        per_node.append(options)
    for combo in _product(per_node, search.stats):
        sides = {side for side, _c in combo}
        if sides != {0, 1}:
            continue  # both views must actually contribute
        assignment_left = {
            name: c for name, (side, c) in zip(returns, combo) if side == 0
        }
        assignment_right = {
            name: c for name, (side, c) in zip(returns, combo) if side == 1
        }
        left_use = _build_use(0, left_entry, assignment_left, query)
        right_use = _build_use(1, right_entry, assignment_right, query)
        glue = _find_glue(query, left_use, right_use, candidates)
        if glue is None:
            continue
        outputs = {**left_use.outputs, **right_use.outputs}
        yield _Skeleton(query, (left_use, right_use), (glue,), outputs)


def _find_glue(
    query: Pattern,
    left: _Use,
    right: _Use,
    candidates: dict[str, list[_Candidate]],
) -> Optional[GlueCondition]:
    """A join condition connecting the two uses (§5.2's toolbox)."""
    # Direct-serving map per use over ALL query nodes (not just returns):
    # a shared non-return node (e.g. the item both views hang off) glues.
    left_ids = _id_services(query, left, candidates)
    right_ids = _id_services(query, right, candidates)

    # 1. node equality on a shared query node
    for q_name, l_node in left_ids.items():
        if q_name in right_ids:
            return GlueCondition("eq", 0, l_node, 1, right_ids[q_name])

    # 2. structural join between an ancestor/descendant query-node pair —
    #    both sides must store structural identifiers (§5.2)
    def structural(use: _Use, node_name: str) -> bool:
        kind = use.pattern.node_by_name(node_name).store_id
        return kind is not None and kind_supports(kind, "structural")

    for la_name, l_node in left_ids.items():
        if not structural(left, l_node):
            continue
        for rb_name, r_node in right_ids.items():
            if not structural(right, r_node):
                continue
            relation = _query_relation(query, la_name, rb_name)
            if relation is not None:
                kind, flipped = relation
                if flipped:
                    return GlueCondition(kind, 1, r_node, 0, l_node)
                return GlueCondition(kind, 0, l_node, 1, r_node)

    # 3. derived parent: right stores a navigational ID whose parent is a
    #    left-served node
    for rb_name, r_node in right_ids.items():
        if right.pattern.node_by_name(r_node).store_id != "p":
            continue

        q_node = query.node_by_name(rb_name)
        parent = q_node.parent
        if (
            parent is not None
            and q_node.parent_edge is not None
            and q_node.parent_edge.axis == CHILD
            and parent.name in left_ids
            # equality against the derived Dewey ID needs a Dewey left side
            and left.pattern.node_by_name(left_ids[parent.name]).store_id == "p"
        ):
            return GlueCondition(
                "derived-parent", 0, left_ids[parent.name], 1, r_node
            )
    return None


def _id_services(
    query: Pattern, use: _Use, candidates: dict[str, list[_Candidate]]
) -> dict[str, str]:
    """q node name → renamed view node storing an ID usable for joining,
    across all query nodes (the use's assigned nodes plus any other node
    the same view can serve)."""
    services = dict(use.direct)
    prefix = f"u{use.index}:"
    for q_name, options in candidates.items():
        if q_name in services:
            continue
        for candidate in options:
            if candidate.entry is use.entry and candidate.mode == "direct":
                view_node = use.entry.pattern.node_by_name(candidate.view_node)
                if view_node.store_id:
                    services[q_name] = f"{prefix}{candidate.view_node}"
                    break
    # keep only services whose view node stores an ID
    return {
        q: v
        for q, v in services.items()
        if use.pattern.node_by_name(v).store_id is not None
    }


def _query_relation(
    query: Pattern, name_a: str, name_b: str
) -> Optional[tuple[str, bool]]:
    """('parent'|'ancestor', flipped) when the named query nodes are
    related by a single edge or an edge chain."""
    node_a = query.node_by_name(name_a)
    node_b = query.node_by_name(name_b)

    def relation(anc: PatternNode, desc: PatternNode) -> Optional[str]:
        walk = desc
        edges = []
        while walk.parent_edge is not None:
            edges.append(walk.parent_edge)
            walk = walk.parent_edge.parent
            if walk is anc:
                if len(edges) == 1 and edges[0].axis == CHILD:
                    return "parent"
                return "ancestor"
        return None

    forward = relation(node_a, node_b)
    if forward is not None:
        return forward, False
    backward = relation(node_b, node_a)
    if backward is not None:
        return backward, True
    return None


# ---------------------------------------------------------------------------
# Plan construction + validation
# ---------------------------------------------------------------------------

def _validate(search: _Search, skeleton: _Skeleton) -> Optional[Rewriting]:
    """The skeleton's rewriting when its plan is S-equivalent to the query."""
    query, query_returns, summary = search.query, search.query_returns, search.summary
    if not skeleton.lowerable:
        return None
    regroup = skeleton.regroup
    if regroup is _INFEASIBLE:
        return None
    validation_query = search.validation_query(
        frozenset(name for name, _attrs, _identity in regroup[1])
        if regroup
        else frozenset()
    )
    adapted = [_adapted_pattern(query, use) for use in skeleton.uses]
    if any(pattern is None for pattern in adapted):
        return None
    # Each member of the union is aligned as soon as it is merged (q's
    # stored attrs at the serving nodes, everything else unstored) and
    # tested at once: the first member not contained in the query rejects
    # the candidate before the rest are built.
    union = merged_patterns(adapted, skeleton.joins, summary)  # type: ignore[arg-type]
    members: list[PatternFacts] = []
    for validation, aliases in union:
        for node in validation.nodes():
            node.store_id, node.store_tag = None, False
            node.store_value = node.store_content = False
        order = []
        for q_name in query_returns:
            merged_name = aliases.get(skeleton.outputs[q_name].node)
            if merged_name is None:
                return None
            target = validation.node_by_name(merged_name)
            q_node = query.node_by_name(q_name)
            target.store_id, target.store_tag = q_node.store_id, q_node.store_tag
            target.store_value = q_node.store_value
            target.store_content = q_node.store_content
            order.append(merged_name)
        member = PatternFacts(validation, summary, order)
        if not search.contained(member, [validation_query]):
            return None
        members.append(member)
    if not members or not search.contained(validation_query, members):
        return None

    return Rewriting(
        plan=_build_plan(skeleton),
        views=skeleton.views,
        equivalent_patterns=tuple(member.pattern for member in members),
        kind="single" if len(skeleton.uses) == 1 else "join",
    )


_INFEASIBLE = object()


def _unnest_pattern(pattern: Pattern, names: frozenset) -> Pattern:
    """Turn the nest edges entering the named nodes (the collections a γ
    will rebuild) into their flat counterparts."""
    clone = pattern.copy()
    for edge in clone.edges():
        if edge.child.name not in names:
            continue
        if edge.semantics == NEST:
            edge.semantics = JOIN
        elif edge.semantics == NEST_OUTER:
            edge.semantics = OUTER
    return clone


def _regroup_spec(skeleton: _Skeleton):
    """Decide whether flat view tuples must be re-nested to match the
    query's nesting, and how.

    Returns ``None`` (no regrouping needed — views nest compatibly),
    ``_INFEASIBLE`` (structure not reproducible by one multi-collection
    γ), or ``(keys, [(collection name, member attrs), …])``.  Collections
    already served nested by the views (a nested view node or a nested
    Navigate) pass through untouched and act as grouping keys.
    """
    query, outputs = skeleton.query, skeleton.outputs
    nested_returns = [
        node
        for node in query.return_nodes()
        if _nest_collection_of(node) is not None
    ]
    if not nested_returns:
        return None
    rebuild: dict[str, PatternNode] = {}
    passthrough: set[str] = set()
    for node in nested_returns:
        collection = _nest_collection_of(node)
        assert collection is not None
        if outputs[node.name].nested:
            passthrough.add(collection.name)
        else:
            rebuild[collection.name] = collection
    if passthrough & set(rebuild):
        return _INFEASIBLE  # one collection served in mixed shapes
    if not rebuild:
        return None
    collection_specs = []
    for collection_name, collection_node in rebuild.items():
        parent = (
            collection_node.parent_edge.parent
            if collection_node.parent_edge
            else None
        )
        if parent is None or _nest_collection_of(parent) is not None:
            return _INFEASIBLE  # only first-level collections rebuildable
        if parent.parent_edge is not None and not parent.store_id:
            return _INFEASIBLE  # flat part must identify the nest parent
        for below in collection_node.subtree():
            if (
                below is not collection_node
                and below.parent_edge
                and below.parent_edge.nested
            ):
                return _INFEASIBLE  # no deeper nesting inside a rebuild
        member_attrs = [
            f"{node.name}.{attr}"
            for node in collection_node.subtree()
            for attr in node.stored_attrs()
        ]
        if not member_attrs:
            return _INFEASIBLE
        # the flat plan tuples carry an ID for every node served by an
        # ID-storing view node, even where the query stores none
        identity_attrs = list(member_attrs)
        for node in collection_node.subtree():
            output = outputs.get(node.name)
            if output is not None and "ID" in output.attrs:
                id_attr = f"{node.name}.ID"
                if id_attr not in identity_attrs:
                    identity_attrs.append(id_attr)
        collection_specs.append((collection_name, member_attrs, identity_attrs))
    keys = [
        f"{node.name}.{attr}"
        for node in query.nodes()
        if _nest_collection_of(node) is None
        for attr in node.stored_attrs()
    ]
    keys.extend(sorted(passthrough))
    if not keys:
        return _INFEASIBLE
    if len(collection_specs) > 1:
        # the flat input is the collections' cross product: members must
        # be identifiable beyond their values, or counts cannot be rebuilt
        for _name, member_attrs, identity_attrs in collection_specs:
            if identity_attrs == member_attrs and not any(
                attr.endswith(".ID") for attr in member_attrs
            ):
                return _INFEASIBLE
    return keys, collection_specs


def _nest_collection_of(node: PatternNode) -> Optional[PatternNode]:
    """The outermost nest-edge target above (or at) the node."""
    found = None
    walk = node
    while walk.parent_edge is not None:
        if walk.parent_edge.nested:
            found = walk
        walk = walk.parent_edge.parent
    return found


def _adapted_pattern(query: Pattern, use: _Use) -> Optional[Pattern]:
    """The use's renamed view pattern, adapted by the plan's compensating
    operations: σ formulas conjoined, navigation chains grafted."""
    pattern = use.pattern.copy()
    for q_name, view_name in use.direct.items():
        q_node = query.node_by_name(q_name)
        if q_node.value_formula.is_true:
            continue
        node = pattern.node_by_name(view_name)
        if node.value_formula.implies(q_node.value_formula):
            continue
        if not node.store_value:
            return None  # predicate not enforceable on this view
        node.value_formula = node.value_formula.conjoin(q_node.value_formula)
    for q_name, (content_node, steps, attr, out_name) in use.navs.items():
        q_node = query.node_by_name(q_name)
        anchor = pattern.node_by_name(content_node)
        q_edge = q_node.parent_edge
        first_semantics = q_edge.semantics if q_edge is not None else JOIN
        for position, (axis, label) in enumerate(steps):
            child = PatternNode(tag=label)
            semantics = first_semantics if position == 0 else JOIN
            pattern_axis = CHILD if axis == "child" else DESCENDANT
            anchor = anchor.add_child(child, pattern_axis, semantics)
        anchor.name = out_name
        if attr == "V":
            anchor.store_value = True
        else:
            anchor.store_content = True
        if not q_node.value_formula.is_true:
            anchor.value_formula = q_node.value_formula
    for child_name, parent_name in use.derived.values():
        child = pattern.node_by_name(child_name)
        edge = child.parent_edge
        assert edge is not None
        if edge.axis == CHILD:
            parent = edge.parent
            if parent.parent_edge is None:
                return None  # the parent is ⊤; no derivable document node
        else:
            # insert an explicit parent node: anc —//— * —/— child
            parent = PatternNode(tag=None, name=parent_name)
            grand = edge.parent
            grand.remove_edge(edge)
            grand.add_child(parent, DESCENDANT, edge.semantics)
            parent.add_child(child, CHILD, JOIN)
        parent.store_id = "p"
    return pattern.finalize()


def _build_plan(skeleton: _Skeleton) -> Operator:
    """Lower the skeleton: one scan chain per use, one join per tree edge
    and one output column per contract entry."""
    query, uses = skeleton.query, skeleton.uses
    plans = [_use_plan(query, use) for use in uses]
    combined = plans[skeleton.joins[0].left_use if skeleton.joins else 0]
    for glue in skeleton.joins:
        left_attr = _attr_path(uses[glue.left_use].pattern, glue.left_node, "ID")
        right_attr = _attr_path(uses[glue.right_use].pattern, glue.right_node, "ID")
        right_plan = plans[glue.right_use]
        if glue.kind == "eq":
            combined = ValueJoin(
                combined,
                right_plan,
                Compare(Attr(left_attr, 0), "=", Attr(right_attr, 1)),
            )
        elif glue.kind in ("parent", "ancestor"):
            combined = StructuralJoin(
                combined,
                right_plan,
                left_attr,
                right_attr,
                axis="child" if glue.kind == "parent" else "descendant",
                kind="j",
            )
        else:  # derived-parent
            derived_attr = f"{right_attr}.parent"
            right_plan = DerivedColumn(
                right_plan,
                derived_attr,
                _parent_of(right_attr),
                description=f"parent({right_attr})",
            )
            combined = ValueJoin(
                combined,
                right_plan,
                Compare(Attr(left_attr, 0), "=", Attr(derived_attr, 1)),
            )

    # rename view attrs to query-node attrs: a view node serving several
    # query nodes is copied into one flat column per query node
    outputs = skeleton.outputs
    if skeleton.multi_served:
        sources = {
            f"{q_name}.{attr}": f"{output.node}.{attr}"
            for q_name, output in outputs.items()
            for attr in output.attrs
        }
        renamed: Operator = Project(combined, list(sources), sources=sources)
    else:
        renamed = DeepRename(
            combined, {output.node: q_name for q_name, output in outputs.items()}
        )
    if skeleton.regroup:
        keys, collection_specs = skeleton.regroup
        return Regroup(renamed, keys, collection_specs)
    return Project(renamed, _top_level_attrs(query), dedup=True)


def _use_plan(query: Pattern, use: _Use) -> Operator:
    """The scan of one use, with its compensations: selections, derived
    parent IDs (§5.2) and navigations."""
    view = use.entry.pattern
    plan: Operator = Scan(use.entry.relation, _top_level_attrs(view))
    plan = DeepRename(plan, {n.name: f"u{use.index}:{n.name}" for n in view.nodes()})
    for q_name, view_name in use.direct.items():
        q_node = query.node_by_name(q_name)
        view_node = use.pattern.node_by_name(view_name)
        if (
            not q_node.value_formula.is_true
            and not view_node.value_formula.implies(q_node.value_formula)
        ):
            plan = Select(
                plan,
                SatisfiesFormula(
                    Attr(_attr_path(use.pattern, view_name, "V")),
                    q_node.value_formula,
                ),
            )
    for child_name, parent_name in use.derived.values():
        child_attr = _attr_path(use.pattern, child_name, "ID")
        plan = DerivedColumn(
            plan,
            f"{parent_name}.ID",
            _parent_of(child_attr),
            description=f"parent({child_attr})",
        )
    for q_name, (content_node, steps, _attr, out_name) in use.navs.items():
        q_edge = query.node_by_name(q_name).parent_edge
        plan = Navigate(
            plan,
            _attr_path(use.pattern, content_node, "C"),
            list(steps),
            out=out_name,
            keep_unmatched=q_edge is not None and q_edge.optional,
            nest_out=q_edge is not None and q_edge.nested,
        )
    return plan


def _parent_of(attr_path: str):
    def derive(t: NestedTuple):
        value = t.first(attr_path)
        if isinstance(value, DeweyID) and value.path:
            return value.parent()
        return None

    return derive


def _top_level_attrs(pattern: Pattern) -> list[str]:
    """The attributes of the pattern's output tuples (a view's stored
    columns, a query's result schema)."""
    columns: list[str] = []
    for edge in pattern.root.edges:
        columns.extend(subtree_attribute_names(edge.child))
    return columns


# ---------------------------------------------------------------------------
# Union rewritings (§5.3)
# ---------------------------------------------------------------------------

def _union_plans(
    search: _Search,
    views: list[tuple[CatalogEntry, PatternFacts]],
    max_union: int,
):
    """Candidate unions: subsets of the ``views`` with the query's arity."""
    arity = len(search.query_returns)
    members = [
        (entry, view) for entry, view in views if len(view.return_names) == arity
    ]
    for size in range(2, min(max_union, len(members)) + 1):
        for subset in itertools.combinations(members, size):
            yield _Plan(
                "union",
                tuple(entry.name for entry, _view in subset),
                partial(_validate_union, search, subset),
            )


def _validate_union(
    search: _Search, subset: tuple[tuple[CatalogEntry, PatternFacts], ...]
) -> Optional[Rewriting]:
    """The union plan when every member is one-way contained in the query
    and the members jointly cover it."""
    query, query_returns = search.query, search.query_returns
    if not all(search.contained(view, [search.facts]) for _entry, view in subset):
        return None
    if not search.contained(search.facts, [view for _entry, view in subset]):
        return None
    parts = []
    for entry, view in subset:
        part: Operator = Scan(entry.relation, _top_level_attrs(entry.pattern))
        mapping = dict(zip(view.return_names, query_returns))
        part = DeepRename(part, mapping)
        parts.append(part)
    plan: Operator = UnionOp(*parts)
    plan = Project(plan, _top_level_attrs(query), dedup=True)
    return Rewriting(
        plan=plan,
        views=tuple(entry.name for entry, _view in subset),
        equivalent_patterns=tuple(entry.pattern for entry, _ in subset),
        kind="union",
    )

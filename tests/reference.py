"""The logical reference the compiled engine is tested against.

Every query the library answers runs as compiled batch plans.  This
module answers a prepared query the other way, on the logical algebra
(§2.2.2): each pattern through its chosen rewriting's ``evaluate`` or,
for a base access, the embedding semantics (§4.1) per document, then the
unit's assembled plan over those bindings.  No degradation, no caching,
no compiled closure is involved.

It also keeps the tagging-template interpreter (:func:`render_template`)
that ``compile_template`` is checked against: it resolves every
attribute reference at run time through a scope of entered
collections.

And it keeps the eager S-equivalence test of a candidate plan
(:func:`reference_validate`) that the rewriter's member-by-member
``_validate`` is checked against: it merges every member of the plan's
union (:func:`reference_merged_patterns`) before it tests any."""

from typing import Any

from repro.algebra.model import NestedTuple
from repro.algebra.operators import TemplateAttr, TemplateElement
from repro.core import rewrite
from repro.core.canonical import _strict_copy, summary_embeddings
from repro.core.containment import PatternFacts
from repro.core.embedding import evaluate_pattern
from repro.core.plan_pattern import _glues_hold, _merge_combo
from repro.core.uload import QueryResult


def reference_bindings(db, prepared_unit):
    """The unit's pattern bindings, each through its chosen rewriting's
    logical plan or, on the base store, the embedding semantics."""
    bindings = {}
    for index, resolution in enumerate(prepared_unit.resolutions):
        if resolution.rewriting is not None:
            tuples = resolution.rewriting.plan.evaluate(db.store.context())
        else:
            tuples = [
                t
                for doc in db.documents
                for t in evaluate_pattern(resolution.pattern, doc)
            ]
        bindings[f"__pattern_{index}"] = tuples
    return bindings


def reference_execute(db, prepared):
    """``prepared`` answered on the logical algebra, as a QueryResult."""
    result = QueryResult(plan_fingerprint=prepared.fingerprint or None)
    for prepared_unit in prepared.units:
        bindings = reference_bindings(db, prepared_unit)
        result.resolutions.extend(prepared_unit.resolutions)
        result.collect(prepared_unit.unit, prepared_unit.logical.evaluate(bindings))
    return result


def reference_query(db, query, prefer_views=True):
    """Prepare ``query`` on ``db`` and answer it on the logical algebra."""
    return reference_execute(db, db.prepare(query, prefer_views))


class _Scope:
    """Environment of entered collections: absolute collection path →
    current member tuple."""

    def __init__(self, root: NestedTuple):
        self.root = root
        self.entries: list[tuple[str, NestedTuple]] = []

    def resolve(self, path: str) -> list:
        """All atomic values reachable at the absolute path, resolved
        against the deepest entered collection prefixing it."""
        for prefix, member in reversed(self.entries):
            if path == prefix:
                return [member]
            if path.startswith(prefix + "/"):
                return [
                    v
                    for v in member.iter_path(path[len(prefix) + 1 :])
                    if not isinstance(v, list)
                ]
        return [v for v in self.root.iter_path(path) if not isinstance(v, list)]

    def members(self, collection_path: str) -> list[NestedTuple]:
        """The member tuples of a collection at an absolute path."""
        source: Any = self.root
        remainder = collection_path
        for prefix, member in reversed(self.entries):
            if collection_path.startswith(prefix + "/"):
                source = member
                remainder = collection_path[len(prefix) + 1 :]
                break
        out: list[NestedTuple] = []
        for value in source.iter_path(remainder):
            if isinstance(value, list):
                out.extend(value)
        return out

    def entered(self, collection_path: str, member: NestedTuple) -> "_Scope":
        clone = _Scope(self.root)
        clone.entries = self.entries + [(collection_path, member)]
        return clone


def render_template(template: TemplateElement, t: NestedTuple) -> str:
    """Serialize one input tuple through the tagging template."""
    parts: list[str] = []
    _render_into(template, _Scope(t), parts)
    return "".join(parts)


def _render_into(template: TemplateElement, scope: _Scope, parts: list[str]) -> None:
    if template.repeat_over is not None:
        for member in scope.members(template.repeat_over):
            _render_one(template, scope.entered(template.repeat_over, member), parts)
    else:
        _render_one(template, scope, parts)


def _render_one(template: TemplateElement, scope: _Scope, parts: list[str]) -> None:
    parts.append(f"<{template.tag}>")
    for child in template.children:
        if isinstance(child, TemplateAttr):
            for value in scope.resolve(child.path):
                if value is not None and not isinstance(value, NestedTuple):
                    parts.append(str(value))
        elif isinstance(child, TemplateElement):
            _render_into(child, scope, parts)
        else:
            parts.append(str(child))
    parts.append(f"</{template.tag}>")


def reference_merged_patterns(views, glues, summary) -> list:
    """Every member of the union of patterns S-equivalent to the glued
    join of the views, merged up front: all combinations of per-view
    summary embeddings (first view outermost), the glue-consistent ones
    merged in that order, repeated structures dropped."""
    combos: list[list] = [[]]
    for view in views:
        named = [
            {node.name: snode for node, snode in embedding.items()}
            for embedding in summary_embeddings(_strict_copy(view), summary)
        ]
        combos = [prefix + [embedding] for prefix in combos for embedding in named]
    members, seen = [], set()
    for combo in combos:
        if not _glues_hold(combo, glues):
            continue
        pattern, aliases = _merge_combo(views, combo, glues, summary)
        key = pattern.structure_key()
        if key not in seen:
            seen.add(key)
            members.append((pattern, aliases))
    return members


def reference_validate(search, skeleton):
    """``rewrite._validate`` built eagerly: align every member of the
    union first, then test each member ⊑ query in order, then query ⊑
    ∪members."""
    query, query_returns, summary = search.query, search.query_returns, search.summary
    if not skeleton.lowerable:
        return None
    regroup = skeleton.regroup
    if regroup is rewrite._INFEASIBLE:
        return None
    validation_query = search.validation_query(
        frozenset(name for name, _attrs, _identity in regroup[1])
        if regroup
        else frozenset()
    )
    adapted = [rewrite._adapted_pattern(query, use) for use in skeleton.uses]
    if any(pattern is None for pattern in adapted):
        return None
    union = reference_merged_patterns(adapted, skeleton.joins, summary)
    if not union:
        return None
    members = []
    for merged, aliases in union:
        validation = merged.copy()
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
        members.append(PatternFacts(validation, summary, order))
    for member in members:
        if not search.contained(member, [validation_query]):
            return None
    if not search.contained(validation_query, members):
        return None
    return rewrite.Rewriting(
        plan=rewrite._build_plan(skeleton),
        views=skeleton.views,
        equivalent_patterns=tuple(member.pattern for member in members),
        kind="single" if len(skeleton.uses) == 1 else "join",
    )

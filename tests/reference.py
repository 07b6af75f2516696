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
collections."""

from typing import Any

from repro.algebra.model import NestedTuple
from repro.algebra.operators import TemplateAttr, TemplateElement
from repro.core.embedding import evaluate_pattern
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

"""The logical reference the compiled engine is tested against.

Every query the library answers runs as compiled batch plans.  This
module answers a prepared query the other way, on the logical algebra
(§2.2.2): each pattern through its chosen rewriting's ``evaluate`` or,
for a base access, the embedding semantics (§4.1) per document, then the
unit's assembled plan over those bindings.  No degradation, no caching,
no compiled closure is involved."""

from repro.core.embedding import evaluate_pattern
from repro.core.uload import QueryResult


def reference_execute(db, prepared):
    """``prepared`` answered on the logical algebra, as a QueryResult."""
    result = QueryResult(plan_fingerprint=prepared.fingerprint or None)
    for prepared_unit in prepared.units:
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
        result.resolutions.extend(prepared_unit.resolutions)
        result.collect(prepared_unit.unit, prepared_unit.logical.evaluate(bindings))
    return result


def reference_query(db, query, prefer_views=True):
    """Prepare ``query`` on ``db`` and answer it on the logical algebra."""
    return reference_execute(db, db.prepare(query, prefer_views))

"""Algebraic translation of Q queries (thesis §3.3.1–3.3.2).

Path expressions translate to structural-join plans over tag-derived
collections, following the ``full``/``alg`` rules of §3.3.1 literally:

* ``full(d//a) = R_a`` — a scan of the tag-derived collection;
* ``full(d/a)`` subtracts non-root elements via the set-difference trick;
* ``full(q//a) = full(q) ⨝≺≺ R_a`` (``⨝≺`` for ``/``);
* ``full(q[text() = c]) = σ_{V=c}(full(q))``;
* qualifiers ``q₁[q₂]`` become structural semijoins;
* ``alg`` projects the value (for ``text()``) or the serialized content.

For full FLWR queries, ``alg_query`` returns the plan the §3.3.3
isolation step would leave standing: XML construction over value joins over
maximal pattern accesses — produced by :mod:`repro.xquery.extract`, which
composes the §3.3.2 translation rules with the §3.3.3 equivalences.

``collections_context`` supplies the tag-derived collections ``R_t`` /
``R_*`` of Definition 2.2.1 so path plans can be executed directly.
"""

from __future__ import annotations

from typing import Optional

from ..algebra.operators import (
    Difference,
    Operator,
    Project,
    Scan,
    Select,
    StructuralJoin,
)
from ..algebra.predicates import Attr, Compare, Const
from ..core.semantics import tag_derived_collection
from ..xmldata.node import Document
from .ast import Expr, FLWR, PathExpr, SequenceExpr, StepPredicate
from .extract import assemble_plan, extract

__all__ = [
    "collections_context",
    "full_path",
    "alg_path",
    "alg_query",
]

_COLLECTION_COLUMNS = ["ID", "Val", "Tag", "Cont"]


def collections_context(doc: Document) -> dict:
    """Evaluation context holding ``R_*``, ``R_@*`` and every ``R_t``."""
    context = {
        "R_*": tag_derived_collection(doc),
        "R_@*": tag_derived_collection(doc, attributes=True),
    }
    seen_elements = set()
    seen_attributes = set()
    for node in doc.nodes():
        if node.kind == "element" and node.label not in seen_elements:
            seen_elements.add(node.label)
            context[f"R_{node.label}"] = tag_derived_collection(doc, node.label)
        elif node.kind == "attribute" and node.label not in seen_attributes:
            seen_attributes.add(node.label)
            context[f"R_{node.label}"] = tag_derived_collection(
                doc, node.label, attributes=True
            )
    return context


class _StepCounter:
    def __init__(self) -> None:
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return f"s{self.count}"


def _collection_scan(test: str, alias: str) -> Operator:
    """Scan the tag-derived collection for a node test, with attributes
    qualified by ``alias`` so repeated occurrences stay distinct."""
    if test == "*":
        name = "R_*"
    else:
        name = f"R_{test}"
    sources = {f"{alias}.{column}": column for column in _COLLECTION_COLUMNS}
    scan = Scan(name, _COLLECTION_COLUMNS, missing_ok=True)
    return Project(scan, list(sources), sources=sources)


def _root_only(test: str, alias: str) -> Operator:
    """``full(d/a)``: keep only elements without a parent element — the
    set-difference construction of §3.3.1 (e₁ \\ π(e₂ ⨝≺ e₃))."""
    base = _collection_scan(test, alias)
    parents = _collection_scan("*", f"{alias}_p")
    children = _collection_scan(test, alias)
    pairs = StructuralJoin(
        parents,
        children,
        f"{alias}_p.ID",
        f"{alias}.ID",
        axis="child",
        kind="j",
    )
    non_roots = Project(pairs, [f"{alias}.{c}" for c in _COLLECTION_COLUMNS])
    return Difference(base, non_roots)


def full_path(path: PathExpr, counter: Optional[_StepCounter] = None) -> tuple[Operator, str]:
    """``full(q)`` for an absolute path: the plan plus the alias of the
    return node's collection."""
    if not path.is_absolute:
        raise ValueError("full_path translates absolute paths; bind variables first")
    counter = counter or _StepCounter()
    steps = list(path.navigation_steps())
    if not steps:
        raise ValueError("empty path")
    plan: Optional[Operator] = None
    alias = ""
    for position, step in enumerate(steps):
        step_alias = counter.fresh()
        if position == 0:
            plan = (
                _collection_scan(step.test, step_alias)
                if step.axis == "//"
                else _root_only(step.test, step_alias)
            )
        else:
            right = _collection_scan(step.test, step_alias)
            plan = StructuralJoin(
                plan,
                right,
                f"{alias}.ID",
                f"{step_alias}.ID",
                axis="child" if step.axis == "/" else "descendant",
                kind="j",
            )
        alias = step_alias
        for qualifier in step.predicates:
            plan = _apply_qualifier(plan, alias, qualifier, counter)
    assert plan is not None
    return plan, alias


def _apply_qualifier(
    plan: Operator, alias: str, qualifier: StepPredicate, counter: _StepCounter
) -> Operator:
    steps = list(qualifier.path.navigation_steps())
    if not steps:
        # ``[text() = c]`` on the anchor itself: σ_{V=c}
        if qualifier.op is not None:
            return Select(
                plan,
                Compare(Attr(f"{alias}.Val"), qualifier.op, Const(qualifier.value)),
            )
        return plan
    # build the branch plan and semijoin it against the anchor
    branch: Optional[Operator] = None
    branch_alias = alias
    for position, step in enumerate(steps):
        step_alias = counter.fresh()
        right = _collection_scan(step.test, step_alias)
        anchor_attr = f"{branch_alias}.ID"
        axis = "child" if step.axis == "/" else "descendant"
        if position == 0:
            branch = right
            first_axis = axis
        else:
            branch = StructuralJoin(
                branch, right, anchor_attr, f"{step_alias}.ID", axis=axis, kind="j"
            )
        branch_alias = step_alias
    assert branch is not None
    if qualifier.op is not None:
        branch = Select(
            branch,
            Compare(Attr(f"{branch_alias}.Val"), qualifier.op, Const(qualifier.value)),
        )
    return StructuralJoin(
        plan,
        branch,
        f"{alias}.ID",
        _first_alias_attr(branch),
        axis=first_axis,
        kind="s",
    )


def _first_alias_attr(branch: Operator) -> str:
    """The ID attribute of the branch's first (topmost) step."""
    schema = branch.schema()
    for column in schema:
        if column.endswith(".ID"):
            return column
    raise AssertionError("branch plan without ID attribute")


def alg_path(path: PathExpr) -> Operator:
    """``alg(q)``: duplicate-free projection of the value (``text()``) or
    the serialized content of the return node (§3.3.1's convention)."""
    plan, alias = full_path(path)
    attr = f"{alias}.Val" if path.ends_with_text else f"{alias}.Cont"
    return Project(plan, [attr], dedup=True)


def alg_query(query: Expr) -> list[Operator]:
    """``alg`` for arbitrary Q queries: one plan per top-level unit, in the
    post-isolation shape (construction over joins over pattern accesses)."""
    if isinstance(query, PathExpr):
        return [alg_path(query)]
    if isinstance(query, (FLWR, SequenceExpr)):
        return [assemble_plan(unit) for unit in extract(query).units]
    raise TypeError(f"unsupported query: {query!r}")

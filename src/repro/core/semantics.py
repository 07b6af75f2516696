"""Algebraic XAM semantics (thesis §2.2.2).

``[[χ]]_d`` is defined bottom-up: tag-derived collections (Definition
2.2.1) feed a structural-join tree isomorphic to the XAM tree (Definitions
2.2.2–2.2.5), followed by the projection Π_χ retaining exactly the stored
attributes and eliminating duplicates.  We *literally build that plan* out
of the logical algebra operators and evaluate it — so the algebra is
exercised by every XAM evaluation, and the equivalence with the
embedding-based semantics of §4.1 is property-tested.

Restricted XAMs (``R`` markers — indexes) are evaluated against a bindings
list through nested tuple intersection (Algorithm 1, Definition 2.2.6).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..algebra.model import NULL, NestedTuple
from ..algebra.operators import BaseTuples, Operator, StructuralJoin
from ..xmldata.ids import STRUCTURAL, id_of
from ..xmldata.node import ATTRIBUTE, ELEMENT, Document
from .embedding import admits_xml_node  # shared kind/tag/value admission rules
from .xam import CHILD, Pattern, PatternNode

__all__ = [
    "tag_derived_collection",
    "build_semantics_plan",
    "evaluate_algebraic",
    "tuple_intersection",
    "evaluate_with_bindings",
]

_HIDDEN_SUFFIX = ".SID"


def tag_derived_collection(
    doc: Document, tag: Optional[str] = None, attributes: bool = False
) -> list[NestedTuple]:
    """``R_t(d)`` / ``R_*(d)`` (Definition 2.2.1): one tuple per element
    (or attribute, with ``attributes=True``) carrying ID, Val, Tag, Cont,
    in document order."""
    wanted_kind = ATTRIBUTE if attributes else ELEMENT
    out = []
    for node in doc.nodes():
        if node.kind != wanted_kind:
            continue
        if tag is not None and node.label != tag:
            continue
        out.append(
            NestedTuple(
                {
                    "ID": id_of(node, STRUCTURAL),
                    "Val": node.value,
                    "Tag": node.label,
                    "Cont": node.content,
                }
            )
        )
    return out


def _node_collection(pattern_node: PatternNode, doc: Document) -> list[NestedTuple]:
    """The σ_χ-filtered, annotated collection for one XAM node.

    Tuples carry a hidden ``{name}.SID`` structural identifier driving the
    joins, plus the attributes the node stores.
    """
    out = []
    for node in doc.nodes():
        if not admits_xml_node(pattern_node, node):
            continue
        attrs: dict[str, Any] = {
            f"{pattern_node.name}{_HIDDEN_SUFFIX}": id_of(node, STRUCTURAL)
        }
        if pattern_node.store_id:
            attrs[f"{pattern_node.name}.ID"] = id_of(node, pattern_node.store_id)
        if pattern_node.store_tag:
            attrs[f"{pattern_node.name}.L"] = node.label
        if pattern_node.store_value:
            attrs[f"{pattern_node.name}.V"] = node.value
        if pattern_node.store_content:
            attrs[f"{pattern_node.name}.C"] = node.content
        out.append(NestedTuple(attrs))
    return out


def build_semantics_plan(pattern: Pattern, doc: Document) -> Operator:
    """The structural-join tree of Definition 2.2.4, parenthesized
    bottom-up, over the node collections of the XAM."""

    def plan_for(pattern_node: PatternNode) -> Operator:
        # declared columns: an empty collection still pads outer joins
        columns = [f"{pattern_node.name}{_HIDDEN_SUFFIX}"] + [
            f"{pattern_node.name}.{attr}" for attr in pattern_node.stored_attrs()
        ]
        plan: Operator = BaseTuples(_node_collection(pattern_node, doc), columns)
        for edge in pattern_node.edges:
            axis = "child" if edge.axis == CHILD else "descendant"
            plan = StructuralJoin(
                plan,
                plan_for(edge.child),
                left_attr=f"{pattern_node.name}{_HIDDEN_SUFFIX}",
                right_attr=f"{edge.child.name}{_HIDDEN_SUFFIX}",
                axis=axis,
                kind=edge.semantics,
                nest_as=edge.child.name,
            )
        return plan

    root_tuple = NestedTuple(
        {f"{pattern.root.name}{_HIDDEN_SUFFIX}": id_of(doc.root, STRUCTURAL)}
    )
    plan: Operator = BaseTuples([root_tuple])
    for edge in pattern.root.edges:
        axis = "child" if edge.axis == CHILD else "descendant"
        plan = StructuralJoin(
            plan,
            plan_for(edge.child),
            left_attr=f"{pattern.root.name}{_HIDDEN_SUFFIX}",
            right_attr=f"{edge.child.name}{_HIDDEN_SUFFIX}",
            axis=axis,
            kind=edge.semantics,
            nest_as=edge.child.name,
        )
    return plan


def _strip_hidden(t: NestedTuple) -> NestedTuple:
    """Π_χ: drop the driving identifiers, recursively; normalize outer-join
    padding so nested collections read as empty lists."""
    attrs: dict[str, Any] = {}
    for name, value in t.attrs.items():
        if name.endswith(_HIDDEN_SUFFIX):
            continue
        if isinstance(value, list):
            attrs[name] = [_strip_hidden(member) for member in value]
        elif value is NULL and "." not in name:
            # an outer join padded a nest edge's collection (a bare column)
            attrs[name] = []
        else:
            attrs[name] = value
    return NestedTuple(attrs)


def evaluate_algebraic(pattern: Pattern, doc: Document) -> list[NestedTuple]:
    """``[[χ]]_d`` via the algebraic construction; duplicate-free, in the
    order induced by the bottom-up joins."""
    plan = build_semantics_plan(pattern, doc)
    out: list[NestedTuple] = []
    seen: set[tuple] = set()
    for t in plan.evaluate({}):
        cleaned = _strip_hidden(t)
        key = cleaned.freeze()
        if key not in seen:
            seen.add(key)
            out.append(cleaned)
    return out


# ---------------------------------------------------------------------------
# Restricted XAMs: Algorithm 1 + Definition 2.2.6
# ---------------------------------------------------------------------------

def tuple_intersection(t: NestedTuple, b: NestedTuple) -> Optional[NestedTuple]:
    """``t ∩ b`` (Algorithm 1): the data of ``t`` accessible given the
    binding ``b``; ``None`` when the lookup fails.

    ``b``'s signature must be a projection of ``t``'s.  Atomic attributes
    must agree; common collection attributes keep the pairwise member
    intersections (empty ⇒ inaccessible); attributes absent from ``b`` are
    copied through.
    """
    result: dict[str, Any] = {}
    for name, b_value in b.attrs.items():
        if name not in t.attrs:
            raise ValueError(f"binding attribute {name!r} missing from tuple")
        t_value = t.attrs[name]
        if isinstance(b_value, list) != isinstance(t_value, list):
            raise ValueError(f"binding attribute {name!r} has mismatched shape")
        if not isinstance(b_value, list):
            if t_value != b_value:
                return None
            result[name] = t_value
        else:
            members = []
            for t_member in t_value:
                for b_member in b_value:
                    meet = tuple_intersection(t_member, b_member)
                    if meet is not None:
                        members.append(meet)
            if not members:
                return None
            result[name] = members
    for name, t_value in t.attrs.items():
        if name not in result and name not in b.attrs:
            result[name] = t_value
    return NestedTuple(result)


def evaluate_with_bindings(
    pattern: Pattern, doc: Document, bindings: Sequence[NestedTuple]
) -> list[NestedTuple]:
    """``[[χ(B)]]_d`` (Definition 2.2.6): evaluate the R-erased XAM, then
    union the tuple intersections with every binding, in binding order."""
    unrestricted = evaluate_algebraic(pattern, doc)
    out = []
    for b in bindings:
        for t in unrestricted:
            meet = tuple_intersection(t, b)
            if meet is not None:
                out.append(meet)
    return out


def binding_signature(pattern: Pattern) -> list[str]:
    """The attribute names a binding tuple for this XAM must provide: the
    projection of the XAM's type over its ``R``-marked attributes."""
    names = []
    for node in pattern.nodes():
        if node.id_required:
            names.append(f"{node.name}.ID")
        if node.tag_required:
            names.append(f"{node.name}.L")
        if node.value_required:
            names.append(f"{node.name}.V")
    return names

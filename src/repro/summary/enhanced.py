"""Enhanced path summaries: edge integrity annotations (thesis §4.2.2).

An enhanced summary labels each summary edge ``parent → child`` with

``'1'``  every document node on the parent path has **exactly one** child
         on the child path (a *one-to-one* edge);
``'+'``  every such node has **at least one** child on the child path
         (a *strong* edge);
``'*'``  no constraint.

One-to-one edges also satisfy the ``+`` condition, so a ``'1'`` annotation
counts both as one-to-one and strong (matching the ``n_s (n_1)`` column of
the Figure 4.13 statistics).  Strong/one-to-one chains feed containment
(nesting-sequence relaxation, §4.4.5) and rewriting (§5.2's "if all items
have mail descendants, V1 can be used directly").
"""

from __future__ import annotations

from ..xmldata import ATTRIBUTE, ELEMENT, TEXT, Document, XMLNode
from .path_summary import STRONG, PathSummary, SummaryNode, build_summary

__all__ = [
    "annotate_edges",
    "build_enhanced_summary",
    "is_strong_chain",
    "is_one_to_one_chain",
    "summary_statistics",
]


def build_enhanced_summary(doc: Document) -> PathSummary:
    """Build ``S(D)`` and compute its edge annotations in one pass."""
    summary = build_summary(doc)
    annotate_edges(summary, doc)
    return summary


def annotate_edges(summary: PathSummary, *docs: Document) -> PathSummary:
    """Compute the ``1/+/*`` annotation of every summary edge from data.

    For every summary edge we track, over all nodes on the parent path in
    every one of ``docs``, the minimum and maximum number of children on
    the child path.  ``min ≥ 1`` makes the edge strong; ``min = max = 1``
    makes it one-to-one.  The bounds are merged over the documents before
    any edge is annotated: an edge is as strong as the whole corpus
    allows, whatever order the documents come in.
    """
    # (parent summary node, child label) → [min_count, max_count]
    bounds: dict[tuple[int, str], list[int]] = {}

    def record(snode: SummaryNode, counts: dict[str, int]) -> None:
        for label in snode.children:
            count = counts.get(label, 0)
            key = (snode.pre, label)
            entry = bounds.get(key)
            if entry is None:
                bounds[key] = [count, count]
            else:
                if count < entry[0]:
                    entry[0] = count
                if count > entry[1]:
                    entry[1] = count

    def visit(node: XMLNode, snode: SummaryNode) -> None:
        counts: dict[str, int] = {}
        for child in node.children:
            if child.kind == ELEMENT:
                counts[child.label] = counts.get(child.label, 0) + 1
            elif child.kind == ATTRIBUTE:
                counts[child.label] = counts.get(child.label, 0) + 1
            elif child.kind == TEXT:
                counts["#text"] = counts.get("#text", 0) + 1
        record(snode, counts)
        for child in node.children:
            if child.kind == ELEMENT:
                child_summary = snode.child(child.label)
                if child_summary is None:
                    raise ValueError(
                        f"document does not conform to summary at {child.label!r}"
                    )
                visit(child, child_summary)

    for doc in docs:
        top_summary = summary.root.child(doc.top.label)
        if top_summary is None:
            raise ValueError("document top element missing from summary")
        record(summary.root, {doc.top.label: 1})
        visit(doc.top, top_summary)

    for snode in summary.nodes():
        assert snode.parent is not None
        entry = bounds.get((snode.parent.pre, snode.label))
        if entry is None:
            # Path present in the summary but absent from every document:
            # no evidence, keep the weakest annotation.
            snode.edge_annotation = "*"
        elif entry[0] == 1 and entry[1] == 1:
            snode.edge_annotation = "1"
        elif entry[0] >= 1:
            snode.edge_annotation = "+"
        else:
            snode.edge_annotation = "*"
    return summary


def _edges_on_chain(ancestor: SummaryNode, descendant: SummaryNode) -> list[SummaryNode]:
    """Child endpoints of the edges on the chain ancestor → descendant."""
    if ancestor is descendant:
        return []
    if ancestor.summary is None:
        raise ValueError("summary nodes must belong to a finalized summary")
    chain = ancestor.summary.chain(ancestor, descendant)
    return chain[1:]


def is_strong_chain(ancestor: SummaryNode, descendant: SummaryNode) -> bool:
    """Every edge from ``ancestor`` down to ``descendant`` is ``+`` or
    ``1``: every instance of the ancestor path has at least one descendant
    on the descendant path."""
    return all(
        node.edge_annotation in STRONG
        for node in _edges_on_chain(ancestor, descendant)
    )


def is_one_to_one_chain(ancestor: SummaryNode, descendant: SummaryNode) -> bool:
    """Every edge on the chain is ``1``: instances of the two paths are in
    bijection, so nesting under one is equivalent to nesting under the
    other (the §4.4.5 relaxation)."""
    return all(
        node.edge_annotation == "1"
        for node in _edges_on_chain(ancestor, descendant)
    )


def summary_statistics(summary: PathSummary, doc: Document) -> dict[str, int]:
    """The per-document row of the Figure 4.13 table."""
    return {
        "nodes": doc.count(),
        "elements": doc.count("element"),
        "summary_size": len(summary),
        "strong_edges": summary.count_strong_edges(),
        "one_to_one_edges": summary.count_one_to_one_edges(),
    }

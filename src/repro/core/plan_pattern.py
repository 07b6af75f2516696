"""Computing the pattern(s) equivalent to a plan over views (thesis §5.5).

The rewriting algorithm tests candidate plans for S-equivalence with the
query pattern.  Testing is natural on patterns, but not every plan has an
S-equivalent pattern — the thesis shows a two-view join whose ``a``/``c``
relationship is ambiguous.  However, **every plan is S-equivalent to a
union of patterns**: under the summary, each consistent joint embedding of
the plan's views resolves the ambiguity one way.

This module implements that construction:

* :func:`expand_view` — the pattern a view denotes under one embedding
  into the summary: every view edge is expanded into the parent-child
  chain of summary labels connecting its endpoints (the view-side analog
  of canonical trees; the edge's join semantics lands on the *first* chain
  edge, which reproduces the view's ⊥-production behavior);
* :func:`merged_patterns` — for a set of view uses glued by join
  conditions, the union of merged patterns over all glue-consistent joint
  embeddings.  Glued nodes (and their root chains) are shared; everything
  else stays per-view.  The members are built on demand, one joint
  embedding at a time, so a caller that rejects the union at its first
  member never builds the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..summary.path_summary import PathSummary, SummaryNode
from .canonical import summary_embeddings, _strict_copy
from .xam import CHILD, JOIN, Pattern, PatternNode

__all__ = ["GlueCondition", "expand_view", "merged_patterns", "joint_embeddings"]


@dataclass(frozen=True)
class GlueCondition:
    """A join condition between two view uses.

    ``kind``:

    * ``eq`` — node equality (both views store the ID of the same node);
    * ``parent`` / ``ancestor`` — structural join: the left node is the
      parent/ancestor of the right node;
    * ``derived-parent`` — the right view's navigational ID derives its
      parent, equated with the left node (§5.2's ID-property rewriting).
    """

    kind: str
    left_use: int
    left_node: str
    right_use: int
    right_node: str


def expand_view(
    view: Pattern,
    embedding: dict,
    summary: PathSummary,
) -> Pattern:
    """The §5.5 expansion of one view under one summary embedding.

    ``embedding`` may be keyed by pattern nodes (e.g. the strict copy's,
    from :func:`summary_embeddings`) or by node names; it is normalized by
    name, which both the view and its strict copy share.
    """
    named = {
        (key if isinstance(key, str) else key.name): value
        for key, value in embedding.items()
    }
    expanded = Pattern(ordered=view.ordered)
    _graft(view.root, expanded.root, named, summary)
    return expanded.finalize()


def _graft(
    view_node: PatternNode,
    anchor: PatternNode,
    embedding: dict[str, SummaryNode],
    summary: PathSummary,
) -> None:
    for edge in view_node.edges:
        chain = summary.chain(
            embedding[view_node.name], embedding[edge.child.name]
        )
        node = anchor
        for position, snode in enumerate(chain[1:]):
            last = position == len(chain) - 2
            semantics = edge.semantics if position == 0 else JOIN
            child = PatternNode(tag=snode.label)
            if last:
                source = edge.child
                child.store_id = source.store_id
                child.store_tag = source.store_tag
                child.store_value = source.store_value
                child.store_content = source.store_content
                child.value_formula = source.value_formula
                child.name = source.name
            node.add_child(child, CHILD, semantics)
            node = child
        _graft(edge.child, node, embedding, summary)


def joint_embeddings(
    views: Sequence[Pattern],
    glues: Sequence[GlueCondition],
    summary: PathSummary,
) -> Iterator[tuple[dict[str, SummaryNode], ...]]:
    """The combinations of per-view embeddings consistent with the glue
    conditions (checked on summary paths), keyed by node name, in the
    lexicographic order of the per-view embedding lists.  Lazy: each
    combination is checked when it is asked for."""
    # embeddings are over strict copies; map back by node name
    per_view = [
        [
            {node.name: snode for node, snode in embedding.items()}
            for embedding in summary_embeddings(_strict_copy(view), summary)
        ]
        for view in views
    ]
    for combo in itertools.product(*per_view):
        if _glues_hold(combo, glues):
            yield combo


def _glues_hold(
    combo: Sequence[dict[str, SummaryNode]], glues: Sequence[GlueCondition]
) -> bool:
    for glue in glues:
        left = combo[glue.left_use][glue.left_node]
        right = combo[glue.right_use][glue.right_node]
        if glue.kind == "eq":
            if left is not right:
                return False
        elif glue.kind in ("parent", "derived-parent"):
            if right.parent is not left:
                return False
        elif glue.kind == "ancestor":
            if not left.is_ancestor_of(right):
                return False
        else:  # pragma: no cover - guarded upstream
            raise ValueError(f"unknown glue kind {glue.kind!r}")
    return True


def merged_patterns(
    views: Sequence[Pattern],
    glues: Sequence[GlueCondition],
    summary: PathSummary,
) -> Iterator[tuple[Pattern, dict[str, str]]]:
    """The union of patterns S-equivalent to the glued join of the views,
    one member at a time.

    For every glue-consistent joint embedding, the views' expansions are
    merged: glued nodes unify (together with their root chains); unglued
    same-path nodes remain distinct occurrences.  View node names must be
    unique across uses (callers rename per use); each result carries the
    alias map view-node-name → merged-node-name (glued pairs share one
    merged node).  Members repeating an earlier one's structure are
    skipped.  Each member is merged when it is asked for and is the
    caller's own: nothing else holds it.
    """
    seen: set[tuple] = set()
    for combo in joint_embeddings(views, glues, summary):
        pattern, aliases = _merge_combo(views, combo, glues, summary)
        key = pattern.structure_key()
        if key not in seen:
            seen.add(key)
            yield pattern, aliases


def _merge_combo(
    views: Sequence[Pattern],
    combo: Sequence[dict[str, SummaryNode]],
    glues: Sequence[GlueCondition],
    summary: PathSummary,
) -> tuple[Pattern, dict[str, str]]:
    """Merge the views of one joint embedding into a single pattern.

    Only the *glue spine* — the view edges on the paths from ⊤ to glued
    nodes — is instantiated into summary chains (and shared between uses).
    Every off-spine subtree is grafted verbatim, preserving its axes and
    semantics: expanding an optional descendant edge into one chain per
    path would change its ⊥-production behavior (⊥ means "no match via
    *any* path").
    """
    merged = Pattern()
    # shared spine: summary node pre → merged pattern node
    spine: dict[int, PatternNode] = {}
    aliases: dict[str, str] = {}

    for use_index, view in enumerate(views):
        embedding = combo[use_index]
        shared_names = set(_glued_nodes(glues, use_index))
        # view nodes on the spine: glue nodes plus their view ancestors
        spine_names: set[str] = set()
        for name in shared_names:
            walk = view.node_by_name(name)
            while walk is not None and walk.parent_edge is not None:
                spine_names.add(walk.name)
                walk = walk.parent_edge.parent
        _graft_spine(
            view.root, merged.root, view, embedding, summary,
            spine, spine_names, aliases,
        )
    merged.finalize()
    for node in merged.nodes():
        aliases.setdefault(node.name, node.name)
    return merged, aliases


def _graft_spine(
    view_node: PatternNode,
    anchor: PatternNode,
    view: Pattern,
    embedding: dict[str, SummaryNode],
    summary: PathSummary,
    spine: dict[int, PatternNode],
    spine_names: set[str],
    aliases: dict[str, str],
) -> None:
    for edge in view_node.edges:
        if edge.child.name in spine_names:
            # expand this edge into its summary chain, merging spine nodes
            chain = summary.chain(
                embedding[view_node.name], embedding[edge.child.name]
            )
            node = anchor
            for position, snode in enumerate(chain[1:]):
                last = position == len(chain) - 2
                semantics = edge.semantics if position == 0 else JOIN
                if snode.pre in spine:
                    node = spine[snode.pre]
                    if last:
                        _copy_specs(edge.child, node)
                        if node.name:
                            aliases[edge.child.name] = node.name
                else:
                    child = PatternNode(tag=snode.label)
                    if last:
                        _copy_specs(edge.child, child)
                    node.add_child(child, CHILD, semantics)
                    spine[snode.pre] = child
                    node = child
            _graft_spine(
                edge.child, node, view, embedding, summary,
                spine, spine_names, aliases,
            )
        else:
            # off-spine: graft the original subtree verbatim
            subtree = _copy_subtree(edge.child)
            anchor.add_child(subtree, edge.axis, edge.semantics)


def _copy_subtree(node: PatternNode) -> PatternNode:
    clone = node.copy_shallow()
    for edge in node.edges:
        clone.add_child(_copy_subtree(edge.child), edge.axis, edge.semantics)
    return clone



def _glued_nodes(glues: Sequence[GlueCondition], use_index: int) -> list[str]:
    names = []
    for glue in glues:
        if glue.left_use == use_index:
            names.append(glue.left_node)
        if glue.right_use == use_index:
            names.append(glue.right_node)
    return names


def _copy_specs(source: PatternNode, target: PatternNode) -> None:
    if source.store_id and not target.store_id:
        target.store_id = source.store_id
    target.store_tag = target.store_tag or source.store_tag
    target.store_value = target.store_value or source.store_value
    target.store_content = target.store_content or source.store_content
    target.value_formula = target.value_formula.conjoin(source.value_formula)
    if source.name and not target.name:
        target.name = source.name
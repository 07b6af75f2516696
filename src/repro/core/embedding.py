"""Embedding-based XAM semantics (thesis §4.1).

Two facilities live here:

* :func:`evaluate_pattern` — the full XAM evaluation over a parsed
  document: embeddings drive the construction of (possibly nested) result
  tuples, honoring every edge semantics (join / semijoin / outerjoin /
  nest / nest-outer), value formulas, and the stored-attribute
  specifications (ID under the node's declared scheme, L, V, C).
  :mod:`repro.core.semantics` implements the *algebraic* semantics of
  §2.2.2 independently; the test-suite checks they agree, mirroring the
  thesis' equivalence claim.

* :func:`return_tuples` — enumeration of the (optional) embeddings of a
  pattern into any labeled tree, reduced to the set of return-node tuples.
  This powers the canonical-model membership tests of Chapter 4: the same
  code runs against documents and against canonical trees, differing only
  in how a tree node *admits* a pattern node (concrete value vs formula
  implication), which the ``admits`` callback abstracts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from ..algebra.model import NULL, NestedTuple
from ..xmldata.ids import id_of
from ..xmldata.node import ATTRIBUTE, ELEMENT, TEXT, Document, TagIndex, XMLNode
from .xam import CHILD, JOIN, NEST, NEST_OUTER, OUTER, SEMI, Pattern, PatternEdge, PatternNode

__all__ = [
    "evaluate_pattern",
    "return_tuples",
    "embeddings",
    "iter_embeddings",
    "subtree_embeddable",
    "admits_xml_node",
    "subtree_attribute_names",
]


# ---------------------------------------------------------------------------
# Matching a pattern node against a concrete document node
# ---------------------------------------------------------------------------

def _kind_compatible(pattern_node: PatternNode, xml_node: XMLNode) -> bool:
    if pattern_node.tag == "#document":
        return xml_node.kind == "document"
    if pattern_node.tag == "#text":
        return xml_node.kind == TEXT
    if pattern_node.is_attribute:
        return xml_node.kind == ATTRIBUTE
    if pattern_node.is_wildcard:
        return xml_node.kind == ELEMENT
    return xml_node.kind == ELEMENT


def admits_xml_node(pattern_node: PatternNode, xml_node: XMLNode) -> bool:
    """Label, kind and value-formula admission of a concrete node."""
    if not _kind_compatible(pattern_node, xml_node):
        return False
    if pattern_node.tag is not None and pattern_node.tag != xml_node.label:
        return False
    if not pattern_node.value_formula.is_true:
        return pattern_node.value_formula.evaluate(xml_node.value)
    return True


def _axis_candidates(
    xml_node: XMLNode, edge: PatternEdge, index: TagIndex
) -> Sequence[XMLNode]:
    """An edge's candidate images in document order: ``children`` for child
    steps, a window of the document's tag index for descendant steps."""
    if edge.axis == CHILD:
        return xml_node.children
    tag = edge.child.tag
    if tag is None:  # ``*`` admits elements only
        return [n for n in index.descendants(xml_node) if n.kind == ELEMENT]
    return index.descendants(xml_node, tag)


# ---------------------------------------------------------------------------
# Full XAM evaluation over documents
# ---------------------------------------------------------------------------

def subtree_attribute_names(pattern_node: PatternNode) -> list[str]:
    """Top-level output attribute names contributed by the subtree rooted
    at ``pattern_node``: ``name.ID/L/V/C`` for flat descendants, plus one
    collection attribute per nest edge (named after the nested child)."""
    names = [f"{pattern_node.name}.{attr}" for attr in pattern_node.stored_attrs()]
    for edge in pattern_node.edges:
        if edge.nested:
            names.append(edge.child.name)
        elif edge.semantics != SEMI:
            names.extend(subtree_attribute_names(edge.child))
    return names


def _node_attrs(pattern_node: PatternNode, xml_node: XMLNode) -> dict[str, Any]:
    attrs: dict[str, Any] = {}
    if pattern_node.store_id:
        attrs[f"{pattern_node.name}.ID"] = id_of(xml_node, pattern_node.store_id)
    if pattern_node.store_tag:
        attrs[f"{pattern_node.name}.L"] = xml_node.label
    if pattern_node.store_value:
        attrs[f"{pattern_node.name}.V"] = xml_node.value
    if pattern_node.store_content:
        attrs[f"{pattern_node.name}.C"] = xml_node.content
    return attrs


def _null_subtree_attrs(pattern_node: PatternNode) -> dict[str, Any]:
    attrs: dict[str, Any] = {}
    for name in subtree_attribute_names(pattern_node):
        if "." in name:
            attrs[name] = NULL
        else:
            attrs[name] = []
    return attrs


def _eval_at(
    pattern_node: PatternNode, xml_node: XMLNode, index: TagIndex
) -> Optional[list[NestedTuple]]:
    """Tuples produced by matching the pattern subtree at ``xml_node``;
    ``None`` when the subtree has no embedding here."""
    if not admits_xml_node(pattern_node, xml_node):
        return None
    tuples = [NestedTuple(_node_attrs(pattern_node, xml_node))]
    for edge in pattern_node.edges:
        child_tuples: list[NestedTuple] = []
        for candidate in _axis_candidates(xml_node, edge, index):
            result = _eval_at(edge.child, candidate, index)
            if result is not None:
                child_tuples.extend(result)
        tuples = _combine_edge(tuples, child_tuples, edge)
        if tuples is None:
            return None
    return tuples


def _combine_edge(
    tuples: list[NestedTuple],
    child_tuples: list[NestedTuple],
    edge: PatternEdge,
) -> Optional[list[NestedTuple]]:
    semantics = edge.semantics
    if semantics == JOIN:
        if not child_tuples:
            return None
        return [
            NestedTuple({**a.attrs, **b.attrs}) for a in tuples for b in child_tuples
        ]
    if semantics == SEMI:
        return tuples if child_tuples else None
    if semantics == OUTER:
        if child_tuples:
            return [
                NestedTuple({**a.attrs, **b.attrs})
                for a in tuples
                for b in child_tuples
            ]
        padding = _null_subtree_attrs(edge.child)
        return [NestedTuple({**a.attrs, **padding}) for a in tuples]
    if semantics == NEST:
        if not child_tuples:
            return None
        return [a.with_attrs(**{edge.child.name: child_tuples}) for a in tuples]
    if semantics == NEST_OUTER:
        return [a.with_attrs(**{edge.child.name: child_tuples}) for a in tuples]
    raise AssertionError(f"unhandled edge semantics {semantics!r}")


def evaluate_pattern(pattern: Pattern, doc: Document) -> list[NestedTuple]:
    """Evaluate a XAM over a document: Definition 4.1.1 extended with the
    decorated / optional / attribute / nested semantics of §4.1, producing
    duplicate-free tuples in document order.  ``doc`` must be labelled
    (descendant steps read its tag index; ``ValueError`` otherwise)."""
    result = _eval_at(pattern.root, doc.root, doc.index)
    if result is None:
        return []
    out: list[NestedTuple] = []
    seen: set[tuple] = set()
    for t in result:
        key = t.freeze()
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Generic (optional-)embedding enumeration → return tuples
# ---------------------------------------------------------------------------

TreeChildren = Callable[[Any], Sequence[Any]]
Admits = Callable[[PatternNode, Any], bool]
#: (tree node, sought pattern node) → the node's proper descendants that may
#: admit the pattern node, in :func:`_generic_descendants` order; lets a tree
#: with an index (canonical trees, via the summary) skip hopeless subtrees
TreeDescendants = Callable[[Any, PatternNode], Iterator[Any]]


def _generic_descendants(node: Any, children: TreeChildren) -> Iterator[Any]:
    stack = list(children(node))
    while stack:
        candidate = stack.pop()
        yield candidate
        stack.extend(children(candidate))


class _LazyOptions:
    """A restartable, caching view over a generator — lets the lazy
    cartesian product below re-iterate an edge's options without
    recomputing or materializing them up front."""

    __slots__ = ("_iterator", "_cache", "_done")

    def __init__(self, iterator):
        self._iterator = iterator
        self._cache: list = []
        self._done = False

    def __iter__(self):
        index = 0
        while True:
            if index < len(self._cache):
                yield self._cache[index]
                index += 1
                continue
            if self._done:
                return
            try:
                item = next(self._iterator)
            except StopIteration:
                self._done = True
                return
            self._cache.append(item)


def _assignments(
    pattern_node: PatternNode,
    tree_node: Any,
    children: TreeChildren,
    admits: Admits,
    guarantee: Optional[Admits] = None,
    memo: Optional[dict] = None,
    descendants: Optional[TreeDescendants] = None,
) -> Iterator[dict[PatternNode, Any]]:
    """Optional embeddings of the subtree rooted at ``pattern_node`` with
    ``pattern_node ↦ tree_node`` (admission already verified by caller).

    Fully lazy: the cartesian product across edges re-iterates cached
    per-edge option streams, so producing the *first* embedding costs
    O(pattern depth), which makes existence checks cheap even on bushy
    trees.

    Per the optional-embedding definition (§4.1): a node below an optional
    edge maps to ⊥ *only when* no embedding of its subtree exists below its
    parent's image.  Over *decorated trees* (canonical models) a node may
    admit under ``admits`` (structurally possible) without being forced
    (formula not implied): ``guarantee`` is the stronger admission deciding
    whether ⊥ is additionally offered.  When ``guarantee`` is ``admits``
    (the default — concrete documents), ⊥ appears exactly when nothing
    matches.
    """
    if guarantee is None:
        guarantee = admits
    if memo is None:
        memo = {}

    def edge_options(edge) -> Iterator[dict[PatternNode, Any]]:
        yielded = False
        if edge.axis == CHILD:
            candidates = children(tree_node)
        elif descendants is not None:
            candidates = descendants(tree_node, edge.child)
        else:
            candidates = _generic_descendants(tree_node, children)
        for candidate in candidates:
            if admits(edge.child, candidate):
                for assignment in _assignments(
                    edge.child, candidate, children, admits, guarantee, memo,
                    descendants,
                ):
                    yielded = True
                    yield assignment
        if edge.optional:
            if not yielded:
                yield {n: None for n in edge.child.iter_subtree()}
            elif guarantee is not admits and not subtree_embeddable(
                edge.child, tree_node, children, guarantee, memo, descendants
            ):
                # structurally matchable but never *forced*: both outcomes
                # occur across instances of the decorated tree
                yield {n: None for n in edge.child.iter_subtree()}

    per_edge = [_LazyOptions(edge_options(edge)) for edge in pattern_node.edges]

    def combine(index: int, acc: dict[PatternNode, Any]) -> Iterator[dict]:
        if index == len(per_edge):
            yield acc
            return
        for choice in per_edge[index]:
            yield from combine(index + 1, {**acc, **choice})

    yield from combine(0, {pattern_node: tree_node})


def return_tuples(
    pattern: Pattern,
    tree_root: Any,
    children: TreeChildren,
    admits: Admits,
) -> set[tuple]:
    """The set ``p(t)`` as tuples of tree nodes (⊥ → ``None``), for any
    tree given its ``children`` accessor and an ``admits`` relation.

    ``tree_root`` plays the role of the document node ⊤ maps to.
    """
    returns = pattern.return_nodes()
    out: set[tuple] = set()
    for assignment in _assignments(pattern.root, tree_root, children, admits):
        out.add(tuple(assignment.get(node) for node in returns))
    return out


def iter_embeddings(
    pattern: Pattern,
    tree_root: Any,
    children: TreeChildren,
    admits: Admits,
    guarantee: Optional[Admits] = None,
    descendants: Optional[TreeDescendants] = None,
) -> Iterator[dict[PatternNode, Any]]:
    """Lazily generated optional embeddings of ``pattern`` (⊤ ↦ root).

    See :func:`_assignments` for the role of ``guarantee`` over decorated
    trees."""
    return _assignments(
        pattern.root, tree_root, children, admits, guarantee,
        descendants=descendants,
    )


def embeddings(
    pattern: Pattern,
    tree_root: Any,
    children: TreeChildren,
    admits: Admits,
) -> list[dict[PatternNode, Any]]:
    """All optional embeddings of ``pattern`` into the tree (⊤ ↦ root)."""
    return list(_assignments(pattern.root, tree_root, children, admits))


def subtree_embeddable(
    pattern_node: PatternNode,
    anchor: Any,
    children: TreeChildren,
    admits: Admits,
    memo: Optional[dict] = None,
    descendants: Optional[TreeDescendants] = None,
) -> bool:
    """Whether the subtree rooted at ``pattern_node`` has *some* embedding
    below ``anchor`` (through the node's parent edge axis).  Existence
    only — memoized, so it is cheap to call inside search loops."""
    edge = pattern_node.parent_edge
    assert edge is not None
    if memo is None:
        memo = {}
    outer_key = ("sub", id(pattern_node), id(anchor))
    cached = memo.get(outer_key)
    if cached is not None:
        return cached
    if edge.axis == CHILD:
        candidates = children(anchor)
    elif descendants is not None:
        candidates = descendants(anchor, pattern_node)
    else:
        candidates = _generic_descendants(anchor, children)
    result = False
    for candidate in candidates:
        if admits(pattern_node, candidate) and _embeddable_at(
            pattern_node, candidate, children, admits, memo, descendants
        ):
            result = True
            break
    memo[outer_key] = result
    return result


def _embeddable_at(
    pattern_node: PatternNode,
    tree_node: Any,
    children: TreeChildren,
    admits: Admits,
    memo: dict,
    descendants: Optional[TreeDescendants] = None,
) -> bool:
    """Admission at ``tree_node`` plus embeddability of every required
    child subtree (optional children never block)."""
    key = (id(pattern_node), id(tree_node))
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = True
    for edge in pattern_node.edges:
        if edge.optional:
            continue
        if not subtree_embeddable(
            edge.child, tree_node, children, admits, memo, descendants
        ):
            result = False
            break
    memo[key] = result
    return result

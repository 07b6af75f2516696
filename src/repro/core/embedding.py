"""Embedding-based XAM semantics (thesis §4.1).

Two facilities live here:

* :func:`evaluate_pattern` — the full XAM evaluation over a parsed
  document: embeddings drive the construction of (possibly nested) result
  tuples, honoring every edge semantics (join / semijoin / outerjoin /
  nest / nest-outer), value formulas, and the stored-attribute
  specifications (ID under the node's declared scheme, L, V, C).  Each
  call compiles the pattern into one closure per node and per edge over
  the document's tag index, whose memos compute each element's value
  and content once per labelled document.
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

from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from ..algebra.model import NULL, NestedTuple
from ..xmldata.ids import ID_GETTERS
from ..xmldata.node import ATTRIBUTE, DOCUMENT, ELEMENT, TEXT, Document, TagIndex, XMLNode
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

def _kind_of(pattern_node: PatternNode) -> str:
    """The node kind a pattern node admits: ``*`` and tags admit elements."""
    tag = pattern_node.tag
    if tag == "#document":
        return DOCUMENT
    if tag == "#text":
        return TEXT
    return ATTRIBUTE if pattern_node.is_attribute else ELEMENT


def admits_xml_node(pattern_node: PatternNode, xml_node: XMLNode) -> bool:
    """Label, kind and value-formula admission of a concrete node."""
    if xml_node.kind != _kind_of(pattern_node):
        return False
    if pattern_node.tag is not None and pattern_node.tag != xml_node.label:
        return False
    if not pattern_node.value_formula.is_true:
        return pattern_node.value_formula.evaluate(xml_node.value)
    return True


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


#: A compiled pattern subtree maps a node to the attribute dicts of the
#: tuples it produces there (``None``: no embedding).  Dicts are never
#: mutated once built, so an edge may pass its child's rows through.
Compiled = Callable[[XMLNode], Optional[list[dict]]]


def _compile(pattern_node: PatternNode, index: TagIndex) -> Compiled:
    """Specialise the subtree at ``pattern_node`` into a closure over one
    document's index: its admission, stored-attribute getters and edges
    are fixed once, and values and contents come from the index's
    memos."""
    kind, tag = _kind_of(pattern_node), pattern_node.tag
    formula = pattern_node.value_formula
    admit_value = None if formula.is_true else formula.evaluate
    value_of = index.value
    readers = {"L": attrgetter("label"), "V": value_of, "C": index.content}
    getters = [
        (f"{pattern_node.name}.{attr}",
         ID_GETTERS[pattern_node.store_id] if attr == "ID" else readers[attr])
        for attr in pattern_node.stored_attrs()
    ]
    steps = [_compile_step(edge, index) for edge in pattern_node.edges]

    def at(node: XMLNode) -> Optional[list[dict]]:
        if node.kind != kind or (tag is not None and node.label != tag):
            return None
        if admit_value is not None and not admit_value(value_of(node)):
            return None
        rows: Optional[list[dict]] = [{name: get(node) for name, get in getters}]
        for step in steps:
            rows = step(rows, node)
            if rows is None:
                return None
        return rows

    return at


def _compile_step(edge: PatternEdge, index: TagIndex):
    """An edge as ``(rows, node) → rows``: its candidates run through the
    child's closure and combine under the edge's semantics.  Child steps
    test the label inline, before any call."""
    semantics, child = edge.semantics, _compile(edge.child, index)
    tag, name, on_child = edge.child.tag, edge.child.name, edge.axis == CHILD
    descendants = index.descendants

    def candidates(node: XMLNode) -> Sequence[XMLNode]:
        if on_child:
            return node.children if tag is None else [c for c in node.children if c.label == tag]
        if tag is None:  # ``*`` admits elements only
            return [n for n in descendants(node) if n.kind == ELEMENT]
        return descendants(node, tag)

    padding = [
        (n, "." not in n)
        for n in (subtree_attribute_names(edge.child) if semantics == OUTER else ())
    ]

    def step(rows, node):
        found: list[dict] = []
        for candidate in candidates(node):
            result = child(candidate)
            if result is not None:
                found.extend(result)
        if semantics == SEMI:
            return rows if found else None
        if not found and semantics in (JOIN, NEST):
            return None
        if semantics in (NEST, NEST_OUTER):
            nested = [NestedTuple.adopt(b) for b in found]
            return [{**a, name: nested} for a in rows]
        if not found:  # outer: fresh padding per tuple, so no ``[]`` is shared
            return [{**a, **{n: [] if nest else NULL for n, nest in padding}} for a in rows]
        if len(rows) == 1 and not rows[0]:
            return found
        return [{**a, **b} for a in rows for b in found]

    return step


def evaluate_pattern(pattern: Pattern, doc: Document) -> list[NestedTuple]:
    """Evaluate a XAM over a document: Definition 4.1.1 extended with the
    decorated / optional / attribute / nested semantics of §4.1, producing
    duplicate-free tuples in document order.  ``doc`` must be labelled
    (descendant steps, values and contents read its tag index;
    ``ValueError`` otherwise).

    The pattern is compiled into closures over the document's index on
    every call: compiling costs microseconds against a document pass, so
    no cache is kept.  Every row carries the pattern's attribute names in
    one order, so rows are told apart by their value tuples; a row holding
    a collection, which does not hash, is told apart by its frozen form."""
    result = _compile(pattern.root, doc.index)(doc.root)
    if result is None:
        return []
    out: list[NestedTuple] = []
    seen: set[tuple] = set()
    for attrs in result:
        t = NestedTuple.adopt(attrs)
        key = tuple(attrs.values())
        try:
            fresh = key not in seen
        except TypeError:
            key = t.freeze()
            fresh = key not in seen
        if fresh:
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


#: pattern node → the one root path of tree nodes (top-down, compared by
#: identity) its image must lie on; its candidates are the path's nodes
#: below the parent's image along the edge's axis
Restrict = Mapping[PatternNode, Sequence[Any]]


def _generic_descendants(node: Any, children: TreeChildren) -> Iterator[Any]:
    stack = list(children(node))
    while stack:
        candidate = stack.pop()
        yield candidate
        stack.extend(children(candidate))


def _step_candidates(
    tree_node: Any,
    pattern_node: PatternNode,
    axis: str,
    children: TreeChildren,
    descendants: Optional[TreeDescendants],
    restrict: Optional[Restrict],
):
    """The tree nodes the pattern node may take below ``tree_node`` along
    ``axis``, in the generic walk's order.  A restricted node's path is
    read top-down, which is the order a depth-first walk meets it in."""
    if restrict is not None:
        path = restrict.get(pattern_node)
        if path is not None:
            try:
                position = path.index(tree_node)
            except ValueError:
                return ()  # off the path: nothing below it is on it
            if axis == CHILD:
                return path[position + 1 : position + 2]
            return path[position + 1 :]
    if axis == CHILD:
        return children(tree_node)
    if descendants is not None:
        return descendants(tree_node, pattern_node)
    return _generic_descendants(tree_node, children)


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
    restrict: Optional[Restrict] = None,
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

    ``restrict`` confines pattern nodes to root paths of the tree.  It
    must only name nodes that no embedding places off their path (under
    ``admits`` and ``guarantee`` alike); then the embeddings, and their
    order, are those of the unrestricted search.
    """
    if guarantee is None:
        guarantee = admits
    if memo is None:
        memo = {}

    def edge_options(edge) -> Iterator[dict[PatternNode, Any]]:
        yielded = False
        for candidate in _step_candidates(
            tree_node, edge.child, edge.axis, children, descendants, restrict
        ):
            if admits(edge.child, candidate):
                for assignment in _assignments(
                    edge.child, candidate, children, admits, guarantee, memo,
                    descendants, restrict,
                ):
                    yielded = True
                    yield assignment
        if edge.optional:
            if not yielded:
                yield {n: None for n in edge.child.subtree()}
            elif guarantee is not admits and not subtree_embeddable(
                edge.child, tree_node, children, guarantee, memo, descendants,
                restrict,
            ):
                # structurally matchable but never *forced*: both outcomes
                # occur across instances of the decorated tree
                yield {n: None for n in edge.child.subtree()}

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
    restrict: Optional[Restrict] = None,
) -> Iterator[dict[PatternNode, Any]]:
    """Lazily generated optional embeddings of ``pattern`` (⊤ ↦ root).

    See :func:`_assignments` for the roles of ``guarantee`` over decorated
    trees and of ``restrict``."""
    return _assignments(
        pattern.root, tree_root, children, admits, guarantee,
        descendants=descendants, restrict=restrict,
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
    restrict: Optional[Restrict] = None,
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
    result = False
    for candidate in _step_candidates(
        anchor, pattern_node, edge.axis, children, descendants, restrict
    ):
        if admits(pattern_node, candidate) and _embeddable_at(
            pattern_node, candidate, children, admits, memo, descendants,
            restrict,
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
    restrict: Optional[Restrict] = None,
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
            edge.child, tree_node, children, admits, memo, descendants,
            restrict,
        ):
            result = False
            break
    memo[key] = result
    return result

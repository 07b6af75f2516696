"""XML path summaries — strong DataGuides for tree data (thesis §4.2.1).

A :class:`PathSummary` is a tree with one node per distinct rooted path in
the summarized document(s).  The mapping φ sends every document node to the
summary node reachable by the same label path (Definition 4.2.1); text
children map to a ``#text`` summary child and attributes to ``@name``
children.

Summary nodes carry:

* a *path number* — the integer identifiers of Example 4.2.1, assigned in
  pre-order starting at 1 for the top element;
* ``pre``/``post`` intervals for O(1) ancestor tests between summary nodes;
* a cardinality (how many document nodes map onto the path), used for
  statistics and for computing the enhanced-summary edge annotations;
* an optional edge annotation (``'1'``, ``'+'`` or ``'*'``) describing the
  edge from the parent — see :mod:`repro.summary.enhanced`.

:meth:`PathSummary.finalize` also builds what the rewriting search would
otherwise re-derive per candidate: per label the nodes in pre-order (a
``//label`` step below a node is a bisect over its ``[pre, post]``
interval, not a subtree walk), per node the children behind strong
(``+``/``1``) edges, and whether the summary records text paths at all.
:attr:`PathSummary.generation` changes whenever any of this may have: facts
derived from a summary are stamped with it.

The synthetic root node (number 0, label ``#document``) stands for the ⊤ of
XAM patterns, so pattern→summary embeddings can map ⊤ somewhere concrete.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Sequence

from ..xmldata import ATTRIBUTE, DOCUMENT, ELEMENT, TEXT, Document, XMLNode

__all__ = ["SummaryNode", "PathSummary", "build_summary"]

#: the edge annotations guaranteeing at least one child on the path
STRONG = ("+", "1")


class SummaryNode:
    """One rooted path of the summarized data."""

    __slots__ = (
        "label",
        "number",
        "parent",
        "children",
        "cardinality",
        "_edge_annotation",
        "strong_children",
        "pre",
        "post",
        "summary",
    )

    def __init__(self, label: str, parent: Optional["SummaryNode"] = None):
        self.label = label
        self.parent = parent
        self.children: dict[str, SummaryNode] = {}
        self.number: int = -1
        self.cardinality: int = 0
        self._edge_annotation: Optional[str] = None
        #: the children reached by strong (``+``/``1``) edges, in child order
        self.strong_children: tuple[SummaryNode, ...] = ()
        self.pre: int = -1
        self.post: int = -1
        self.summary: Optional["PathSummary"] = None

    @property
    def edge_annotation(self) -> Optional[str]:
        """Annotation of the edge parent → self: '1' (exactly one child on
        this path under every parent instance), '+' (at least one), '*'
        (no constraint), or None when constraints were not computed."""
        return self._edge_annotation

    @edge_annotation.setter
    def edge_annotation(self, value: Optional[str]) -> None:
        self._edge_annotation = value
        if self.parent is not None:
            self.parent._index_strong_children()
        if self.summary is not None:
            self.summary.generation += 1

    def _index_strong_children(self) -> None:
        self.strong_children = tuple(
            child
            for child in self.children.values()
            if child._edge_annotation in STRONG
        )

    # -- structure ----------------------------------------------------------

    def child(self, label: str) -> Optional["SummaryNode"]:
        return self.children.get(label)

    def ensure_child(self, label: str) -> "SummaryNode":
        node = self.children.get(label)
        if node is None:
            node = SummaryNode(label, parent=self)
            self.children[label] = node
        return node

    def iter_subtree(self) -> Iterator["SummaryNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def descendants(self) -> Iterator["SummaryNode"]:
        it = self.iter_subtree()
        next(it)
        return it

    def ancestors(self) -> Iterator["SummaryNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "SummaryNode") -> bool:
        return self.pre < other.pre and other.post < self.post

    def is_parent_of(self, other: "SummaryNode") -> bool:
        return other.parent is self

    @property
    def is_attribute(self) -> bool:
        return self.label.startswith("@")

    @property
    def is_text(self) -> bool:
        return self.label == "#text"

    def path_labels(self) -> tuple[str, ...]:
        """Labels from the top element down to this node."""
        labels: list[str] = []
        node: Optional[SummaryNode] = self
        while node is not None and node.parent is not None:
            labels.append(node.label)
            node = node.parent
        return tuple(reversed(labels))

    def path_string(self) -> str:
        return "/" + "/".join(self.path_labels())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SummaryNode #{self.number} {self.path_string()}>"


class PathSummary:
    """A strong DataGuide over tree-structured data.

    Construct with :func:`build_summary` (from a document) or
    :meth:`from_paths` (explicitly, for fixtures such as the thesis'
    Figure 4.7 / Figure 4.12 summaries).
    """

    def __init__(self) -> None:
        self.root = SummaryNode("#document")
        self._by_number: list[SummaryNode] = []
        #: label (``None``: any element) → (pre numbers, nodes), both in
        #: pre-order — see :meth:`descendants_labeled`
        self._label_index: dict[Optional[str], tuple[list[int], list[SummaryNode]]] = {}
        self._finalized = False
        #: whether any path has a ``#text`` child (summaries built from
        #: bare label paths carry no value information)
        self.tracks_text = False
        #: bumped by every :meth:`finalize` and edge re-annotation
        self.generation = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "PathSummary":
        """Build a summary from rooted path strings like ``/a/b/@id``.

        All paths must share the same first label (the top element).
        """
        summary = cls()
        for path in paths:
            labels = [piece for piece in path.split("/") if piece]
            if not labels:
                raise ValueError(f"empty path {path!r}")
            node = summary.root
            for label in labels:
                node = node.ensure_child(label)
        summary.finalize()
        return summary

    def add_document(self, doc: Document) -> None:
        """Fold a document into the summary (the φ mapping), updating
        cardinalities.  Call :meth:`finalize` when done."""
        self._finalized = False

        def visit(node: XMLNode, snode: SummaryNode) -> None:
            snode.cardinality += 1
            for child in node.children:
                if child.kind == ELEMENT:
                    visit(child, snode.ensure_child(child.label))
                elif child.kind == ATTRIBUTE:
                    snode.ensure_child(child.label).cardinality += 1
                elif child.kind == TEXT:
                    snode.ensure_child("#text").cardinality += 1

        visit(doc.top, self.root.ensure_child(doc.top.label))

    def finalize(self) -> "PathSummary":
        """Assign path numbers and pre/post intervals; build the label,
        strong-edge and text indexes the rewriting search reads."""
        self._by_number = []
        by_label: dict[Optional[str], list[SummaryNode]] = {None: []}
        number = 0
        clock = 0

        self.root.number = 0

        def visit(node: SummaryNode) -> None:
            nonlocal number, clock
            node.summary = self
            if node.parent is not None:
                number += 1
                node.number = number
                self._by_number.append(node)
                by_label.setdefault(node.label, []).append(node)
                if not node.is_attribute and not node.is_text:
                    by_label[None].append(node)
            node._index_strong_children()
            # Interval numbering from one clock: for any descendant d of n,
            # n.pre < d.pre < d.post < n.post — O(1) ancestor tests.
            clock += 1
            node.pre = clock
            for child in node.children.values():
                visit(child)
            clock += 1
            node.post = clock

        visit(self.root)
        self._label_index = {
            label: ([node.pre for node in nodes], nodes)
            for label, nodes in by_label.items()
        }
        self.tracks_text = "#text" in by_label
        self.generation += 1
        self._finalized = True
        return self

    # -- lookups ---------------------------------------------------------------

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("summary not finalized; call finalize() first")

    def nodes(self) -> list[SummaryNode]:
        """All real summary nodes (the ⊤ root excluded), in path-number
        order."""
        self._require_finalized()
        return list(self._by_number)

    def __len__(self) -> int:
        self._require_finalized()
        return len(self._by_number)

    def node_by_number(self, number: int) -> SummaryNode:
        self._require_finalized()
        if number == 0:
            return self.root
        return self._by_number[number - 1]

    def nodes_labeled(self, label: str) -> list[SummaryNode]:
        """Summary nodes carrying ``label`` (used to enumerate embedding
        candidates; ``*`` patterns consider every node)."""
        self._require_finalized()
        return list(self._label_index.get(label, ((), ()))[1])

    def descendants_labeled(
        self, node: SummaryNode, label: Optional[str]
    ) -> list[SummaryNode]:
        """The proper descendants of ``node`` carrying ``label`` (``None``:
        any element), in pre-order — a bisect over the label's pre-order
        list, since ``node.pre < d.pre < node.post`` for exactly the
        descendants ``d``."""
        self._require_finalized()
        pres, nodes = self._label_index.get(label, ((), ()))
        return nodes[bisect_right(pres, node.pre) : bisect_left(pres, node.post)]

    def has_labeled_below(self, node: SummaryNode, label: Optional[str]) -> bool:
        """Whether :meth:`descendants_labeled` would return anything."""
        pres = self._label_index.get(label, ((), ()))[0]
        first = bisect_right(pres, node.pre)
        return first < len(pres) and pres[first] < node.post

    def node_for_path(self, path: str) -> Optional[SummaryNode]:
        """Resolve a rooted path string like ``/site/people/person``."""
        node: Optional[SummaryNode] = self.root
        for label in (piece for piece in path.split("/") if piece):
            if node is None:
                return None
            node = node.child(label)
        return node if node is not self.root else None

    def node_for(self, xml_node: XMLNode) -> Optional[SummaryNode]:
        """The φ image of a document node."""
        if xml_node.kind == DOCUMENT:
            return self.root
        node: Optional[SummaryNode] = self.root
        for label in xml_node.rooted_path():
            if node is None:
                return None
            node = node.child(label)
        return node

    def chain(self, ancestor: SummaryNode, descendant: SummaryNode) -> list[SummaryNode]:
        """The unique summary path from ``ancestor`` down to ``descendant``
        (both included).  Raises if not related."""
        nodes = [descendant]
        node = descendant
        while node is not ancestor:
            if node.parent is None:
                raise ValueError(
                    f"{ancestor!r} is not an ancestor of {descendant!r}"
                )
            node = node.parent
            nodes.append(node)
        nodes.reverse()
        return nodes

    # -- conformance (Definition 4.2.2) ----------------------------------------

    def conforms(self, doc: Document) -> bool:
        """``S ⊨ D``: the document's paths are exactly this summary's paths.

        We check ``S(D) = S`` structurally: every document path exists in
        the summary and every summary path occurs in the document.
        """
        observed = build_summary(doc)
        return _same_tree(observed.root, self.root)

    def describes(self, doc: Document) -> bool:
        """Weaker test: every document path exists in the summary (the
        document may not exercise all summary paths).  This is the practical
        check when one summary serves several documents."""
        for node in doc.nodes():
            if self.node_for(node) is None:
                return False
        return True

    # -- statistics --------------------------------------------------------------

    def count_strong_edges(self) -> int:
        return sum(1 for n in self.nodes() if n.edge_annotation in STRONG)

    def count_one_to_one_edges(self) -> int:
        return sum(1 for n in self.nodes() if n.edge_annotation == "1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PathSummary |S|={len(self)}>"


def _same_tree(a: SummaryNode, b: SummaryNode) -> bool:
    if a.label != b.label or set(a.children) != set(b.children):
        return False
    return all(_same_tree(a.children[k], b.children[k]) for k in a.children)


def build_summary(doc: Document) -> PathSummary:
    """Build the path summary ``S(D)`` of a single document."""
    summary = PathSummary()
    summary.add_document(doc)
    summary.finalize()
    return summary

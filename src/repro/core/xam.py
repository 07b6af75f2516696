"""The XML Access Module (XAM) tree-pattern language (thesis Chapter 2).

A XAM is an ordered tree ``(NS, ES, o)`` describing the information content
of a persistent XML storage structure — a storage module, an index, or a
materialized view — and, dually, a query sub-expression.  The grammar
(Fig. 2.3):

* a distinguished ⊤ node for the document root;
* nodes with a name, optionally annotated with an ID specification
  (``i``/``o``/``s``/``p``, possibly required ``R``), a tag specification
  (``Tag`` stored, or the predicate ``[Tag=c]``, possibly required), a value
  specification (``Val`` stored, or a predicate over the value, possibly
  required) and a content specification (``Cont`` stored);
* edges labeled with an axis (``/`` parent-child or ``//``
  ancestor-descendant) and a join semantics: ``j`` join, ``o`` outerjoin,
  ``s`` semijoin, ``nj`` nest join, ``no`` nest outerjoin.  Outer edges are
  the *optional* edges of §4.1; nest edges produce nested tuples;
* an order flag.

The same classes serve the Chapter 4 pattern dialects: a *conjunctive*
pattern uses only ``j``-edges and trivial formulas; *decorated* patterns add
value formulas; *optional* patterns add outer edges; *attribute* patterns
mark which of ID/L/V/C each return node stores; *nested* patterns add nest
edges.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..algebra.formulas import TRUE, Formula
from ..xmldata.ids import ID_KINDS

__all__ = [
    "CHILD",
    "DESCENDANT",
    "JOIN",
    "OUTER",
    "SEMI",
    "NEST",
    "NEST_OUTER",
    "EDGE_SEMANTICS",
    "PatternNode",
    "PatternEdge",
    "Pattern",
]

CHILD = "/"
DESCENDANT = "//"

JOIN = "j"
OUTER = "o"
SEMI = "s"
NEST = "nj"
NEST_OUTER = "no"

EDGE_SEMANTICS = (JOIN, OUTER, SEMI, NEST, NEST_OUTER)


class PatternNode:
    """A XAM node: matching constraints plus stored-attribute flags."""

    __slots__ = (
        "name",
        "tag",
        "store_id",
        "id_required",
        "store_tag",
        "tag_required",
        "value_formula",
        "store_value",
        "value_required",
        "store_content",
        "edges",
        "parent_edge",
        "_preorder",
    )

    def __init__(
        self,
        tag: Optional[str] = None,
        store_id: Optional[str] = None,
        id_required: bool = False,
        store_tag: bool = False,
        tag_required: bool = False,
        value_formula: Formula = TRUE,
        store_value: bool = False,
        value_required: bool = False,
        store_content: bool = False,
        name: Optional[str] = None,
    ):
        if store_id is not None and store_id not in ID_KINDS:
            raise ValueError(f"unknown ID kind {store_id!r}")
        #: element tag / attribute name (``@…``) / ``#text``; ``None`` = *
        self.tag = tag
        self.store_id = store_id
        self.id_required = id_required
        self.store_tag = store_tag
        self.tag_required = tag_required
        self.value_formula = value_formula
        self.store_value = store_value
        self.value_required = value_required
        self.store_content = store_content
        self.name = name or ""
        self.edges: list[PatternEdge] = []
        self.parent_edge: Optional[PatternEdge] = None
        #: on a tree's top node: the tree's nodes in pre-order, kept until
        #: the next structural edit below it (see :meth:`_edited`)
        self._preorder: Optional[list[PatternNode]] = None

    # -- structure ---------------------------------------------------------

    def add_child(
        self,
        child: "PatternNode",
        axis: str = DESCENDANT,
        semantics: str = JOIN,
    ) -> "PatternNode":
        """Attach ``child`` below this node.  A child moved from another
        parent is detached from it first (:meth:`remove_edge`)."""
        edge = PatternEdge(self, child, axis, semantics)
        self.edges.append(edge)
        child.parent_edge = edge
        self._edited()
        return child

    def remove_edge(self, edge: "PatternEdge") -> None:
        """Detach one child edge (the child keeps its own subtree)."""
        self.edges.remove(edge)
        self._edited()

    def _edited(self) -> None:
        """Drop the pre-order list kept at the top of this node's tree.
        The list stays the tree's own as long as every structural edit
        goes through :meth:`add_child` or :meth:`remove_edge` and every
        node reached from the top leads back to it through
        ``parent_edge`` (which detaching moved children keeps true)."""
        top = self
        while top.parent_edge is not None:
            top = top.parent_edge.parent
        top._preorder = None

    @property
    def parent(self) -> Optional["PatternNode"]:
        return self.parent_edge.parent if self.parent_edge else None

    @property
    def children(self) -> list["PatternNode"]:
        return [edge.child for edge in self.edges]

    def subtree(self) -> list["PatternNode"]:
        """This node and every node below it, in pre-order (one linear
        walk: no generator per level)."""
        found: list[PatternNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            found.append(node)
            if node.edges:
                stack.extend([edge.child for edge in node.edges[::-1]])
        return found

    # -- properties ---------------------------------------------------------

    @property
    def is_wildcard(self) -> bool:
        return self.tag is None

    @property
    def is_attribute(self) -> bool:
        return self.tag is not None and self.tag.startswith("@")

    def stored_attrs(self) -> tuple[str, ...]:
        """The attribute labels of §4.1: ID, L (label/tag), V, C."""
        labels = []
        if self.store_id:
            labels.append("ID")
        if self.store_tag:
            labels.append("L")
        if self.store_value:
            labels.append("V")
        if self.store_content:
            labels.append("C")
        return tuple(labels)

    @property
    def is_return_node(self) -> bool:
        return bool(self.stored_attrs())

    def required_attrs(self) -> tuple[str, ...]:
        labels = []
        if self.id_required:
            labels.append("ID")
        if self.tag_required:
            labels.append("L")
        if self.value_required:
            labels.append("V")
        return tuple(labels)

    def matches_label(self, label: str) -> bool:
        """Tag-constraint test against a document/summary label."""
        if self.tag is None:
            # ``*`` matches elements and attributes but not text nodes.
            return label != "#text"
        return self.tag == label

    def copy_shallow(self) -> "PatternNode":
        return PatternNode(
            tag=self.tag,
            store_id=self.store_id,
            id_required=self.id_required,
            store_tag=self.store_tag,
            tag_required=self.tag_required,
            value_formula=self.value_formula,
            store_value=self.store_value,
            value_required=self.value_required,
            store_content=self.store_content,
            name=self.name,
        )

    def spec_string(self) -> str:
        """Node annotations in the text syntax, e.g. ``[id:s!, val=5]``."""
        specs = []
        if self.store_id:
            specs.append(f"id:{self.store_id}" + ("!" if self.id_required else ""))
        if self.store_tag:
            specs.append("tag" + ("!" if self.tag_required else ""))
        if self.store_value:
            specs.append("val" + ("!" if self.value_required else ""))
        if not self.value_formula.is_true:
            constant = self.value_formula.equality_constant()
            if constant is not None:
                specs.append(f"val={constant}")
            else:
                specs.append(f"val~{self.value_formula!r}")
        if self.store_content:
            specs.append("cont")
        return f"[{', '.join(specs)}]" if specs else ""

    def __repr__(self) -> str:
        tag = self.tag if self.tag is not None else "*"
        return f"{tag}{self.spec_string()}"


class PatternEdge:
    """An edge: axis (``/`` or ``//``) + join semantics."""

    __slots__ = ("parent", "child", "axis", "semantics")

    def __init__(self, parent: PatternNode, child: PatternNode, axis: str, semantics: str):
        if axis not in (CHILD, DESCENDANT):
            raise ValueError(f"unknown axis {axis!r}")
        if semantics not in EDGE_SEMANTICS:
            raise ValueError(f"unknown edge semantics {semantics!r}")
        self.parent = parent
        self.child = child
        self.axis = axis
        self.semantics = semantics

    @property
    def optional(self) -> bool:
        """Outer edges may lack matches without dropping the parent."""
        return self.semantics in (OUTER, NEST_OUTER)

    @property
    def nested(self) -> bool:
        return self.semantics in (NEST, NEST_OUTER)

    @property
    def semi(self) -> bool:
        return self.semantics == SEMI

    def __repr__(self) -> str:
        marker = "" if self.semantics == JOIN else f"{self.semantics}:"
        return f"{self.axis}{marker}{self.child!r}"


class Pattern:
    """A full XAM: a ⊤ root with annotated nodes and edges."""

    def __init__(self, ordered: bool = True):
        self.root = PatternNode(tag="#document", name="top")
        self.ordered = ordered

    # -- construction -------------------------------------------------------

    def finalize(self) -> "Pattern":
        """Assign default node names (``e1``, ``e2``…) in pre-order and
        validate the tree.  Idempotent; call after building."""
        nodes = self.nodes()
        taken = {node.name for node in nodes if node.name}
        counter = itertools.count(1)
        for node in nodes:
            if not node.name:
                candidate = f"e{next(counter)}"
                while candidate in taken:
                    candidate = f"e{next(counter)}"
                taken.add(candidate)
                node.name = candidate
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pattern node names: {names}")
        for node in nodes:
            if node.is_attribute and node.edges:
                raise ValueError(f"attribute node {node.name} cannot have children")
        return self

    def copy(self) -> "Pattern":
        clone = Pattern(ordered=self.ordered)

        def visit(node: PatternNode, into: PatternNode) -> None:
            for edge in node.edges:
                new_child = edge.child.copy_shallow()
                into.add_child(new_child, edge.axis, edge.semantics)
                visit(edge.child, new_child)

        visit(self.root, clone.root)
        return clone

    def map_nodes(self, transform: Callable[[PatternNode], None]) -> "Pattern":
        """Return a copy with ``transform`` applied to every non-root node."""
        clone = self.copy()
        for node in clone.nodes():
            transform(node)
        return clone

    # -- traversal ----------------------------------------------------------

    def _walk(self) -> list[PatternNode]:
        """The ⊤ root and every node in pre-order, walked once per
        structural edit (the list is shared: never mutate it)."""
        root = self.root
        found = root._preorder
        if found is None:
            found = root._preorder = root.subtree()
        return found

    def nodes(self) -> list[PatternNode]:
        """All non-⊤ nodes in pre-order."""
        return self._walk()[1:]

    def edges(self) -> list[PatternEdge]:
        collected: list[PatternEdge] = []

        def visit(node: PatternNode) -> None:
            for edge in node.edges:
                collected.append(edge)
                visit(edge.child)

        visit(self.root)
        return collected

    def node_by_name(self, name: str) -> PatternNode:
        """The first non-⊤ node in pre-order with this name.  Names are
        read live, so a rename needs no invalidation."""
        for node in self._walk()[1:]:
            if node.name == name:
                return node
        raise KeyError(name)

    def return_nodes(self) -> list[PatternNode]:
        """Nodes storing at least one attribute, in pre-order (the return
        tuple layout)."""
        return [node for node in self.nodes() if node.is_return_node]

    # -- classification -------------------------------------------------------

    @property
    def is_conjunctive(self) -> bool:
        """Only join edges, no value formulas — the §4.1 base dialect."""
        return all(edge.semantics == JOIN for edge in self.edges()) and all(
            node.value_formula.is_true for node in self.nodes()
        )

    @property
    def has_optional_edges(self) -> bool:
        return any(edge.optional for edge in self.edges())

    @property
    def has_nested_edges(self) -> bool:
        return any(edge.nested for edge in self.edges())

    @property
    def has_required_attrs(self) -> bool:
        """Whether the XAM models an index (access restrictions, §2.2.2)."""
        return any(node.required_attrs() for node in self.nodes())

    def size(self) -> int:
        return len(self.nodes())

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        """Round-trippable text syntax (see :mod:`repro.core.xam_parser`)."""

        def render(node: PatternNode) -> str:
            label = node.tag if node.tag is not None else "*"
            text = label + node.spec_string()
            if node.edges:
                text += "{" + ", ".join(render_edge(e) for e in node.edges) + "}"
            return text

        def render_edge(edge: PatternEdge) -> str:
            marker = "" if edge.semantics == JOIN else f"{edge.semantics}:"
            return f"{edge.axis}{marker}{render(edge.child)}"

        inner = ", ".join(render_edge(e) for e in self.root.edges)
        prefix = "" if self.ordered else "unordered "
        return f"{prefix}root{{{inner}}}"

    def __repr__(self) -> str:
        return f"Pattern({self.to_text()})"

    # -- structural equality ------------------------------------------------------

    def structure_key(self) -> tuple:
        """A hashable key capturing the full structure (names excluded) —
        used for plan deduplication and tests."""

        def key(node: PatternNode) -> tuple:
            return (
                node.tag,
                node.store_id,
                node.id_required,
                node.store_tag,
                node.tag_required,
                node.store_value,
                node.value_required,
                node.store_content,
                hash(node.value_formula),
                tuple(
                    (edge.axis, edge.semantics, key(edge.child)) for edge in node.edges
                ),
            )

        return (self.ordered, key(self.root))

    def same_structure(self, other: "Pattern") -> bool:
        return self.structure_key() == other.structure_key()

"""Persistent node identifier schemes (thesis Section 1.2.1 and §2.2.1).

The XAM grammar distinguishes four levels of identifier expressiveness:

``i``  simple IDs — only node identity can be decided;
``o``  order-reflecting IDs — document order is comparable (plain integers);
``s``  structural IDs — parent/ancestor relationships decidable by
       comparing IDs (the ``(pre, post, depth)`` scheme of Dietz/Grust);
``p``  navigational structural IDs — the parent's ID is *derivable* from a
       child's ID (Dewey/ORDPATH style).

:func:`label_document` walks a parsed document once and fills the ``pre``,
``post``, ``depth`` and ``dewey`` fields of every node.  :func:`id_of` then
materializes the identifier value of a node under any of the four schemes.
The value classes implement the decision procedures listed in §1.2.1
(descendant/child/ancestor/parent/precedes/follows) so that structural join
operators can work on identifier values alone, never touching the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Union

from .node import Document, XMLNode

__all__ = [
    "SIMPLE",
    "ORDERED",
    "STRUCTURAL",
    "PARENT_DERIVING",
    "ID_KINDS",
    "StructuralID",
    "DeweyID",
    "NodeID",
    "label_document",
    "id_of",
    "ID_GETTERS",
    "kind_supports",
    "strongest_common_kind",
    "is_ancestor_id",
    "is_parent_id",
    "prepost_plane",
]

SIMPLE = "i"
ORDERED = "o"
STRUCTURAL = "s"
PARENT_DERIVING = "p"

#: All identifier kinds, weakest first.  Later kinds subsume earlier ones.
ID_KINDS = (SIMPLE, ORDERED, STRUCTURAL, PARENT_DERIVING)

_CAPABILITIES = {
    SIMPLE: {"identity"},
    ORDERED: {"identity", "order"},
    STRUCTURAL: {"identity", "order", "structural"},
    PARENT_DERIVING: {"identity", "order", "structural", "parent-derivation"},
}


def kind_supports(kind: str, capability: str) -> bool:
    """Whether an ID kind offers a capability.

    Capabilities: ``identity``, ``order``, ``structural``,
    ``parent-derivation``.
    """
    try:
        return capability in _CAPABILITIES[kind]
    except KeyError:
        raise ValueError(f"unknown ID kind {kind!r}") from None


def strongest_common_kind(kind_a: str, kind_b: str) -> str:
    """The strongest scheme both arguments support (meet in the lattice)."""
    index = min(ID_KINDS.index(kind_a), ID_KINDS.index(kind_b))
    return ID_KINDS[index]


@dataclass(frozen=True, order=True)
class StructuralID:
    """A ``(pre, post, depth)`` identifier (Dietz labeling).

    Ordering on the dataclass is by ``pre`` first, i.e. document order.
    """

    pre: int
    post: int
    depth: int

    def is_ancestor_of(self, other: "StructuralID") -> bool:
        return self.pre < other.pre and other.post < self.post

    def is_parent_of(self, other: "StructuralID") -> bool:
        return self.is_ancestor_of(other) and self.depth + 1 == other.depth

    def is_descendant_of(self, other: "StructuralID") -> bool:
        return other.is_ancestor_of(self)

    def precedes(self, other: "StructuralID") -> bool:
        """True when this node precedes ``other`` in document order and is
        not one of its ancestors (the pre/post-plane "preceding" quarter)."""
        return self.post < other.pre

    def follows(self, other: "StructuralID") -> bool:
        return other.post < self.pre


@dataclass(frozen=True)
class DeweyID:
    """A Dewey identifier: the vector of child ordinals from the root.

    Supports everything :class:`StructuralID` does *plus* deriving ancestor
    identifiers directly (the ``p`` capability exploited by the rewriting
    algorithm in §5.2 to reconstruct parent IDs not stored in any view).
    """

    path: tuple[int, ...]

    def parent(self) -> "DeweyID":
        if not self.path:
            raise ValueError("the root Dewey ID has no parent")
        return DeweyID(self.path[:-1])

    def ancestor_at_depth(self, depth: int) -> "DeweyID":
        """The ancestor identifier ``depth`` levels below the root
        (``depth`` counts path components, so ``ancestor_at_depth(1)`` is
        the top element)."""
        if depth < 0 or depth > len(self.path):
            raise ValueError(f"no ancestor at depth {depth}")
        return DeweyID(self.path[:depth])

    @property
    def depth(self) -> int:
        return len(self.path)

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        return (
            len(self.path) < len(other.path)
            and other.path[: len(self.path)] == self.path
        )

    def is_parent_of(self, other: "DeweyID") -> bool:
        return len(self.path) + 1 == len(other.path) and self.is_ancestor_of(other)

    def is_descendant_of(self, other: "DeweyID") -> bool:
        return other.is_ancestor_of(self)

    def __lt__(self, other: "DeweyID") -> bool:
        return self.path < other.path


NodeID = Union[int, StructuralID, DeweyID]


def label_document(doc: Document) -> Document:
    """Assign ``pre``/``post``/``depth``/``dewey`` labels to every node.

    The document node gets ``pre = post_max + 1``?  No — following Fig. 1.1
    the document node is ignored for labeling purposes: the top element has
    ``pre = 1`` and ``depth = 1``; attribute and text nodes participate in
    the traversal so that every node owns a unique label.  Drops the stale
    tag index (:meth:`Document.relabelled`).  Returns ``doc`` for chaining.
    """
    doc.relabelled()
    pre_counter = 0
    post_counter = 0

    def visit(node: XMLNode, depth: int, dewey: tuple[int, ...]) -> None:
        nonlocal pre_counter, post_counter
        pre_counter += 1
        node.pre = pre_counter
        node.depth = depth
        node.dewey = dewey
        for ordinal, child in enumerate(node.children, start=1):
            visit(child, depth + 1, dewey + (ordinal,))
        post_counter += 1
        node.post = post_counter

    doc.root.pre = 0
    doc.root.post = 2 * doc.count() + 1
    doc.root.depth = 0
    doc.root.dewey = ()
    for ordinal, child in enumerate(doc.root.children, start=1):
        visit(child, 1, (ordinal,))
    return doc


def _require_labels(node: XMLNode) -> None:
    if node.pre is None:
        raise ValueError(
            "node has no identifier labels; call label_document() after parsing"
        )


#: Per scheme, the ID of a labelled node; simple IDs reuse the pre number
#: (unique and deterministic), order IDs are exactly the pre number.
ID_GETTERS: dict[str, Callable[[XMLNode], NodeID]] = {
    SIMPLE: attrgetter("pre"),
    ORDERED: attrgetter("pre"),
    STRUCTURAL: lambda node: StructuralID(node.pre, node.post, node.depth),  # type: ignore[arg-type]
    PARENT_DERIVING: lambda node: DeweyID(node.dewey),  # type: ignore[arg-type]
}


def id_of(node: XMLNode, kind: str = STRUCTURAL) -> NodeID:
    """Materialize the identifier of ``node`` under scheme ``kind``."""
    _require_labels(node)
    if kind not in ID_GETTERS:
        raise ValueError(f"unknown ID kind {kind!r}")
    return ID_GETTERS[kind](node)


def is_ancestor_id(id_a: NodeID, id_b: NodeID) -> bool:
    """``id_a ≺≺ id_b`` — decidable only for structural identifier values."""
    if isinstance(id_a, StructuralID) and isinstance(id_b, StructuralID):
        return id_a.is_ancestor_of(id_b)
    if isinstance(id_a, DeweyID) and isinstance(id_b, DeweyID):
        return id_a.is_ancestor_of(id_b)
    raise TypeError(
        "ancestor test requires structural identifiers on both sides, got "
        f"{type(id_a).__name__} and {type(id_b).__name__}"
    )


def is_parent_id(id_a: NodeID, id_b: NodeID) -> bool:
    """``id_a ≺ id_b`` — decidable only for structural identifier values."""
    if isinstance(id_a, StructuralID) and isinstance(id_b, StructuralID):
        return id_a.is_parent_of(id_b)
    if isinstance(id_a, DeweyID) and isinstance(id_b, DeweyID):
        return id_a.is_parent_of(id_b)
    raise TypeError(
        "parent test requires structural identifiers on both sides, got "
        f"{type(id_a).__name__} and {type(id_b).__name__}"
    )


def prepost_plane(doc: Document) -> list[tuple[int, int, str]]:
    """The pre/post plane of Example 1.2.1: ``(pre, post, label)`` for every
    element, usable to visualize the ancestor/descendant quarters."""
    return [(n.pre, n.post, n.label) for n in doc.elements()]  # type: ignore[misc]

"""Tree data model for XML documents (thesis Section 1.1).

A document is a tree ``(N, E)`` where ``N = N_d ∪ N_e ∪ N_a ∪ N_t``:
exactly one *document* node (the tree root, parent of the top element),
element nodes, attribute nodes, and text nodes.  Every node has

* an identity (its position in the tree, materialized by the identifier
  schemes of :mod:`repro.xmldata.ids`),
* a label (element tag, ``@name`` for attributes, ``#text`` for text nodes),
* a value — for an element, the concatenation of its text descendants in
  document order (the ``text()`` semantics of Section 1.1); for an attribute
  or text node, the literal string,
* a content — the serialized subtree rooted at the node.

The model is deliberately independent of any identifier scheme: schemes are
assigned by :func:`repro.xmldata.ids.label_document` after parsing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterator, Optional

__all__ = ["XMLNode", "Document", "DOCUMENT", "ELEMENT", "ATTRIBUTE", "TEXT"]

DOCUMENT = "document"
ELEMENT = "element"
ATTRIBUTE = "attribute"
TEXT = "text"

_KINDS = (DOCUMENT, ELEMENT, ATTRIBUTE, TEXT)


class XMLNode:
    """A single node of an XML tree.

    Attributes assigned during construction:

    ``kind``
        One of ``document``, ``element``, ``attribute``, ``text``.
    ``label``
        The element tag; ``@name`` for attributes; ``#text`` for text nodes;
        ``#document`` for the document node.
    ``text``
        The literal string carried by attribute and text nodes (``None``
        elsewhere).
    ``children`` / ``parent``
        Tree structure.  Attribute nodes precede element/text children in
        the child list, mirroring serialized order.

    Identifier fields filled by :func:`repro.xmldata.ids.label_document`:
    ``pre``, ``post``, ``depth``, ``dewey``.
    """

    __slots__ = (
        "kind",
        "label",
        "text",
        "children",
        "parent",
        "pre",
        "post",
        "depth",
        "dewey",
    )

    def __init__(self, kind: str, label: str, text: Optional[str] = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown node kind: {kind!r}")
        self.kind = kind
        self.label = label
        self.text = text
        self.children: list[XMLNode] = []
        self.parent: Optional[XMLNode] = None
        self.pre: Optional[int] = None
        self.post: Optional[int] = None
        self.depth: Optional[int] = None
        self.dewey: Optional[tuple[int, ...]] = None

    # -- construction -----------------------------------------------------

    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child`` as the last child of this node and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def add_element(self, tag: str) -> "XMLNode":
        """Create, attach and return an element child."""
        return self.append(XMLNode(ELEMENT, tag))

    def add_attribute(self, name: str, value: str) -> "XMLNode":
        """Create, attach and return an attribute child named ``@name``."""
        label = name if name.startswith("@") else "@" + name
        return self.append(XMLNode(ATTRIBUTE, label, value))

    def add_text(self, data: str) -> "XMLNode":
        """Create, attach and return a text child."""
        return self.append(XMLNode(TEXT, "#text", data))

    # -- navigation --------------------------------------------------------

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """All nodes of the subtree rooted here, in document (pre) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def element_children(self) -> list["XMLNode"]:
        return [c for c in self.children if c.kind == ELEMENT]

    def attribute_children(self) -> list["XMLNode"]:
        return [c for c in self.children if c.kind == ATTRIBUTE]

    def ancestors(self) -> Iterator["XMLNode"]:
        """Proper ancestors, nearest first, up to and including the
        document node."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "XMLNode") -> bool:
        """Structural test via tree walking (identifier-free)."""
        return any(anc is self for anc in other.ancestors())

    def rooted_path(self) -> tuple[str, ...]:
        """Labels from the top element down to this node (document node
        excluded), e.g. ``('site', 'people', 'person')``."""
        labels: list[str] = []
        node: Optional[XMLNode] = self
        while node is not None and node.kind != DOCUMENT:
            labels.append(node.label)
            node = node.parent
        return tuple(reversed(labels))

    # -- value and content (Section 1.1) ------------------------------------

    @property
    def value(self) -> Optional[str]:
        """The node value: ``text()`` semantics.

        Attribute/text nodes carry their literal string.  For an element,
        the values of all text descendants are concatenated in document
        order (losing their count and relative placement, exactly as the
        thesis model does).  Elements without text descendants have value
        ``None`` (⊥).
        """
        if self.kind in (ATTRIBUTE, TEXT):
            return self.text
        pieces = [n.text for n in self.iter_subtree() if n.kind == TEXT and n.text]
        if not pieces:
            return None
        return "".join(pieces)

    @property
    def content(self) -> str:
        """The serialized subtree rooted at this node."""
        from .serialize import serialize

        return serialize(self)

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f" pre={self.pre}" if self.pre is not None else ""
        return f"<{self.kind} {self.label!r}{ident}>"


class Document:
    """An XML document: the document node plus lookup helpers.

    ``doc.root`` is the document node (the ⊤ of XAM patterns); ``doc.top``
    is its unique element child, which the thesis calls the document's root
    element.
    """

    def __init__(self, document_node: XMLNode, name: str = "doc.xml"):
        if document_node.kind != DOCUMENT:
            raise ValueError("Document must wrap a document node")
        elements = document_node.element_children()
        if len(elements) != 1:
            raise ValueError(
                f"document node must have exactly one element child, got {len(elements)}"
            )
        self.root = document_node
        self.name = name
        self._index: Optional[TagIndex] = None

    @property
    def index(self) -> "TagIndex":
        """The :class:`TagIndex` of the current labels, built on first use.
        It holds every node, so it lives on the document and dies with it."""
        if self._index is None:
            self._index = TagIndex(self.root)
        return self._index

    def relabelled(self) -> None:
        """Drop the stale index with its value and content memos
        (``label_document``, the writer of ``pre``, calls this)."""
        self._index = None

    @classmethod
    def from_top_element(cls, top: XMLNode, name: str = "doc.xml") -> "Document":
        """Wrap an element tree in a fresh document node."""
        doc_node = XMLNode(DOCUMENT, "#document")
        doc_node.append(top)
        return cls(doc_node, name)

    @property
    def top(self) -> XMLNode:
        return self.root.element_children()[0]

    def nodes(self) -> Iterator[XMLNode]:
        """All nodes except the document node, in document order."""
        it = self.root.iter_subtree()
        next(it)  # skip the document node itself
        return it

    def elements(self) -> Iterator[XMLNode]:
        return (n for n in self.nodes() if n.kind == ELEMENT)

    def attributes(self) -> Iterator[XMLNode]:
        return (n for n in self.nodes() if n.kind == ATTRIBUTE)

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(1 for _ in self.nodes())
        return sum(1 for n in self.nodes() if n.kind == kind)

    def find_by_pre(self, pre: int) -> Optional[XMLNode]:
        nodes = self.index.nodes
        return nodes[pre] if 0 < pre < len(nodes) else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document {self.name!r} top={self.top.label!r}>"


class TagIndex:
    """The XISS element index (tag → node IDs) over the XPath-Accelerator
    pre/post plane (thesis §2.3.3, Example 1.2.1) of one labelled document:
    ``nodes[p]`` is the node with ``pre == p`` (the document node is
    ``nodes[0]``) and per label a sorted ``array('i')`` holds its pre
    numbers.  Node ``v``'s proper descendants are exactly the pre numbers
    in ``(v.pre, v.post + v.depth − 1]``, so a ``//label`` step is two
    bisects and a slice, and a label the document lacks costs nothing.

    Two memos keyed by ``pre`` hold the element values and contents read
    so far (:meth:`value`, :meth:`content`): node data computed once per
    labelled document, dropped with the index when the tree is
    relabelled.  Two threads missing on one node both compute it and
    store the same string, so the unlocked fill is harmless."""

    __slots__ = ("nodes", "_pres", "_values", "_contents")

    def __init__(self, root: XMLNode):
        self.nodes: list[XMLNode] = []
        self._pres: dict[str, array] = {}
        self._values: dict[int, Optional[str]] = {}
        self._contents: dict[int, str] = {}
        for node in root.iter_subtree():
            if node.pre != len(self.nodes):
                raise ValueError(
                    "document labels are missing or stale; call "
                    "label_document() after parsing or changing the tree"
                )
            self.nodes.append(node)
            self._pres.setdefault(node.label, array("i")).append(node.pre)

    def descendants(self, node: XMLNode, label: Optional[str] = None) -> list[XMLNode]:
        """Proper descendants of ``node`` in document order — only those
        labelled ``label`` when one is given."""
        last = node.post + node.depth - 1
        if label is None:
            return self.nodes[node.pre + 1 : last + 1]
        pres, nodes = self._pres.get(label, ()), self.nodes
        window = pres[bisect_right(pres, node.pre) : bisect_right(pres, last)]
        return [nodes[pre] for pre in window]

    def value(self, node: XMLNode) -> Optional[str]:
        """``node.value``, an element's built once from its ``#text``
        window (⊥ when it holds no text)."""
        if node.kind == ATTRIBUTE or node.kind == TEXT:
            return node.text
        try:
            return self._values[node.pre]
        except KeyError:
            texts = [t.text for t in self.descendants(node, "#text") if t.text]
            value = self._values[node.pre] = "".join(texts) or None
            return value

    def content(self, node: XMLNode) -> str:
        """``node.content``, serialised once."""
        try:
            return self._contents[node.pre]
        except KeyError:
            content = self._contents[node.pre] = node.content
            return content

"""Serialization of XML trees.

``serialize(node)`` produces the *content* of a node in the thesis sense:
the serialized labels and values of the subtree rooted at the node, in a
top-down left-to-right traversal.  Attribute nodes serialize as
``name="value"`` inside their parent's begin tag.
"""

from __future__ import annotations

from .node import ATTRIBUTE, DOCUMENT, TEXT, XMLNode

__all__ = ["serialize", "escape_text", "escape_attribute"]


def escape_text(data: str) -> str:
    if "&" in data or "<" in data or ">" in data:
        return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return data


def escape_attribute(data: str) -> str:
    data = escape_text(data)
    return data.replace('"', "&quot;") if '"' in data else data


def serialize(node: XMLNode) -> str:
    """Serialize the subtree rooted at ``node``.

    * document nodes serialize as their single element child;
    * element nodes serialize as ``<tag a="v">children</tag>`` (or the
      self-closing ``<tag a="v"/>`` when there is no non-attribute child);
    * attribute nodes serialize as ``name="value"`` (used when a XAM stores
      the *content* of an attribute node);
    * text nodes serialize as their escaped character data.
    """
    parts: list[str] = []
    _serialize_into(node, parts)
    return "".join(parts)


def _attribute(node: XMLNode) -> str:
    return f'{node.label.lstrip("@")}="{escape_attribute(node.text or "")}"'


def _serialize_into(node: XMLNode, parts: list[str]) -> None:
    kind = node.kind
    if kind == TEXT:
        parts.append(escape_text(node.text or ""))
        return
    if kind == ATTRIBUTE:
        parts.append(_attribute(node))
        return
    if kind == DOCUMENT:
        for child in node.children:
            _serialize_into(child, parts)
        return
    # one pass over the children: attributes extend the begin tag, kept in
    # a reserved slot so they come first wherever they sit; text inline
    slot = len(parts)
    parts.append("")
    head = "<" + node.label
    empty = True
    for child in node.children:
        kind = child.kind
        if kind == ATTRIBUTE:
            head += " " + _attribute(child)
        elif kind == TEXT:
            empty = False
            parts.append(escape_text(child.text or ""))
        else:
            empty = False
            _serialize_into(child, parts)
    if empty:
        parts[slot] = head + "/>"
    else:
        parts[slot] = head + ">"
        parts.append(f"</{node.label}>")

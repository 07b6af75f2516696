"""Tests for the XML tree data model (thesis §1.1)."""

import sys
import threading

import pytest

from repro.workloads import generate_dblp, generate_xmark
from repro.xmldata import Document, XMLNode, label_document, load
from repro.xmldata.node import ATTRIBUTE, DOCUMENT, ELEMENT, TEXT


def test_node_kinds_are_validated():
    with pytest.raises(ValueError):
        XMLNode("widget", "a")


def test_element_children_and_attributes():
    root = XMLNode(ELEMENT, "book")
    root.add_attribute("year", "1999")
    root.add_element("title").add_text("Data on the Web")
    assert [c.label for c in root.attribute_children()] == ["@year"]
    assert [c.label for c in root.element_children()] == ["title"]


def test_attribute_label_gets_at_prefix():
    root = XMLNode(ELEMENT, "book")
    attr = root.add_attribute("year", "1999")
    assert attr.label == "@year"
    already = root.add_attribute("@id", "b1")
    assert already.label == "@id"


def test_value_of_attribute_and_text_nodes():
    root = XMLNode(ELEMENT, "a")
    attr = root.add_attribute("x", "v")
    text = root.add_text("hello")
    assert attr.value == "v"
    assert text.value == "hello"


def test_element_value_concatenates_text_descendants():
    doc = load("<a><b>one</b><c><d>two</d></c></a>")
    assert doc.top.value == "onetwo"


def test_element_without_text_has_null_value():
    doc = load("<a><b/></a>")
    assert doc.top.element_children()[0].value is None


def test_content_serializes_subtree():
    doc = load('<a><b x="1">t</b></a>')
    b = doc.top.element_children()[0]
    assert b.content == '<b x="1">t</b>'


def test_iter_subtree_is_preorder():
    doc = load("<a><b><c/></b><d/></a>")
    labels = [n.label for n in doc.top.iter_subtree()]
    assert labels == ["a", "b", "c", "d"]


def test_ancestors_and_is_ancestor_of():
    doc = load("<a><b><c/></b></a>")
    a = doc.top
    c = a.element_children()[0].element_children()[0]
    assert [n.label for n in c.ancestors()] == ["b", "a", "#document"]
    assert a.is_ancestor_of(c)
    assert not c.is_ancestor_of(a)


def test_rooted_path():
    doc = load("<a><b><c/></b></a>")
    c = doc.top.element_children()[0].element_children()[0]
    assert c.rooted_path() == ("a", "b", "c")


def test_document_requires_single_top_element():
    node = XMLNode(DOCUMENT, "#document")
    with pytest.raises(ValueError):
        Document(node)
    node.add_element("a")
    node.add_element("b")
    with pytest.raises(ValueError):
        Document(node)


def test_document_counts(bib_doc):
    assert bib_doc.count(ELEMENT) == 11
    assert bib_doc.count(ATTRIBUTE) == 2
    assert bib_doc.count(TEXT) == 7
    assert bib_doc.count() == 20


def test_document_from_top_element():
    top = XMLNode(ELEMENT, "a")
    doc = Document.from_top_element(top, "x.xml")
    assert doc.top is top
    assert doc.name == "x.xml"


def test_nodes_excludes_document_node(bib_doc):
    assert all(n.kind != DOCUMENT for n in bib_doc.nodes())


def test_find_by_pre(bib_doc):
    assert bib_doc.find_by_pre(1).label == "library"
    assert bib_doc.find_by_pre(10**9) is None


@pytest.mark.parametrize(
    "make, rich",
    [(lambda: generate_xmark(scale=2, seed=0), True), (lambda: generate_dblp(scale=2, seed=1), False)],
    ids=["xmark", "dblp"],
)
def test_index_memos_equal_the_node_definitions(make, rich):
    doc = make()
    nodes = list(doc.root.iter_subtree())
    for _ in range(2):  # the second pass reads the memos
        for node in nodes:
            assert doc.index.value(node) == node.value
            assert doc.index.content(node) == node.content
    if rich:  # XMark's rich text holds elements without text and mixed content
        elements = [n for n in nodes if n.kind == ELEMENT]
        assert any(n.value is None for n in elements)
        assert any({c.kind for c in n.children} >= {ELEMENT, TEXT} for n in elements)


def test_index_memos_serve_mixed_content_and_null_values():
    doc = load('<a>x<b>y<c/>z</b><d k="v"/>w</a>')
    b, d = doc.top.element_children()
    assert doc.index.value(doc.top) == "xyzw"
    assert doc.index.value(b) == "yz"
    assert doc.index.value(d) is None and d.value is None
    assert doc.index.value(d.attribute_children()[0]) == "v"
    assert doc.index.content(b) == "<b>y<c/>z</b>"


def test_relabelling_drops_the_memos():
    doc = load("<a><b>old</b></a>")
    b = doc.top.element_children()[0]
    assert (doc.index.value(b), doc.index.content(b)) == ("old", "<b>old</b>")
    b.children[0].text = "new"
    label_document(doc)
    assert (doc.index.value(b), doc.index.content(b)) == ("new", "<b>new</b>")
    assert doc.index.value(doc.top) == "new"


def test_threads_filling_the_memos_read_the_definitions():
    doc = generate_xmark(scale=1, seed=0)
    nodes = list(doc.root.iter_subtree())
    expected = [(n.value, n.content) for n in nodes]
    index, results = doc.index, {}

    def read(worker):
        order = nodes[worker::2] + nodes  # workers race on every node
        results[worker] = {id(n): (index.value(n), index.content(n)) for n in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for worker in range(6):
        assert [results[worker][id(n)] for n in nodes] == expected

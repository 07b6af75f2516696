"""Tests for the algebraic XAM semantics (§2.2.2): tag-derived collections,
the bottom-up structural-join construction, agreement with the embedding
semantics, and restricted (index) XAMs with binding tuples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.algebra import NestedTuple
from repro.core import (
    evaluate_algebraic,
    evaluate_pattern,
    evaluate_with_bindings,
    parse_pattern,
    tag_derived_collection,
    tuple_intersection,
)
from repro.core.embedding import _combine_edge, _node_attrs, admits_xml_node
from repro.core.semantics import binding_signature, build_semantics_plan
from repro.core.xam import CHILD
from repro.xmldata import load

from tests.test_properties_substrates import _random_document


class TestTagDerivedCollections:
    def test_one_tuple_per_matching_element(self, bib_doc):
        books = tag_derived_collection(bib_doc, "book")
        assert len(books) == 2
        assert books[0]["Tag"] == "book"
        assert "Data on the Web" in books[0]["Cont"]

    def test_star_collection(self, bib_doc):
        everything = tag_derived_collection(bib_doc)
        assert len(everything) == 11  # all elements

    def test_attribute_collection(self, bib_doc):
        years = tag_derived_collection(bib_doc, "@year", attributes=True)
        assert sorted(t["Val"] for t in years) == ["1999", "2004"]

    def test_document_order(self, bib_doc):
        ids = [t["ID"] for t in tag_derived_collection(bib_doc)]
        assert ids == sorted(ids)


PATTERNS_FOR_AGREEMENT = [
    "//book[id:s]",
    "/library[id:s]{//author[val]}",
    "//book[id:s, tag]{/title[val]}",
    "//book[id:s]{/s:@year}",
    "//book[id:s]{/o:@year[val], /title[val]}",
    "//book[id:s]{/nj:author[id:s, val]}",
    "//book[id:s]{/no:author[val]}",
    '//book{/title[val="Data on the Web"]}',
    '//*[tag]{/title[val="The Syntactic Web"]}',
    "//book[cont]",
    "//phdthesis[id:o]{/author[val]}",
    "//book{/title{/#text[val]}}",
]


class TestAlgebraicVsEmbedding:
    @pytest.mark.parametrize("text", PATTERNS_FOR_AGREEMENT)
    def test_agreement_on_bib(self, bib_doc, text):
        pattern = parse_pattern(text)
        algebraic = sorted(t.freeze() for t in evaluate_algebraic(pattern, bib_doc))
        embedding = sorted(t.freeze() for t in evaluate_pattern(pattern, bib_doc))
        assert algebraic == embedding

    def test_agreement_on_auction(self, auction_doc):
        pattern = parse_pattern(
            "//item[id:s]{/s:mail, /no:name[val], //no:listitem[id:s]{/no:keyword[cont]}}"
        )
        algebraic = sorted(t.freeze() for t in evaluate_algebraic(pattern, auction_doc))
        embedding = sorted(t.freeze() for t in evaluate_pattern(pattern, auction_doc))
        assert algebraic == embedding

    @pytest.mark.parametrize(
        "text",
        ["/library[id:s]{/o:zz[id:s]}", "/library[id:s]{/o:zz[id:s]{/nj:title[val]}}"],
    )
    def test_outer_padding_of_an_empty_collection(self, bib_doc, text):
        # no zz in the document: ⊥ for its stored attributes, [] for the
        # collection nested below it
        pattern = parse_pattern(text)
        algebraic = [t.freeze() for t in evaluate_algebraic(pattern, bib_doc)]
        assert algebraic == [t.freeze() for t in evaluate_pattern(pattern, bib_doc)]

    def test_plan_shape_mirrors_pattern(self, bib_doc):
        pattern = parse_pattern("//book{/title, /author}")
        plan = build_semantics_plan(pattern, bib_doc)
        # a structural join per pattern edge (incl. the root edge)
        assert plan.join_count() == 3


class TestRestrictedXAMs:
    def test_lookup_hit(self, bib_doc):
        pattern = parse_pattern("//book[id:s]{/title[val!]}")
        binding = NestedTuple({"e2.V": "Data on the Web"})
        out = evaluate_with_bindings(pattern, bib_doc, [binding])
        assert len(out) == 1
        assert out[0]["e2.V"] == "Data on the Web"

    def test_lookup_miss(self, bib_doc):
        pattern = parse_pattern("//book[id:s]{/title[val!]}")
        binding = NestedTuple({"e2.V": "No Such Book"})
        assert evaluate_with_bindings(pattern, bib_doc, [binding]) == []

    def test_multiple_bindings_union_in_order(self, bib_doc):
        pattern = parse_pattern("//book[id:s]{/title[val!]}")
        bindings = [
            NestedTuple({"e2.V": "The Syntactic Web"}),
            NestedTuple({"e2.V": "Data on the Web"}),
        ]
        out = evaluate_with_bindings(pattern, bib_doc, bindings)
        assert [t["e2.V"] for t in out] == [
            "The Syntactic Web",
            "Data on the Web",
        ]

    def test_tag_binding(self, bib_doc):
        pattern = parse_pattern("//*[id:s, tag!]{/title[val]}")
        binding = NestedTuple({"e1.L": "phdthesis"})
        out = evaluate_with_bindings(pattern, bib_doc, [binding])
        assert len(out) == 1 and out[0]["e2.V"] == "The Web: next generation"

    def test_binding_signature(self):
        pattern = parse_pattern("//*[id:s, tag!]{/title[val!], /author[val]}")
        assert binding_signature(pattern) == ["e1.L", "e2.V"]


class TestTupleIntersection:
    def test_atomic_disagreement_is_none(self):
        t = NestedTuple({"x": 1, "y": 2})
        assert tuple_intersection(t, NestedTuple({"x": 9})) is None

    def test_atomic_agreement_copies_rest(self):
        t = NestedTuple({"x": 1, "y": 2})
        out = tuple_intersection(t, NestedTuple({"x": 1}))
        assert out.attrs == {"x": 1, "y": 2}

    def test_collection_intersection(self):
        # the thesis' Algorithm 1 walkthrough: authors Abiteboul/Suciu vs
        # binding Suciu/Buneman keeps exactly Suciu
        t = NestedTuple(
            {
                "ID": 2,
                "Tag": "book",
                "authors": [NestedTuple({"V": "Abiteboul"}), NestedTuple({"V": "Suciu"})],
            }
        )
        b = NestedTuple(
            {
                "ID": 2,
                "authors": [NestedTuple({"V": "Suciu"}), NestedTuple({"V": "Buneman"})],
            }
        )
        out = tuple_intersection(t, b)
        assert [m["V"] for m in out["authors"]] == ["Suciu"]
        assert out["Tag"] == "book"

    def test_empty_collection_intersection_is_none(self):
        t = NestedTuple({"authors": [NestedTuple({"V": "A"})]})
        b = NestedTuple({"authors": [NestedTuple({"V": "B"})]})
        assert tuple_intersection(t, b) is None

    def test_binding_attr_missing_from_tuple_raises(self):
        with pytest.raises(ValueError):
            tuple_intersection(NestedTuple({"x": 1}), NestedTuple({"z": 1}))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tuple_intersection(
                NestedTuple({"x": [NestedTuple({"v": 1})]}), NestedTuple({"x": 1})
            )


# -- property test: the two semantics agree on random patterns/documents ----

_TAGS = ["book", "title", "author", "phdthesis"]


@st.composite
def random_bib_patterns(draw):
    """Random small XAMs over the bib vocabulary."""

    def spec():
        return draw(
            st.sampled_from(["[id:s]", "[val]", "[tag]", "[id:s, val]", ""])
        )

    def edge():
        axis = draw(st.sampled_from(["/", "//"]))
        semantics = draw(st.sampled_from(["", "o:", "s:", "nj:", "no:"]))
        return axis + semantics

    depth2 = draw(st.integers(min_value=0, max_value=2))
    children = ", ".join(
        f"{edge()}{draw(st.sampled_from(_TAGS))}{spec()}" for _ in range(depth2)
    )
    body = f"//{draw(st.sampled_from(_TAGS))}{spec()}"
    if children:
        body += "{" + children + "}"
    return body


#: the labels of ``_random_document`` plus one no document carries
_ELEMENT_STEPS = ["r", "t0", "t1", "t2", "absent", "*"]
_LEAF_STEPS = ["@a", "#text"]


@st.composite
def random_tree_patterns(draw):
    """Random XAMs over ``_random_document``'s vocabulary: ``*``,
    attribute and text steps, an absent label, every edge semantics, and
    chains deep enough to anchor steps at leaves and deep nodes."""

    def node(height):
        label = draw(st.sampled_from(_ELEMENT_STEPS + _LEAF_STEPS))
        text = label + draw(
            st.sampled_from(["[id:s]", "[val]", "[tag]", "[id:s, val]", "[cont]", ""])
        )
        if height == 0 or label in _LEAF_STEPS:
            return text
        children = [
            draw(st.sampled_from(["/", "//"]))
            + draw(st.sampled_from(["", "o:", "s:", "nj:", "no:"]))
            + node(height - 1)
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
        return text + ("{" + ", ".join(children) + "}" if children else "")

    return draw(st.sampled_from(["/", "//"])) + node(3)


@st.composite
def agreement_cases(draw):
    """(documents, pattern text): the bib document with a bib pattern, or
    one to three random labelled documents with a random tree pattern."""
    if draw(st.booleans()):
        doc = load(
            "<library><book year='1999'><title>T1</title><author>A</author>"
            "<author>B</author></book><book><title>T2</title></book>"
            "<phdthesis year='2004'><title>T3</title><author>C</author></phdthesis></library>"
        )
        return [doc], draw(random_bib_patterns())
    docs = [
        _random_document(
            random.Random(draw(st.integers(0, 10_000))),
            draw(st.integers(0, 30)),
            leaves=True,
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return docs, draw(random_tree_patterns())


def _walk_reference(pattern, doc):
    """The reference for ``evaluate_pattern``'s ordered output: the same
    tuple construction, with every ``//`` step walking the anchor's whole
    subtree instead of reading the tag index."""

    def at(pattern_node, xml_node):
        if not admits_xml_node(pattern_node, xml_node):
            return None
        tuples = [NestedTuple(_node_attrs(pattern_node, xml_node))]
        for edge in pattern_node.edges:
            if edge.axis == CHILD:
                below = xml_node.children
            else:
                below = [n for c in xml_node.children for n in c.iter_subtree()]
            found = [t for n in below for t in at(edge.child, n) or []]
            tuples = _combine_edge(tuples, found, edge)
            if tuples is None:
                return None
        return tuples

    unique = {}
    for t in at(pattern.root, doc.root) or []:
        unique.setdefault(t.freeze(), t)
    return list(unique)


@settings(max_examples=100, deadline=None)
@given(agreement_cases())
def test_property_semantics_agree(case):
    docs, text = case
    pattern = parse_pattern(text)
    reference = []
    for doc in docs:
        algebraic = [t.freeze() for t in evaluate_algebraic(pattern, doc)]
        indexed = [t.freeze() for t in evaluate_pattern(pattern, doc)]
        assert sorted(algebraic, key=repr) == sorted(indexed, key=repr)
        assert indexed == _walk_reference(pattern, doc)
        reference.extend(indexed)
    # the same ordered list through a store: a view over all documents,
    # and the relation and per-document segments of a sharded copy
    db = Database()
    db.add_documents(docs)
    db.add_view("v", pattern)
    assert [t.freeze() for t in db.store["v"]] == reference
    with db.shard(2) as sharded:
        assert [t.freeze() for t in sharded.store["v"]] == reference
        segments = sharded._segments["v"]
        joined = [t.freeze() for seq in sorted(segments) for t in segments[seq]]
        assert joined == reference

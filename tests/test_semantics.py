"""Tests for the algebraic XAM semantics (§2.2.2): tag-derived collections,
the bottom-up structural-join construction, agreement with the embedding
semantics, and restricted (index) XAMs with binding tuples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.algebra import NULL, NestedTuple
from repro.core import (
    evaluate_algebraic,
    evaluate_pattern,
    evaluate_with_bindings,
    parse_pattern,
    tag_derived_collection,
    tuple_intersection,
)
from repro.core.embedding import admits_xml_node
from repro.core.semantics import binding_signature, build_semantics_plan
from repro.core.xam import CHILD, JOIN, NEST, NEST_OUTER, OUTER, SEMI
from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_dblp, generate_xmark
from repro.xmldata import load
from repro.xmldata.ids import id_of

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
#: value predicates over ``_random_document``'s text vocabulary: text
#: ``x0``/``x1`` (element values concatenate them), ``@a`` values 0–2
_VALUE_PREDICATES = ['val="x0"', 'val="x1"', 'val="x0x1"', "val=1", "val>=1"]


@st.composite
def random_specs(draw):
    """A spec list: an ID under any scheme, stored label/value/content,
    and a value predicate, each independently present or not."""
    specs = [draw(st.sampled_from(["", "id", "id:o", "id:s", "id:p"]))]
    specs += draw(st.lists(st.sampled_from(["tag", "val", "cont"]), max_size=2, unique=True))
    specs.append(draw(st.sampled_from([""] * 3 + _VALUE_PREDICATES)))
    specs = [spec for spec in specs if spec]
    return f"[{', '.join(specs)}]" if specs else ""


@st.composite
def random_tree_patterns(draw):
    """Random XAMs over ``_random_document``'s vocabulary: ``*``,
    attribute and text steps, an absent label, every edge semantics and ID
    scheme, value predicates, and chains deep enough to anchor steps at
    leaves and deep nodes."""

    def node(height):
        label = draw(st.sampled_from(_ELEMENT_STEPS + _LEAF_STEPS))
        text = label + draw(random_specs())
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


def _node_attrs(pattern_node, xml_node):
    attrs = {}
    if pattern_node.store_id:
        attrs[f"{pattern_node.name}.ID"] = id_of(xml_node, pattern_node.store_id)
    if pattern_node.store_tag:
        attrs[f"{pattern_node.name}.L"] = xml_node.label
    if pattern_node.store_value:
        attrs[f"{pattern_node.name}.V"] = xml_node.value
    if pattern_node.store_content:
        attrs[f"{pattern_node.name}.C"] = xml_node.content
    return attrs


def _padding(pattern_node):
    """⊥ for every attribute an outer edge's missing subtree would store."""
    padding = {f"{pattern_node.name}.{a}": NULL for a in pattern_node.stored_attrs()}
    for edge in pattern_node.edges:
        if edge.semantics in (NEST, NEST_OUTER):
            padding[edge.child.name] = []
        elif edge.semantics != SEMI:
            padding.update(_padding(edge.child))
    return padding


def _combine_edge(tuples, child_tuples, edge):
    """Parent tuples × the tuples found below them, under the edge's
    semantics (§4.1); ``None`` when the edge blocks the embedding."""
    semantics = edge.semantics
    if semantics == SEMI:
        return tuples if child_tuples else None
    if semantics in (JOIN, NEST) and not child_tuples:
        return None
    if semantics in (NEST, NEST_OUTER):
        return [a.with_attrs(**{edge.child.name: child_tuples}) for a in tuples]
    assert semantics in (JOIN, OUTER), semantics
    if not child_tuples:
        return [NestedTuple({**a.attrs, **_padding(edge.child)}) for a in tuples]
    return [NestedTuple({**a.attrs, **b.attrs}) for a in tuples for b in child_tuples]


def _walk_reference(pattern, doc):
    """The reference for ``evaluate_pattern``'s ordered output: the tuple
    construction of §4.1 written out node by node, sharing no code with
    the compiled evaluator beyond admission and ``id_of``'s getters, with
    every ``//`` step walking the anchor's whole subtree instead of
    reading the tag index."""

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
    # and the relation of a sharded copy
    db = Database()
    db.add_documents(docs)
    db.add_view("v", pattern)
    assert [t.freeze() for t in db.store["v"]] == reference
    with db.shard(2) as sharded:
        assert [t.freeze() for t in sharded.store["v"]] == reference


@pytest.fixture(scope="module")
def battery_store():
    """XMark scale 1 and DBLP scale 2 as one two-document store, and every
    pattern the XMark (q07 aside) and DBLP batteries evaluate on its base
    store, by pattern text."""
    db = Database()
    db.add_documents([generate_xmark(scale=1, seed=0), generate_dblp(scale=2, seed=0)])
    queries = {**XMARK_QUERIES, **DBLP_QUERIES}
    queries.pop("q07")  # a three-way cartesian product, in no battery
    patterns = {}
    for text in queries.values():
        for unit in db.prepare(text, prefer_views=False).units:
            for resolution in unit.resolutions:
                assert resolution.access_path == "base"
                patterns.setdefault(resolution.pattern.to_text(), resolution.pattern)
    return db, patterns


def test_battery_patterns_cover_the_workload(battery_store):
    _db, patterns = battery_store
    texts = " ".join(patterns)
    assert len(patterns) == 30
    assert "[val=TODS]" in texts and "@income[val~" in texts and "cont]" in texts
    used = {
        edge.semantics
        for pattern in patterns.values()
        for node in pattern.nodes()
        for edge in node.edges
    }
    assert used == {JOIN, SEMI, NEST, NEST_OUTER}


def test_battery_patterns_agree(battery_store):
    """The compiled evaluator on the real battery: ordered equality with
    the walk reference, set equality with the algebraic semantics."""
    db, patterns = battery_store
    for text, pattern in patterns.items():
        for doc in db.documents:
            indexed = [t.freeze() for t in evaluate_pattern(pattern, doc)]
            assert indexed == _walk_reference(pattern, doc), text
            algebraic = [t.freeze() for t in evaluate_algebraic(pattern, doc)]
            assert len(algebraic) == len(indexed), text
            assert set(algebraic) == set(indexed), text

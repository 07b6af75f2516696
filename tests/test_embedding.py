"""Tests for the embedding-based semantics (§4.1): edge semantics,
kind admission, the lifetime of the tag index evaluation reads, and the
generic return-tuple machinery."""

import gc
import weakref

import pytest

from repro.algebra.model import NestedTuple
from repro.core import evaluate_pattern, parse_pattern, return_tuples
from repro.core.embedding import _compile, admits_xml_node, embeddings
from repro.workloads import generate_xmark
from repro.xmldata import XMLNode, label_document, load, parse_document
from tests.rewrite_golden import SEEDS, battery, environment


DOC = load(
    "<site><item><name>Fish</name><kw>a</kw><kw>b</kw></item>"
    "<item><name>Rock</name></item></site>"
)


class TestAdmission:
    def test_tag_match(self):
        pattern = parse_pattern("//item")
        item = next(n for n in DOC.elements() if n.label == "item")
        name = next(n for n in DOC.elements() if n.label == "name")
        assert admits_xml_node(pattern.nodes()[0], item)
        assert not admits_xml_node(pattern.nodes()[0], name)

    def test_wildcard_admits_elements_only(self):
        pattern = parse_pattern("//*")
        star = pattern.nodes()[0]
        item = next(n for n in DOC.elements() if n.label == "item")
        attr_doc = load("<a x='1'>t</a>")
        attribute = attr_doc.top.attribute_children()[0]
        text = [n for n in attr_doc.nodes() if n.kind == "text"][0]
        assert admits_xml_node(star, item)
        assert not admits_xml_node(star, attribute)
        assert not admits_xml_node(star, text)

    def test_attribute_and_text_tests(self):
        doc = load("<a x='1'>t</a>")
        attr_pattern = parse_pattern("//a{/@x[val]}")
        out = evaluate_pattern(attr_pattern, doc)
        assert out[0]["e2.V"] == "1"
        text_pattern = parse_pattern("//a{/#text[val]}")
        assert evaluate_pattern(text_pattern, doc)[0]["e2.V"] == "t"

    def test_value_formula_admission(self):
        pattern = parse_pattern('//name[val="Fish", id:s]')
        assert len(evaluate_pattern(pattern, DOC)) == 1


class TestEdgeSemantics:
    def test_join_drops_unmatched(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/kw[val]}"), DOC)
        assert len(out) == 2  # two kws of the first item; second item gone

    def test_semi_keeps_but_does_not_multiply(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/s:kw}"), DOC)
        assert len(out) == 1

    def test_outer_pads(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/o:kw[val]}"), DOC)
        assert len(out) == 3
        assert sum(1 for t in out if t["e2.V"] is None) == 1

    def test_nest_groups_and_requires(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/nj:kw[val]}"), DOC)
        assert len(out) == 1 and len(out[0]["e2"]) == 2

    def test_nest_outer_keeps_empty(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/no:kw[val]}"), DOC)
        assert [len(t["e2"]) for t in out] == [2, 0]

    def test_descendant_axis(self):
        out = evaluate_pattern(parse_pattern("//site[id:s]{//kw[val]}"), DOC)
        assert len(out) == 2

    def test_results_are_duplicate_free(self):
        # both kws reach the same (site, item-ID) pair through // twice
        out = evaluate_pattern(parse_pattern("//site{//item[id:s]}"), DOC)
        assert len(out) == len({t.freeze() for t in out})


def duplicates_removed(pattern, doc) -> int:
    """Check ``evaluate_pattern`` against a dedup that freezes every row
    of the compiled pattern's output (same rows, same order); return how
    many rows it dropped."""
    rows = _compile(pattern.root)(doc.root, doc.index) or []
    seen, expected = set(), []
    for attrs in rows:
        key = NestedTuple(attrs).freeze()
        if key not in seen:
            seen.add(key)
            expected.append(key)
    assert [t.freeze() for t in evaluate_pattern(pattern, doc)] == expected
    return len(rows) - len(expected)


class TestDuplicateElimination:
    NESTED = load(
        "<site><listitem><text><keyword>k</keyword></text>"
        "<listitem><text><keyword>j</keyword></text></listitem></listitem></site>"
    )

    def test_unstored_existential_node(self):
        # the inner keyword is reached through both listitems
        pattern = parse_pattern("//listitem{//keyword[id:s]}")
        assert duplicates_removed(pattern, self.NESTED) == 1

    def test_rows_holding_a_collection(self):
        pattern = parse_pattern("//listitem{//text[id:s]{/no:keyword[val]}}")
        assert duplicates_removed(pattern, self.NESTED) == 1

    #: a listitem with two equal keywords, and two listitems below no text
    PADDED = load(
        "<site><listitem><text><keyword>k</keyword></text>"
        "<listitem><text><keyword>j</keyword><keyword>j</keyword></text>"
        "<listitem/></listitem><listitem/></listitem></site>"
    )

    @pytest.mark.parametrize(
        "text, dropped",
        [
            # an outer edge pads its nested child with an empty collection
            ("//listitem{/o:text{/nj:keyword[val]}}", 1),
            ("//listitem{//o:text[id:s]{/nj:keyword[val]}}", 2),
            ("//listitem{/o:listitem{/no:text[id:s]}}", 3),
            # members that hold collections, padded ones among them
            ("//listitem{/no:listitem{/no:text{/nj:keyword[val]}}}", 1),
            ("//listitem{/no:listitem{/o:text{/nj:keyword[val]}}}", 1),
        ],
    )
    def test_padded_and_nested_members(self, text, dropped):
        assert duplicates_removed(parse_pattern(text), self.PADDED) == dropped

    def test_collections_of_one_size_told_apart_by_their_members(self):
        pattern = parse_pattern("//text{/nj:keyword[val]}")
        assert duplicates_removed(pattern, self.NESTED) == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_random_patterns(self, seed):
        doc = generate_xmark(scale=1, seed=0)
        patterns = [p for pid, p in battery(environment(seed)[0], seed) if pid.startswith("r")]
        dropped = [duplicates_removed(p, doc) for p in patterns]
        assert len(patterns) > 50 and sum(dropped) > 0


class TestTagIndexLifetime:
    def test_relabelling_shows_an_appended_node(self):
        doc = load("<r><a/><b/></r>")
        pattern = parse_pattern("//r{//c[id:s]}")
        assert evaluate_pattern(pattern, doc) == []
        doc.top.element_children()[0].add_element("c")
        label_document(doc)
        assert [t["e2.ID"].pre for t in evaluate_pattern(pattern, doc)] == [3]
        assert doc.find_by_pre(3).label == "c"

    def test_index_dies_with_its_document(self):
        # a store holds its documents inside reference cycles; an index
        # kept anywhere but on the document would hold the tree through
        # the one collection that frees the document
        doc = load("<lifetime><a><b/></a><b/></lifetime>")
        assert len(evaluate_pattern(parse_pattern("//b[id:s]"), doc)) == 2
        holder = [doc]
        holder.append(holder)
        dropped = weakref.ref(doc)
        del doc, holder
        gc.collect()
        assert dropped() is None
        assert not any(
            isinstance(o, XMLNode) and o.label == "lifetime" for o in gc.get_objects()
        )

    def test_unlabelled_document_is_refused(self):
        doc = parse_document("<r><a>x</a></r>")
        with pytest.raises(ValueError, match="label_document"):
            evaluate_pattern(parse_pattern("//a[val]"), doc)

    def test_node_appended_without_relabelling_is_refused(self):
        doc = load("<r><a/></r>")
        doc.top.add_element("b")
        with pytest.raises(ValueError, match="label_document"):
            evaluate_pattern(parse_pattern("//b"), doc)


class TestReturnTuples:
    def test_on_xml_tree(self):
        pattern = parse_pattern("//item[id:s]{/name[val]}")

        def children(node):
            return node.children

        tuples = return_tuples(pattern, DOC.root, children, admits_xml_node)
        assert len(tuples) == 2
        labels = {tuple(n.label for n in t) for t in tuples}
        assert labels == {("item", "name")}

    def test_optional_bottom_is_none(self):
        pattern = parse_pattern("//item[id:s]{/o:kw[id:s]}")

        def children(node):
            return node.children

        tuples = return_tuples(pattern, DOC.root, children, admits_xml_node)
        assert any(t[1] is None for t in tuples)
        assert any(t[1] is not None for t in tuples)

    def test_embeddings_count(self):
        pattern = parse_pattern("//kw")

        def children(node):
            return node.children

        assert len(embeddings(pattern, DOC.root, children, admits_xml_node)) == 2


class TestDocumentOrderAndNesting:
    def test_nested_tuples_preserve_order(self):
        out = evaluate_pattern(parse_pattern("//item[id:s]{/nj:kw[val]}"), DOC)
        assert [m["e2.V"] for m in out[0]["e2"]] == ["a", "b"]

    def test_deep_nesting(self):
        doc = load("<r><a><b><c>1</c></b><b><c>2</c><c>3</c></b></a></r>")
        out = evaluate_pattern(
            parse_pattern("//a[id:s]{/nj:b[id:s]{/nj:c[val]}}"), doc
        )
        assert len(out) == 1
        counts = [len(m["e3"]) for m in out[0]["e2"]]
        assert counts == [1, 2]

"""Tests for the XAM pattern language and its text syntax (Chapter 2)."""

import pytest

from repro.algebra import eq
from repro.core import (
    CHILD,
    DESCENDANT,
    JOIN,
    NEST,
    NEST_OUTER,
    OUTER,
    SEMI,
    Pattern,
    PatternNode,
    XAMParseError,
    parse_pattern,
    pattern_from_path,
)


class TestBuilding:
    def test_builder_api(self):
        pattern = Pattern()
        item = pattern.root.add_child(PatternNode(tag="item"), DESCENDANT, JOIN)
        item.store_id = "s"
        name = item.add_child(PatternNode(tag="name"), CHILD, NEST_OUTER)
        name.store_value = True
        pattern.finalize()
        assert [n.name for n in pattern.nodes()] == ["e1", "e2"]
        assert pattern.node_by_name("e1").tag == "item"
        assert pattern.node_by_name("e2").parent is item

    def test_finalize_rejects_duplicate_names(self):
        pattern = Pattern()
        pattern.root.add_child(PatternNode(tag="a", name="x"), CHILD, JOIN)
        pattern.root.add_child(PatternNode(tag="b", name="x"), CHILD, JOIN)
        with pytest.raises(ValueError):
            pattern.finalize()

    def test_attribute_nodes_cannot_have_children(self):
        pattern = Pattern()
        attr = pattern.root.add_child(PatternNode(tag="@id"), CHILD, JOIN)
        attr.add_child(PatternNode(tag="x"), CHILD, JOIN)
        with pytest.raises(ValueError):
            pattern.finalize()

    def test_invalid_id_kind_rejected(self):
        with pytest.raises(ValueError):
            PatternNode(tag="a", store_id="zz")

    def test_invalid_edge_labels_rejected(self):
        pattern = Pattern()
        with pytest.raises(ValueError):
            pattern.root.add_child(PatternNode(tag="a"), "sideways", JOIN)
        with pytest.raises(ValueError):
            pattern.root.add_child(PatternNode(tag="a"), CHILD, "zz")


class TestParsing:
    def test_simple_chain(self):
        pattern = parse_pattern("//item[id:s]{/name[val]}")
        item, name = pattern.nodes()
        assert item.tag == "item" and item.store_id == "s"
        assert name.store_value and name.parent_edge.axis == CHILD

    def test_root_with_multiple_edges(self):
        pattern = parse_pattern("root{/a, //b}")
        assert [e.axis for e in pattern.root.edges] == [CHILD, DESCENDANT]

    def test_path_chain_shorthand(self):
        pattern = parse_pattern("/site/people/person[id:s]")
        assert [n.tag for n in pattern.nodes()] == ["site", "people", "person"]

    def test_all_edge_semantics(self):
        pattern = parse_pattern("//a{/o:b, /s:c, /nj:d, /no:e, /f}")
        semantics = [e.semantics for e in pattern.node_by_name("e1").edges]
        assert semantics == [OUTER, SEMI, NEST, NEST_OUTER, JOIN]

    def test_optional_and_nested_flags(self):
        pattern = parse_pattern("//a{/o:b, /nj:c}")
        edges = pattern.node_by_name("e1").edges
        assert edges[0].optional and not edges[0].nested
        assert edges[1].nested and not edges[1].optional

    def test_specs(self):
        pattern = parse_pattern(
            '//a[id:p!, tag, val, cont]{/b[val="x"], /c[val>3, val<=9]}'
        )
        a, b, c = pattern.nodes()
        assert a.store_id == "p" and a.id_required
        assert a.store_tag and a.store_value and a.store_content
        assert b.value_formula.equality_constant() == "x"
        assert c.value_formula.evaluate(5) and not c.value_formula.evaluate(10)

    def test_wildcard_attribute_text_nodes(self):
        pattern = parse_pattern("//*{/@id[val], /#text[val]}")
        star, attr, text = pattern.nodes()
        assert star.is_wildcard
        assert attr.is_attribute
        assert text.tag == "#text"

    def test_tag_predicate_spec(self):
        pattern = parse_pattern('//*[tag="book"]')
        assert pattern.nodes()[0].tag == "book"

    def test_unordered_flag(self):
        assert parse_pattern("unordered //a").ordered is False
        assert parse_pattern("//a").ordered is True

    def test_round_trip(self):
        texts = [
            "root{//item[id:s, cont]{/nj:name[val], //no:keyword[id:s, val]}}",
            "root{//a[id:p!]{/s:b[val=5], /o:c[tag]}}",
            "unordered root{//x[val]}",
        ]
        for text in texts:
            pattern = parse_pattern(text)
            assert parse_pattern(pattern.to_text()).same_structure(pattern)

    @pytest.mark.parametrize(
        "bad",
        ["", "item", "//a{/b", "//a[zz]", "//a{}", "//a,//b", "//a}b"],
    )
    def test_errors(self, bad):
        with pytest.raises(XAMParseError):
            parse_pattern(bad)


class TestPatternFromPath:
    def test_defaults(self):
        pattern = pattern_from_path("//item/name")
        name = pattern.nodes()[-1]
        assert name.store_id == "s"
        assert pattern.nodes()[0].stored_attrs() == ()

    def test_store_selection(self):
        pattern = pattern_from_path("//a", store=("ID", "L", "V", "C"), id_kind="p")
        node = pattern.nodes()[0]
        assert node.stored_attrs() == ("ID", "L", "V", "C")
        assert node.store_id == "p"

    def test_value_predicate(self):
        pattern = pattern_from_path("//a", store=("V",), value_equals=5)
        assert pattern.nodes()[0].value_formula.equality_constant() == 5

    def test_mixed_axes(self):
        pattern = pattern_from_path("/a//b/c")
        axes = [n.parent_edge.axis for n in pattern.nodes()]
        assert axes == [CHILD, DESCENDANT, CHILD]


class TestClassification:
    def test_conjunctive(self):
        assert parse_pattern("//a{/b}").is_conjunctive
        assert not parse_pattern("//a{/o:b}").is_conjunctive
        assert not parse_pattern("//a[val=1]").is_conjunctive

    def test_flags(self):
        assert parse_pattern("//a{/o:b}").has_optional_edges
        assert parse_pattern("//a{/nj:b}").has_nested_edges
        assert parse_pattern("//a[id:s!]").has_required_attrs
        assert not parse_pattern("//a{/b}").has_required_attrs

    def test_return_nodes_are_storing_nodes(self):
        pattern = parse_pattern("//a[id:s]{/b, /c[val]}")
        assert [n.tag for n in pattern.return_nodes()] == ["a", "c"]

    def test_size(self):
        assert parse_pattern("//a{/b{/c}, /d}").size() == 4


class TestStructuralEquality:
    def test_copy_is_equal_but_distinct(self):
        pattern = parse_pattern("//a[id:s]{/o:b[val=3]}")
        clone = pattern.copy()
        assert clone.same_structure(pattern)
        clone.nodes()[0].store_id = None
        assert not clone.same_structure(pattern)

    def test_formulas_participate(self):
        assert not parse_pattern("//a[val=1]").same_structure(
            parse_pattern("//a[val=2]")
        )
        assert parse_pattern("//a[val=1]").same_structure(parse_pattern("//a[val=1]"))

    def test_map_nodes(self):
        pattern = parse_pattern("//a{/b}")

        def strip(node):
            node.store_id = "s"

        mapped = pattern.map_nodes(strip)
        assert all(n.store_id == "s" for n in mapped.nodes())
        assert all(n.store_id is None for n in pattern.nodes())


def fresh_walk(pattern):
    """The non-⊤ nodes in pre-order by plain recursion: independent of the
    list a pattern keeps between structural edits."""
    found = []

    def visit(node):
        for edge in node.edges:
            found.append(edge.child)
            visit(edge.child)

    visit(pattern.root)
    return found


def assert_current(pattern):
    walk = fresh_walk(pattern)
    assert pattern.nodes() == walk
    assert pattern.edges() == [node.parent_edge for node in walk]
    for node in walk:
        assert pattern.node_by_name(node.name) is node


class TestKeptPreorder:
    """A pattern keeps its pre-order node list between structural edits;
    every edit path must drop it."""

    def test_add_child_after_finalize(self):
        pattern = parse_pattern("//a[id:s]{/b{//c[val]}, /d}")
        assert_current(pattern)  # the list is now kept
        pattern.node_by_name("e3").add_child(PatternNode(tag="x", name="x1"), CHILD, JOIN)
        assert_current(pattern)
        assert pattern.node_by_name("x1").parent is pattern.node_by_name("e3")
        pattern.root.add_child(PatternNode(tag="y", name="y1"), DESCENDANT, JOIN)
        assert_current(pattern)
        assert pattern.nodes()[-1].name == "y1"

    def test_rename_needs_no_edit(self):
        pattern = parse_pattern("//a[id:s]{/b}")
        node = pattern.node_by_name("e2")
        node.name = "renamed"
        assert pattern.node_by_name("renamed") is node
        with pytest.raises(KeyError):
            pattern.node_by_name("e2")

    def test_returned_list_is_a_copy(self):
        pattern = parse_pattern("//a[id:s]{/b}")
        pattern.nodes().clear()
        assert_current(pattern)
        assert len(pattern.nodes()) == 2

    def test_minimize_contraction(self):
        """``contractions`` looks the victim up (keeping the clone's list),
        then removes its edge: a leaf victim goes with no ``add_child``."""
        from repro.core.minimize import contractions

        pattern = parse_pattern("//a[id:s]{/b, /c{/d[id:s]}}")
        assert_current(pattern)
        clones = list(contractions(pattern))
        assert [len(clone.nodes()) for clone in clones] == [3, 3]
        for clone in clones:
            assert_current(clone)
        assert_current(pattern)

    def test_rewrite_derived_parent_graft(self, monkeypatch):
        """A view serving a parent ID below a ``//`` edge gets an explicit
        parent node grafted in after its nodes were looked up by name."""
        from repro.core import rewrite, rewrite_pattern
        from repro.storage import Catalog
        from repro.summary import build_enhanced_summary
        from repro.xmldata import load

        adapted = []
        original = rewrite._adapted_pattern

        def recording(query, use):
            pattern = original(query, use)
            adapted.append(pattern)
            return pattern

        monkeypatch.setattr(rewrite, "_adapted_pattern", recording)
        summary = build_enhanced_summary(
            load("<site><people><person><name>A</name></person></people></site>")
        )
        catalog = Catalog()
        catalog.register("v", parse_pattern("//people//name[id:p, val]"))
        query = parse_pattern("//people/person[id:s]{/name[val]}")
        assert rewrite_pattern(query, catalog, summary, max_results=None)
        grafted = [
            pattern
            for pattern in adapted
            if pattern is not None
            and any(node.name == "u0:par1" for node in fresh_walk(pattern))
        ]
        assert grafted
        for pattern in grafted:
            assert_current(pattern)
            assert pattern.node_by_name("u0:par1").tag is None

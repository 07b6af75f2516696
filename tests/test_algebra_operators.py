"""Tests for the logical algebra operators (thesis §1.2.2)."""

import pytest

from repro.algebra import (
    NULL,
    Attr,
    BaseTuples,
    Compare,
    Const,
    DerivedColumn,
    Difference,
    GroupBy,
    Navigate,
    NestAll,
    NestedTuple,
    Product,
    Project,
    Scan,
    Select,
    StructuralJoin,
    TemplateAttr,
    TemplateElement,
    Union,
    Unnest,
    ValueJoin,
    XMLize,
)
from repro.algebra.operators import compile_template
from repro.xmldata import id_of, load
from tests.reference import reference_bindings, render_template
from tests.test_compiled_only import BATTERIES, database


def rows(*dicts):
    return BaseTuples([NestedTuple(d) for d in dicts])


@pytest.fixture()
def doc():
    return load("<a><b><c>1</c><c>2</c></b><b><c>3</c></b><d/></a>")


def sids(doc, label, name):
    return BaseTuples(
        [
            NestedTuple({f"{name}.ID": id_of(n, "s"), f"{name}.V": n.value})
            for n in doc.elements()
            if n.label == label
        ]
    )


class TestScanAndBase:
    def test_scan_reads_context(self):
        plan = Scan("r", ["x"])
        assert plan.evaluate({"r": [NestedTuple({"x": 1})]})[0]["x"] == 1

    def test_scan_missing_raises(self):
        with pytest.raises(KeyError):
            Scan("r", ["x"]).evaluate({})

    def test_scan_missing_ok(self):
        assert Scan("r", ["x"], missing_ok=True).evaluate({}) == []

    def test_base_tuples_schema_inference(self):
        base = rows({"x": 1, "y": 2})
        assert base.schema() == ["x", "y"]


class TestSelectProject:
    def test_select(self):
        plan = Select(rows({"x": 1}, {"x": 2}), Compare(Attr("x"), ">", Const(1)))
        assert [t["x"] for t in plan.evaluate({})] == [2]

    def test_select_requires_predicate(self):
        with pytest.raises(ValueError):
            Select(rows({"x": 1}))

    def test_select_reduce_filters_members_and_drops_empty(self):
        base = rows(
            {"k": 1, "c": [NestedTuple({"v": 1}), NestedTuple({"v": 5})]},
            {"k": 2, "c": [NestedTuple({"v": 1})]},
        )
        plan = Select(
            base,
            reduce_path="c",
            member_predicate=Compare(Attr("v"), ">", Const(2)),
        )
        out = plan.evaluate({})
        assert len(out) == 1  # second tuple eliminated (collection emptied)
        assert [m["v"] for m in out[0]["c"]] == [5]

    def test_project_keeps_duplicates_by_default(self):
        plan = Project(rows({"x": 1, "y": 1}, {"x": 1, "y": 2}), ["x"])
        assert len(plan.evaluate({})) == 2

    def test_project_dedup(self):
        plan = Project(rows({"x": 1, "y": 1}, {"x": 1, "y": 2}), ["x"], dedup=True)
        assert len(plan.evaluate({})) == 1

    def test_project_rename(self):
        plan = Project(rows({"x": 1}), ["z"], sources={"z": "x"})
        assert plan.schema() == ["z"]
        assert plan.evaluate({})[0]["z"] == 1

    def test_project_copies_one_attribute_into_several_columns(self):
        plan = Project(rows({"x": 1, "y": 2}), ["a", "b", "y"], sources={"a": "x", "b": "x"})
        assert plan.schema() == ["a", "b", "y"]
        assert plan.evaluate({})[0].attrs == {"a": 1, "b": 1, "y": 2}


class TestSetOperators:
    def test_product(self):
        plan = Product(rows({"x": 1}, {"x": 2}), rows({"y": 3}))
        assert len(plan.evaluate({})) == 2

    def test_union_preserves_duplicates_and_order(self):
        plan = Union(rows({"x": 1}), rows({"x": 1}, {"x": 2}))
        assert [t["x"] for t in plan.evaluate({})] == [1, 1, 2]

    def test_difference_is_bag_semantics(self):
        plan = Difference(rows({"x": 1}, {"x": 1}, {"x": 2}), rows({"x": 1}))
        assert sorted(t["x"] for t in plan.evaluate({})) == [1, 2]


class TestValueJoin:
    def make(self, kind):
        left = rows({"x": 1}, {"x": 2})
        right = rows({"y": 1}, {"y": 1})
        return ValueJoin(
            left, right, Compare(Attr("x", 0), "=", Attr("y", 1)), kind=kind, nest_as="g"
        )

    def test_inner(self):
        assert len(self.make("j").evaluate({})) == 2

    def test_outer_pads_with_nulls(self):
        out = self.make("o").evaluate({})
        assert len(out) == 3
        padded = [t for t in out if t["x"] == 2]
        assert padded[0]["y"] is NULL

    def test_semi(self):
        out = self.make("s").evaluate({})
        assert [t["x"] for t in out] == [1]
        assert "y" not in out[0]

    def test_nest(self):
        out = self.make("nj").evaluate({})
        assert len(out) == 1 and len(out[0]["g"]) == 2

    def test_nest_outer_keeps_empty_groups(self):
        out = self.make("no").evaluate({})
        assert len(out) == 2
        empty = [t for t in out if t["x"] == 2][0]
        assert empty["g"] == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self_join = rows({"x": 1})
            ValueJoin(self_join, self_join, Compare(Attr("x"), "=", Const(1)), kind="zz")


class TestStructuralJoin:
    def test_child_join(self, doc):
        plan = StructuralJoin(
            sids(doc, "b", "b"), sids(doc, "c", "c"), "b.ID", "c.ID", axis="child"
        )
        assert len(plan.evaluate({})) == 3

    def test_descendant_join(self, doc):
        plan = StructuralJoin(
            sids(doc, "a", "a"), sids(doc, "c", "c"), "a.ID", "c.ID", axis="descendant"
        )
        assert len(plan.evaluate({})) == 3

    def test_semijoin(self, doc):
        plan = StructuralJoin(
            sids(doc, "b", "b"), sids(doc, "c", "c"), "b.ID", "c.ID", axis="child", kind="s"
        )
        assert len(plan.evaluate({})) == 2

    def test_outer_join_pads(self, doc):
        plan = StructuralJoin(
            sids(doc, "d", "d"), sids(doc, "c", "c"), "d.ID", "c.ID", axis="child", kind="o"
        )
        out = plan.evaluate({})
        assert len(out) == 1 and out[0]["c.ID"] is NULL

    def test_nest_join_groups(self, doc):
        plan = StructuralJoin(
            sids(doc, "b", "b"), sids(doc, "c", "c"), "b.ID", "c.ID",
            axis="child", kind="nj", nest_as="cs",
        )
        out = plan.evaluate({})
        assert [len(t["cs"]) for t in out] == [2, 1]

    def test_map_extended_join_inside_collection(self, doc):
        nested = StructuralJoin(
            sids(doc, "a", "a"), sids(doc, "b", "b"), "a.ID", "b.ID",
            axis="child", kind="nj", nest_as="bs",
        )
        plan = StructuralJoin(
            nested, sids(doc, "c", "c"), "bs/b.ID", "c.ID", axis="child", kind="nj",
            nest_as="cs",
        )
        out = plan.evaluate({})
        assert len(out) == 1
        members = out[0]["bs"]
        assert [len(m["cs"]) for m in members] == [2, 1]

    def test_bad_axis_rejected(self, doc):
        with pytest.raises(ValueError):
            StructuralJoin(sids(doc, "b", "b"), sids(doc, "c", "c"), "b.ID", "c.ID", axis="up")


class TestGroupingOperators:
    def test_group_by(self):
        base = rows({"k": 1, "v": "a"}, {"k": 1, "v": "b"}, {"k": 2, "v": "c"})
        out = GroupBy(base, ["k"], nest_as="g").evaluate({})
        assert [t["k"] for t in out] == [1, 2]
        assert [len(t["g"]) for t in out] == [2, 1]

    def test_unnest(self):
        base = rows({"k": 1, "g": [NestedTuple({"v": "a"}), NestedTuple({"v": "b"})]})
        out = Unnest(base, "g").evaluate({})
        assert [(t["k"], t["v"]) for t in out] == [(1, "a"), (1, "b")]

    def test_unnest_drops_empty_collections(self):
        base = rows({"k": 1, "g": []})
        assert Unnest(base, "g").evaluate({}) == []

    def test_nest_all(self):
        out = NestAll(rows({"x": 1}, {"x": 2}), nest_as="all").evaluate({})
        assert len(out) == 1 and len(out[0]["all"]) == 2


class TestDerivedAndNavigate:
    def test_derived_column(self):
        plan = DerivedColumn(rows({"x": 2}), "y", lambda t: t["x"] * 10)
        assert plan.evaluate({})[0]["y"] == 20

    def test_navigate_flat(self):
        base = rows({"c": "<li><kw>rare</kw><kw>big</kw></li>"})
        plan = Navigate(base, "c", [("child", "kw")], out="k")
        out = plan.evaluate({})
        assert [t["k.V"] for t in out] == ["rare", "big"]
        assert out[0]["k.C"] == "<kw>rare</kw>"

    def test_navigate_unmatched_dropped_or_kept(self):
        base = rows({"c": "<li/>"})
        assert Navigate(base, "c", [("child", "kw")], out="k").evaluate({}) == []
        kept = Navigate(
            base, "c", [("child", "kw")], out="k", keep_unmatched=True
        ).evaluate({})
        assert kept[0]["k.V"] is NULL

    def test_navigate_descendant_axis_and_wildcard(self):
        base = rows({"c": "<li><p><kw>x</kw></p></li>"})
        plan = Navigate(base, "c", [("descendant", "kw")], out="k")
        assert plan.evaluate({})[0]["k.V"] == "x"
        star = Navigate(base, "c", [("child", "*")], out="k")
        assert star.evaluate({})[0]["k.C"] == "<p><kw>x</kw></p>"

    def test_navigate_nested_output(self):
        base = rows({"c": "<li><kw>a</kw><kw>b</kw></li>"}, {"c": "<li/>"})
        plan = Navigate(
            base, "c", [("child", "kw")], out="k", nest_out=True, keep_unmatched=True
        )
        out = plan.evaluate({})
        assert [len(t["k"]) for t in out] == [2, 0]

    def test_navigate_inside_collection(self):
        base = rows(
            {
                "id": 1,
                "li": [
                    NestedTuple({"li.C": "<li><kw>a</kw></li>"}),
                    NestedTuple({"li.C": "<li/>"}),
                ],
            }
        )
        plan = Navigate(
            base, "li/li.C", [("child", "kw")], out="k", nest_out=True,
            keep_unmatched=True,
        )
        out = plan.evaluate({})
        assert [len(m["k"]) for m in out[0]["li"]] == [1, 0]


def render(template, t):
    return compile_template(template)(t)


def members(*values):
    return [NestedTuple({"v": v}) for v in values]


class TestTemplates:
    def test_simple_template(self):
        template = TemplateElement("res", [TemplateAttr("x")])
        assert render(template, NestedTuple({"x": "hi"})) == "<res>hi</res>"

    def test_literal_children(self):
        template = TemplateElement("res", ["label: ", TemplateAttr("x")])
        assert render(template, NestedTuple({"x": 1})) == "<res>label: 1</res>"

    def test_nulls_are_skipped(self):
        template = TemplateElement("res", [TemplateAttr("x")])
        assert render(template, NestedTuple({"x": None})) == "<res></res>"

    def test_repeat_over_collection(self):
        template = TemplateElement(
            "res",
            [TemplateElement("k", [TemplateAttr("c/v")], repeat_over="c")],
        )
        t = NestedTuple({"c": members(1, 2)})
        assert render(template, t) == "<res><k>1</k><k>2</k></res>"

    def test_repeat_scope_mixes_outer_refs(self):
        template = TemplateElement(
            "res",
            [
                TemplateElement(
                    "k", [TemplateAttr("name"), TemplateAttr("c/v")], repeat_over="c"
                )
            ],
        )
        t = NestedTuple({"name": "N", "c": members(1, 2)})
        assert render(template, t) == "<res><k>N1</k><k>N2</k></res>"

    def test_repeat_inside_repeat(self):
        inner = TemplateElement("i", [TemplateAttr("c/d/v")], repeat_over="c/d")
        template = TemplateElement(
            "res", [TemplateElement("o", [TemplateAttr("c/n"), inner], repeat_over="c")]
        )
        t = NestedTuple(
            {
                "c": [
                    NestedTuple({"n": "a", "d": members(1, 2)}),
                    NestedTuple({"n": "b", "d": []}),
                    NestedTuple({"n": "c", "d": members(3)}),
                ]
            }
        )
        assert render(template, t) == (
            "<res><o>a<i>1</i><i>2</i></o><o>b</o><o>c<i>3</i></o></res>"
        )

    def test_path_outside_the_entered_member_reads_the_root(self):
        # inside ``c`` only ``c/...`` paths read the member; ``d/v``
        # reaches every member of the root's ``d`` on each repetition
        template = TemplateElement(
            "res",
            [
                TemplateElement(
                    "k", [TemplateAttr("c/v"), "-", TemplateAttr("d/v")], repeat_over="c"
                )
            ],
        )
        t = NestedTuple({"c": members(1, 2), "d": members("x", "y")})
        assert render(template, t) == "<res><k>1-xy</k><k>2-xy</k></res>"
        outside = TemplateElement("res", [TemplateAttr("c/v")])
        assert render(outside, t) == "<res>12</res>"

    def test_a_path_naming_the_entered_member_renders_nothing(self):
        template = TemplateElement(
            "res",
            [TemplateElement("k", ["[", TemplateAttr("c"), "]"], repeat_over="c")],
        )
        t = NestedTuple({"c": members(1, 2)})
        assert render(template, t) == "<res><k>[]</k><k>[]</k></res>"
        assert render(template, t) == render_template(template, t)

    def test_nulls_in_collections_are_skipped(self):
        template = TemplateElement("res", ["<", TemplateAttr("c/v"), ">"])
        t = NestedTuple({"c": members(None, "a", None)})
        assert render(template, t) == "<res><a></res>"

    def test_literal_text_only(self):
        template = TemplateElement("res", ["a", "b", TemplateElement("e", ["c"])])
        assert render(template, NestedTuple({})) == "<res>ab<e>c</e></res>"

    def test_xmlize_operator(self):
        template = TemplateElement("r", [TemplateAttr("x")])
        plan = XMLize(rows({"x": "a"}, {"x": "b"}), template)
        assert [t["xml"] for t in plan.evaluate({})] == ["<r>a</r>", "<r>b</r>"]


def test_compiled_templates_render_like_the_interpreter():
    # every XMLize unit of the XMark, DBLP and view batteries, its input
    # rows from the logical reference
    templates = rendered = repeated = 0
    for document, queries, views in BATTERIES.values():
        db = database(document(), views)
        for name, query in queries.items():
            for unit in db.prepare(query).units:
                if not isinstance(unit.logical, XMLize):
                    continue
                template = unit.logical.template
                compiled = compile_template(template)
                for t in unit.logical.children[0].evaluate(reference_bindings(db, unit)):
                    assert compiled(t) == render_template(template, t), name
                    rendered += 1
                templates += 1
                repeated += "∀" in repr(template)
    assert templates >= 20 and rendered > 1000 and repeated > 0


class TestPlanInspection:
    def test_counts_and_leaves(self, doc):
        plan = StructuralJoin(
            sids(doc, "b", "b"), sids(doc, "c", "c"), "b.ID", "c.ID", axis="child"
        )
        assert plan.operator_count() == 3
        assert plan.join_count() == 1
        assert len(plan.leaves()) == 2
        assert "⨝" in plan.pretty()

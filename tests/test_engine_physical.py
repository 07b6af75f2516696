"""Tests for the physical engine: StackTree joins, hash join, Sort,
compilation, and agreement of the compiled batch closures with the
logical operators (§1.2.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Attr,
    BaseTuples,
    Compare,
    Const,
    Difference,
    GroupBy,
    NestedTuple,
    Product,
    Project,
    Scan,
    Select,
    StructuralJoin,
    Union,
    ValueJoin,
)
from repro.engine import (
    BPlusTree,
    PBase,
    PHashJoin,
    PSort,
    PStackTreeAnc,
    PStackTreeDesc,
    compile_plan,
)
from repro.xmldata import id_of, load
from tests.conftest import run_physical, run_plan


def sid_rows(doc, label, name):
    return BaseTuples(
        [
            NestedTuple({f"{name}.ID": id_of(n, "s")})
            for n in doc.elements()
            if n.label == label
        ]
    )


@pytest.fixture()
def doc():
    return load(
        "<a><b><c/><c/><b><c/></b></b><b/><c/><b><x><c/></x></b></a>"
    )


def agreement(plan, context=None):
    logical = sorted(t.freeze() for t in plan.evaluate(context or {}))
    physical = sorted(t.freeze() for t in run_plan(plan, context or {}))
    assert logical == physical
    return logical


class TestStackTree:
    @pytest.mark.parametrize("kind", ["j", "s", "o", "nj", "no"])
    @pytest.mark.parametrize("axis", ["child", "descendant"])
    def test_agreement_with_logical(self, doc, kind, axis):
        plan = StructuralJoin(
            sid_rows(doc, "b", "x"),
            sid_rows(doc, "c", "y"),
            "x.ID",
            "y.ID",
            axis=axis,
            kind=kind,
            nest_as="g",
        )
        agreement(plan)

    def test_desc_output_is_descendant_ordered(self, doc):
        physical = PStackTreeDesc(
            PBase(sid_rows(doc, "b", "x").tuples, order="x.ID"),
            PBase(sid_rows(doc, "c", "y").tuples, order="y.ID"),
            "x.ID",
            "y.ID",
            "descendant",
        )
        out = run_physical(physical)
        descendant_ids = [t["y.ID"] for t in out]
        assert descendant_ids == sorted(descendant_ids)

    def test_anc_output_is_ancestor_ordered(self, doc):
        physical = PStackTreeAnc(
            PBase(sid_rows(doc, "b", "x").tuples, order="x.ID"),
            PBase(sid_rows(doc, "c", "y").tuples, order="y.ID"),
            "x.ID",
            "y.ID",
            "descendant",
            kind="nj",
            nest_as="g",
        )
        out = run_physical(physical)
        ancestor_ids = [t["x.ID"] for t in out]
        assert ancestor_ids == sorted(ancestor_ids)

    def test_self_nesting_ancestors(self, doc):
        # b elements nest inside b elements in this document
        plan = StructuralJoin(
            sid_rows(doc, "b", "x"),
            sid_rows(doc, "b", "y"),
            "x.ID",
            "y.ID",
            axis="descendant",
            kind="j",
        )
        out = agreement(plan)
        assert len(out) == 1

    def test_compiler_inserts_sorts_for_unordered_inputs(self, doc):
        shuffled = list(sid_rows(doc, "c", "y").tuples)
        random.Random(0).shuffle(shuffled)
        plan = StructuralJoin(
            sid_rows(doc, "b", "x"),
            BaseTuples(shuffled),
            "x.ID",
            "y.ID",
            axis="descendant",
        )
        physical = compile_plan(plan)
        assert "PSort" in physical.pretty()
        agreement(plan)

    def test_declared_scan_order_skips_sort(self, doc):
        plan = StructuralJoin(
            Scan("bs", ["x.ID"]), Scan("cs", ["y.ID"]), "x.ID", "y.ID", axis="descendant"
        )
        context = {
            "bs": sid_rows(doc, "b", "x").tuples,
            "cs": sid_rows(doc, "c", "y").tuples,
        }
        with_order = compile_plan(plan, {"bs": "x.ID", "cs": "y.ID"})
        assert "PSort" not in with_order.pretty()
        without = compile_plan(plan)
        assert "PSort" in without.pretty()
        assert sorted(t.freeze() for t in run_physical(with_order, context)) == sorted(
            t.freeze() for t in run_physical(without, context)
        )


class TestDeweyJoins:
    def test_stacktree_works_on_dewey_ids(self, doc):
        def dewey_rows(label, name):
            return BaseTuples(
                [
                    NestedTuple({f"{name}.ID": id_of(n, "p")})
                    for n in doc.elements()
                    if n.label == label
                ]
            )

        plan = StructuralJoin(
            dewey_rows("b", "x"), dewey_rows("c", "y"), "x.ID", "y.ID",
            axis="descendant",
        )
        logical = sorted(t.freeze() for t in plan.evaluate({}))
        physical = sorted(t.freeze() for t in run_plan(plan, {}))
        assert logical == physical and logical

    def test_mixed_id_types_raise_clearly(self, doc):
        rows_s = BaseTuples(
            [NestedTuple({"x.ID": id_of(n, "s")}) for n in doc.elements() if n.label == "b"]
        )
        rows_p = BaseTuples(
            [NestedTuple({"y.ID": id_of(n, "p")}) for n in doc.elements() if n.label == "c"]
        )
        plan = StructuralJoin(rows_s, rows_p, "x.ID", "y.ID", axis="descendant")
        with pytest.raises(TypeError):
            plan.evaluate({})


class TestValueJoins:
    def base(self):
        left = BaseTuples([NestedTuple({"x": v}) for v in (1, 2, 2, 3)])
        right = BaseTuples([NestedTuple({"y": v}) for v in (2, 3, 3)])
        return left, right

    @pytest.mark.parametrize("kind", ["j", "s", "o", "nj", "no"])
    def test_hash_join_agreement(self, kind):
        left, right = self.base()
        plan = ValueJoin(
            left, right, Compare(Attr("x", 0), "=", Attr("y", 1)), kind=kind, nest_as="g"
        )
        physical = compile_plan(plan)
        assert "PHashJoin" in physical.pretty()
        agreement(plan)

    def test_non_equality_uses_nested_loops(self):
        left, right = self.base()
        plan = ValueJoin(left, right, Compare(Attr("x", 0), "<", Attr("y", 1)))
        physical = compile_plan(plan)
        assert "PNestedLoopsJoin" in physical.pretty()
        agreement(plan)

    def test_hash_join_null_keys_never_match(self):
        left = BaseTuples([NestedTuple({"x": None})])
        right = BaseTuples([NestedTuple({"y": None})])
        join = PHashJoin(PBase(left.tuples), PBase(right.tuples), "x", "y")
        assert run_physical(join) == []


class TestOtherOperators:
    def test_sort_by_btree(self):
        base = PBase([NestedTuple({"x": v}) for v in (3, 1, 2)])
        out = run_physical(PSort(base, "x"))
        assert [t["x"] for t in out] == [1, 2, 3]

    def test_sort_reproduces_btree_duplicate_order(self):
        rows = [NestedTuple({"x": v, "n": n}) for n, v in enumerate((2, 1, 2, 1, 2))]
        tree = BPlusTree()
        for t in rows:
            tree.insert((t["x"],), t)
        assert run_physical(PSort(PBase(rows), "x")) == list(tree.values_in_order())

    def test_select_project_union_difference_product_groupby(self):
        base = BaseTuples([NestedTuple({"x": v, "y": v % 2}) for v in range(6)])
        plans = [
            Select(base, Compare(Attr("x"), ">", Const(2))),
            Project(base, ["y"], dedup=True),
            Union(base, base),
            Difference(base, BaseTuples(base.tuples[:2])),
            Product(base, BaseTuples([NestedTuple({"z": 1})])),
            GroupBy(base, ["y"], nest_as="g"),
        ]
        for plan in plans:
            agreement(plan)

    def test_map_structural_join_falls_back(self, doc):
        nested = StructuralJoin(
            sid_rows(doc, "a", "a"),
            sid_rows(doc, "b", "b"),
            "a.ID",
            "b.ID",
            axis="child",
            kind="nj",
            nest_as="bs",
        )
        plan = StructuralJoin(
            nested, sid_rows(doc, "c", "c"), "bs/b.ID", "c.ID", axis="child", kind="no",
            nest_as="cs",
        )
        physical = compile_plan(plan)
        assert "PLogicalFallback" in physical.pretty()
        agreement(plan)

    def test_scan_missing_ok_compiles(self):
        plan = Scan("ghost", ["x"], missing_ok=True)
        assert list(run_plan(plan, {})) == []


# -- property test: StackTree vs nested loops over random trees -------------

@st.composite
def random_documents(draw):
    """Small random trees over labels a/b/c serialized as XML."""

    def build(depth: int) -> str:
        label = draw(st.sampled_from("abc"))
        if depth >= 3:
            return f"<{label}/>"
        count = draw(st.integers(min_value=0, max_value=3 - depth))
        inner = "".join(build(depth + 1) for _ in range(count))
        return f"<{label}>{inner}</{label}>" if inner else f"<{label}/>"

    children = "".join(
        build(1) for _ in range(draw(st.integers(min_value=0, max_value=4)))
    )
    return f"<r>{children}</r>"


@settings(max_examples=40, deadline=None)
@given(random_documents(), st.sampled_from("abc"), st.sampled_from("abc"),
       st.sampled_from(["child", "descendant"]), st.sampled_from(["j", "s", "o", "nj", "no"]))
def test_property_stacktree_matches_naive(source, anc_label, desc_label, axis, kind):
    doc = load(source)
    plan = StructuralJoin(
        sid_rows(doc, anc_label, "x"),
        sid_rows(doc, desc_label, "y"),
        "x.ID",
        "y.ID",
        axis=axis,
        kind=kind,
        nest_as="g",
    )
    logical = sorted(t.freeze() for t in plan.evaluate({}))
    physical = sorted(t.freeze() for t in run_plan(plan, {}))
    assert logical == physical

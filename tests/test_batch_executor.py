"""Batch engine tests: Block execution, operator-level agreement of the
compiled closures with the logical algebra, plan-to-closure compilation,
the fingerprint-keyed artifact cache and its invalidation protocol, and
the counters (``plan_compile.*``, ``fallback.materialized_rows``)."""

import gc
import weakref
from collections import Counter

import pytest

from repro import Database
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
from repro.algebra.operators import TemplateAttr, TemplateElement, XMLize
from repro.engine.batch import Block, compile_batch
from repro.engine.context import ExecutionContext
from repro.engine.metrics import MetricsRegistry
from repro.engine.orderdesc import sort_key_for
from repro.engine.physical import PhysicalOperator, compile_plan
from repro.engine.qlog import result_checksum
from repro.workloads import generate_xmark
from repro.xmldata import id_of, load

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
ITEM_QUERY = "//regions//item/name/text()"
CONSTRUCTOR_QUERY = (
    "for $p in //people/person return <r>{ $p/name/text() }</r>"
)


def make_db(scale=1, views=True):
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=scale, seed=0))
    if views:
        db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
        db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


# a case runs its query once, on freshly compiled closures ("batch"), or
# iterates it, running again on the closures the first lap cached ("iter")
LAPS = [pytest.param(1, id="batch"), pytest.param(2, id="iter")]


def run_laps(db, query, laps, **flags):
    """Run ``query`` ``laps`` times and return the last result; from the
    second lap on, the unit plans must come from the compiled-plan cache."""
    for lap in range(laps):
        result = db.query(query, **flags)
        if lap:
            assert result.counters.get("plan_compile.hit", 0) >= 1
            assert result.counters.get("plan_compile.miss", 0) == 0
    return result


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


def batch_agreement(plan, context=None):
    """The compiled batch closure must produce the logical operator's
    output as a multiset, sorted by the order descriptor it advertises."""
    expected = [t.freeze() for t in plan.evaluate(dict(context or {}))]
    physical = compile_plan(plan)
    block = compile_batch(physical)(dict(context or {}))
    got = [t.freeze() for t in block.tuples]
    assert Counter(got) == Counter(expected), physical.pretty()
    assert block.order == physical.output_order
    if block.order is not None:
        keys = [sort_key_for(block.order)(t) for t in block.tuples]
        assert keys == sorted(keys), physical.pretty()
    return got


# -- Block basics -----------------------------------------------------------


class TestBlock:
    def test_columns_are_lazy_and_cached(self, doc):
        tuples = sid_rows(doc, "b", "x").tuples
        block = Block(tuples, order="x.ID")
        column = block.id_column("x.ID")
        assert len(column) == len(tuples)
        assert block.id_column("x.ID") is column  # cached
        values = block.column("x.ID")
        assert values == [t.get("x.ID") for t in tuples]
        pres = block.pre_column("x.ID")
        assert pres == sorted(pres)  # document order in this fixture


# -- operator-level agreement ----------------------------------------------


class TestOperatorAgreement:
    @pytest.mark.parametrize("kind", ["j", "s", "o", "nj", "no"])
    @pytest.mark.parametrize("axis", ["child", "descendant"])
    def test_structural_join(self, doc, kind, axis):
        plan = StructuralJoin(
            sid_rows(doc, "b", "x"),
            sid_rows(doc, "c", "y"),
            "x.ID",
            "y.ID",
            axis=axis,
            kind=kind,
            nest_as="g",
        )
        batch_agreement(plan)

    @pytest.mark.parametrize("kind", ["j", "s", "o", "nj", "no"])
    def test_hash_value_join(self, kind):
        left = BaseTuples([NestedTuple({"x": i % 4}) for i in range(12)])
        right = BaseTuples([NestedTuple({"y": i % 3}) for i in range(9)])
        plan = ValueJoin(
            left, right, Compare(Attr("x"), "=", Attr("y")),
            kind=kind, nest_as="g",
        )
        batch_agreement(plan)

    @pytest.mark.parametrize("kind", ["j", "s", "o", "nj", "no"])
    def test_nested_loops_value_join(self, kind):
        left = BaseTuples([NestedTuple({"x": i}) for i in range(8)])
        right = BaseTuples([NestedTuple({"y": i}) for i in range(8)])
        plan = ValueJoin(
            left, right, Compare(Attr("x"), "<", Attr("y")),
            kind=kind, nest_as="g",
        )
        batch_agreement(plan)

    def test_relational_operators(self):
        base = BaseTuples(
            [NestedTuple({"x": i, "y": i % 3}) for i in range(10)]
        )
        for plan in (
            Select(base, Compare(Attr("x"), ">", Const(2))),
            Project(base, ["y"], dedup=True),
            Project(base, ["y", "x"], renames={"x": "z"}),
            Union(base, base),
            Difference(base, BaseTuples(base.tuples[:4])),
            Product(base, BaseTuples([NestedTuple({"z": 1})])),
            GroupBy(base, ["y"], nest_as="g"),
        ):
            batch_agreement(plan)

    def test_scan_from_context(self):
        plan = Scan("rel", ["x"])
        context = {"rel": [NestedTuple({"x": i}) for i in range(5)]}
        batch_agreement(plan, context)

    def test_scan_missing_relation_message_matches(self):
        physical = compile_plan(Scan("ghost", ["x"]))
        with pytest.raises(KeyError) as logical_err:
            Scan("ghost", ["x"]).evaluate({})
        with pytest.raises(KeyError) as batch_err:
            compile_batch(physical)({})
        assert str(batch_err.value) == str(logical_err.value)

    def test_adapted_fallback_operator(self):
        template = TemplateElement("r", [TemplateAttr("x")])
        plan = XMLize(
            BaseTuples([NestedTuple({"x": i}) for i in range(3)]), template
        )
        physical = compile_plan(plan)
        assert "PLogicalFallback" in physical.pretty()
        rows = batch_agreement(plan)
        assert len(rows) == 3


# -- compilation -------------------------------------------------------------


class POpaque(PhysicalOperator):
    """A physical operator the batch compiler has never heard of."""

    def __init__(self, child):
        self.children = (child,)


class TestCoverage:
    def test_uncovered_operator_detected(self):
        """An operator without a closure builder fails at compile time."""
        physical = compile_plan(BaseTuples([NestedTuple({"x": 1})]))
        with pytest.raises(TypeError, match="POpaque"):
            compile_batch(POpaque(physical))


class TestCompile:
    def test_run_compiles_when_not_given_a_closure(self):
        base = BaseTuples([NestedTuple({"x": i}) for i in range(5)])
        ctx = ExecutionContext()
        plan = Select(base, Compare(Attr("x"), ">", Const(1)))
        physical = compile_plan(plan)
        tuples, metrics = ctx.run(physical, {})
        assert [t["x"] for t in tuples] == [2, 3, 4]
        assert metrics.root.rows_out == 3 and metrics.root.executions == 1


# -- logical vs physical equivalence and metrics exactness -------------------


class TestExecutorEquivalence:
    @pytest.mark.parametrize("query", [PERSON_QUERY, ITEM_QUERY])
    def test_results_and_checksums_match(self, query):
        physical = make_db().query(query, stats=True, physical=True)
        logical = make_db().query(query)
        assert result_checksum(physical) == result_checksum(logical)
        assert [t.freeze() for t in physical.tuples] == [
            t.freeze() for t in logical.tuples
        ]

    def test_metrics_exact_under_batching(self):
        db = make_db()
        first = db.query(PERSON_QUERY, stats=True)
        second = db.query(PERSON_QUERY, stats=True)  # cached closures
        assert len(first.metrics) == len(second.metrics) >= 1
        for tree, again in zip(first.metrics, second.metrics):
            nodes = list(tree.walk())
            assert [n.label for n in nodes] == [
                n.label for n in again.walk()
            ]
            assert [n.rows_out for n in nodes] == [
                n.rows_out for n in again.walk()
            ]
            # every operator ran exactly once, and the root's row count
            # is what the query returned
            assert all(n.executions == 1 for n in nodes)
            assert tree.root.rows_out == len(first.tuples)
            assert tree.root.elapsed > 0.0

    def test_fingerprint_identical_across_executors(self):
        """The execution mode never changes the plan: preparation is
        mode-free, and both modes report the prepared fingerprint."""
        db = make_db()
        prepared = db.prepare(PERSON_QUERY)
        assert db.prepare(PERSON_QUERY).plan_shape == prepared.plan_shape
        logical = db.execute_prepared(prepared)
        physical = db.execute_prepared(prepared, physical=True, stats=True)
        assert (
            logical.plan_fingerprint
            == physical.plan_fingerprint
            == prepared.fingerprint
        )


# -- the fingerprint-keyed compiled-plan cache ------------------------------


class TestCompiledPlanCache:
    def test_miss_then_hit(self):
        db = make_db()
        prepared = db.prepare(PERSON_QUERY)
        first = db.execute_prepared(prepared, stats=True)
        assert first.counters.get("plan_compile.miss", 0) >= 1
        assert first.counters.get("plan_compile.hit", 0) == 0
        second = db.execute_prepared(prepared, stats=True)
        assert second.counters.get("plan_compile.hit", 0) >= 1
        assert second.counters.get("plan_compile.miss", 0) == 0
        assert prepared.fingerprint in db.compiled_plans

    def test_artifact_shared_across_preparations(self):
        db = make_db()
        db.execute_prepared(db.prepare(PERSON_QUERY), stats=True)
        result = db.execute_prepared(db.prepare(PERSON_QUERY), stats=True)
        # identical catalog state → identical fingerprint → compiled
        # closures are reused, not recompiled
        assert result.counters.get("plan_compile.hit", 0) >= 1
        assert result.counters.get("plan_compile.miss", 0) == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda db: db.add_view(
                "v_extra", "//people/person[id:s]{/emailaddress[id:s, val]}"
            ),
            lambda db: db.add_document_xml("<extra/>", "extra.xml"),
            lambda db: db.override_statistic("scan.v_person", 5.0),
        ],
        ids=["view", "document", "statistics"],
    )
    def test_catalog_mutation_invalidates_artifact(self, mutate):
        db = make_db()
        db.execute_prepared(db.prepare(PERSON_QUERY), stats=True)
        assert len(db.compiled_plans) == 1
        version_before = db.catalog_version
        mutate(db)
        assert db.catalog_version != version_before
        result = db.execute_prepared(db.prepare(PERSON_QUERY), stats=True)
        assert result.counters.get("plan_compile.invalidate", 0) >= 1
        assert result.counters.get("plan_compile.miss", 0) >= 1

    def test_stale_execution_still_correct(self):
        db = make_db()
        prepared = db.prepare(PERSON_QUERY)
        before = db.execute_prepared(prepared, stats=True)
        db.override_statistic("scan.v_person", 123.0)
        after = db.execute_prepared(db.prepare(PERSON_QUERY), stats=True)
        assert result_checksum(before) == result_checksum(after)


# -- fallback materialization bound -----------------------------------------


class TestFallbackMaterialization:
    @pytest.mark.parametrize("laps", LAPS)
    def test_materialized_rows_counted(self, laps):
        # the fallback keeps no inputs between executions: a run on the
        # cached closures materializes (and counts) its rows afresh
        result = run_laps(make_db(), CONSTRUCTOR_QUERY, laps, stats=True)
        assert result.counters.get("fallback.materialized_rows", 0) > 0

    def test_cached_plan_does_not_keep_query_context_alive(self):
        """A compiled plan lives on in the plan caches after its query;
        the fallback's materialized inputs (and, through them, the
        query's execution context) must not."""
        db = make_db()
        ctx = db.execution_context()
        watched = weakref.ref(ctx)
        db.query(CONSTRUCTOR_QUERY, physical=True, stats=True, context=ctx)
        assert len(db.compiled_plans) == 1
        del ctx
        gc.collect()
        assert watched() is None

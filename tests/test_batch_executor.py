"""Batch engine tests: Block execution, operator-level agreement of the
compiled closures with the logical algebra, plan-to-closure compilation,
the fingerprint-keyed artifact cache and its invalidation protocol, the
counters (``plan_compile.*``, ``fallback.materialized_rows``), rename
folding and Regroup, and every enumerated rewriting of the 14-view
catalog, compiled and logical, checked against the base store."""

import functools
import gc
import json
import weakref
from collections import Counter

import pytest

from repro import Database
from repro.algebra import (
    Attr,
    BaseTuples,
    Compare,
    Const,
    DerivedColumn,
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
from repro.algebra.operators import (
    DeepRename,
    Regroup,
    TemplateAttr,
    TemplateElement,
    XMLize,
)
from repro.algebra.plans import scans_used
from repro.core.embedding import evaluate_pattern
from repro.engine.batch import Block, compile_batch
from repro.engine.context import ExecutionContext
from repro.engine.metrics import MetricsRegistry
from repro.engine.orderdesc import satisfies, sort_key_for
from repro.engine.physical import (
    PLogicalFallback,
    PScan,
    PSort,
    PhysicalOperator,
    compile_plan,
)
from repro.engine.qlog import result_checksum
from repro.workloads import XMARK_QUERIES, generate_xmark
from repro.xmldata import id_of, load
from repro.xquery import extract, parse_query
from tests.reference import reference_execute, reference_query
from tests.rewrite_golden import CATALOG_14, GOLDEN_PATH, VIEW_QUERIES, battery

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
    def test_structural_join_over_null_ids(self, doc, kind):
        """A ⊥ identifier (an optional edge's padding, an underivable
        parent) matches nothing, as in the logical join — it must not
        reach the stack's interval tests."""

        def with_null(rows, name):
            return BaseTuples(rows.tuples + [NestedTuple({f"{name}.ID": None})])

        plan = StructuralJoin(
            with_null(sid_rows(doc, "b", "x"), "x"),
            with_null(sid_rows(doc, "c", "y"), "y"),
            "x.ID",
            "y.ID",
            axis="descendant",
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
            Project(base, ["y", "z"], sources={"z": "x"}),
            Union(base, base),
            Difference(base, BaseTuples(base.tuples[:4])),
            Product(base, BaseTuples([NestedTuple({"z": 1})])),
            GroupBy(base, ["y"], nest_as="g"),
        ):
            batch_agreement(plan)

    def test_dedup_projection_of_collections(self):
        # collection values do not hash: they deduplicate frozen
        member = NestedTuple({"m": 1})
        base = BaseTuples(
            [NestedTuple({"x": i % 2, "g": [member] * (i % 2)}) for i in range(6)]
        )
        plan = Project(base, ["g", "y"], dedup=True, sources={"y": "x"})
        assert len(batch_agreement(plan)) == 2

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
        plan = DerivedColumn(
            BaseTuples([NestedTuple({"x": i}) for i in range(3)]),
            "y",
            lambda t: t["x"] * 2,
        )
        physical = compile_plan(plan)
        assert "PLogicalFallback" in physical.pretty()
        rows = batch_agreement(plan)
        assert len(rows) == 3

    def test_xmlize(self):
        template = TemplateElement("r", [TemplateAttr("x")])
        plan = XMLize(
            BaseTuples([NestedTuple({"x": i}) for i in range(3)]), template
        )
        physical = compile_plan(plan)
        assert physical.label().startswith("PXMLize")
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
        physical = make_db().query(query, stats=True)
        logical = reference_query(make_db(), query)
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
        """The execution path never changes the plan: preparation is
        path-free, and the compiled runs (plain and instrumented) report
        the prepared fingerprint, answering as the logical reference."""
        db = make_db()
        prepared = db.prepare(PERSON_QUERY)
        assert db.prepare(PERSON_QUERY).plan_shape == prepared.plan_shape
        logical = reference_execute(db, prepared)
        plain = db.execute_prepared(prepared)
        physical = db.execute_prepared(prepared, stats=True)
        assert (
            logical.plan_fingerprint
            == plain.plan_fingerprint
            == physical.plan_fingerprint
            == prepared.fingerprint
        )
        assert (
            result_checksum(logical)
            == result_checksum(plain)
            == result_checksum(physical)
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


def derived_parent_db():
    """A store whose only view serves person IDs by deriving them from
    navigational name IDs: the rewriting runs a ``DerivedColumn``, which
    still compiles to the logical fallback."""
    db = make_db(views=False)
    db.add_view("v_names_p", "//people/person/name[id:p, val]")
    return db


class TestFallbackMaterialization:
    @pytest.mark.parametrize("laps", LAPS)
    def test_materialized_rows_counted(self, laps):
        # the fallback keeps no inputs between executions: a run on the
        # cached closures materializes (and counts) its rows afresh
        result = run_laps(
            derived_parent_db(), CONSTRUCTOR_QUERY, laps, stats=True
        )
        assert result.counters.get("fallback.materialized_rows", 0) > 0

    def test_cached_plan_does_not_keep_query_context_alive(self):
        """A compiled plan lives on in the plan caches after its query;
        the fallback's materialized inputs (and, through them, the
        query's execution context) must not."""
        db = derived_parent_db()
        ctx = db.execution_context()
        watched = weakref.ref(ctx)
        db.query(CONSTRUCTOR_QUERY, stats=True, context=ctx)
        assert len(db.compiled_plans) == 1
        del ctx
        gc.collect()
        assert watched() is None


# -- rename folding, Regroup and every enumerated rewriting -------------------


def renamed_scan(relation, columns, mapping):
    return DeepRename(Scan(relation, columns), mapping)


class TestRenameLowering:
    ROWS = {
        "r": [
            NestedTuple({"e1.ID": i, "e1.V": f"v{i % 3}"}) for i in range(6)
        ],
        "s": [NestedTuple({"e1.ID": i % 4, "e2.V": i}) for i in range(6)],
    }

    def test_chain_composes_into_the_scan(self):
        plan = DeepRename(
            renamed_scan("r", ["e1.ID", "e1.V"], {"e1": "u0:e1"}),
            {"u0:e1": "n1"},
        )
        physical = compile_plan(plan, {"r": "e1.ID"})
        assert physical.label() == "PScan(r ρ[e1→n1])"
        assert physical.output_order == "n1.ID"
        batch_agreement(plan, self.ROWS)

    def test_projection_over_a_flat_scan_renames_projected_columns(self):
        plan = Project(
            DeepRename(
                renamed_scan("r", ["e1.ID", "e1.V"], {"e1": "u0:e1"}),
                {"u0:e1": "n1"},
            ),
            ["n1.V"],
            dedup=True,
        )
        physical = compile_plan(plan)
        assert physical.shape() == "PProject(PScan(r))"
        assert physical.sources == {"n1.V": "e1.V"}
        assert len(batch_agreement(plan, self.ROWS)) == 3

    @pytest.mark.parametrize("join", ["structural", "value"])
    def test_rename_pushes_through_a_plain_join(self, join):
        # the same relation read twice: u0:/u1: must stay apart after
        # the prefix renames compose with the final one
        left = renamed_scan("r", ["e1.ID", "e1.V"], {"e1": "u0:e1"})
        right = renamed_scan("r", ["e1.ID", "e1.V"], {"e1": "u1:e1"})
        if join == "structural":
            ids = {
                "r": [
                    NestedTuple({"e1.ID": sid, "e1.V": n.label})
                    for n in load("<a><b/><a><b/></a></a>").elements()
                    for sid in [id_of(n, "s")]
                ]
            }
            joined = StructuralJoin(
                left, right, "u0:e1.ID", "u1:e1.ID", axis="descendant"
            )
        else:
            ids = self.ROWS
            joined = ValueJoin(
                left, right, Compare(Attr("u0:e1.V", 0), "=", Attr("u1:e1.V", 1))
            )
        plan = DeepRename(joined, {"u0:e1": "n1", "u1:e1": "n2"})
        physical = compile_plan(plan, {"r": "e1.ID"})
        assert "PRename" not in physical.pretty()
        assert "PSort" not in physical.pretty()
        scans = [op.label() for op in physical.walk() if op.label().startswith("PScan")]
        assert scans == ["PScan(r ρ[e1→n1])", "PScan(r ρ[e1→n2])"]
        assert batch_agreement(plan, ids)

    def test_colliding_rename_stays_above_the_join(self):
        left = Scan("r", ["e1.ID", "e1.V"])
        right = Scan("s", ["e1.ID", "e2.V"])
        joined = ValueJoin(
            DeepRename(left, {"e1": "a"}),
            DeepRename(right, {"e1": "b"}),
            Compare(Attr("a.ID", 0), "=", Attr("b.ID", 1)),
        )
        # both sides' IDs would land on x.ID: pushing down would collide
        plan = DeepRename(joined, {"a": "x", "b": "x"})
        physical = compile_plan(plan)
        assert physical.label().startswith("PRename")
        batch_agreement(plan, self.ROWS)

    def test_nested_members_are_renamed(self):
        rows = {
            "n": [
                NestedTuple(
                    {
                        "e1.ID": i,
                        "e2": [NestedTuple({"e2.V": j}) for j in range(i)],
                    }
                )
                for i in range(3)
            ]
        }
        plan = renamed_scan("n", ["e1.ID", "e2"], {"e1": "n1", "e2": "n2"})
        physical = compile_plan(plan)
        assert not physical.flat
        got = compile_batch(physical)(rows).tuples
        assert [t.names() for t in got] == [["n1.ID", "n2"]] * 3
        assert got[2]["n2"][1].names() == ["n2.V"]
        batch_agreement(plan, rows)


class TestRegroup:
    def test_padding_becomes_an_empty_collection(self):
        rows = BaseTuples(
            [
                NestedTuple({"p.ID": 1, "m.ID": 10, "m.V": "a"}),
                NestedTuple({"p.ID": 1, "m.ID": 11, "m.V": "a"}),
                NestedTuple({"p.ID": 2, "m.ID": None, "m.V": None}),
            ]
        )
        plan = Regroup(rows, ["p.ID"], [("m", ["m.V"], ["m.V", "m.ID"])])
        assert compile_plan(plan).label() == "PHashGroupBy[p.ID → m]"
        batch_agreement(plan)
        got = compile_batch(compile_plan(plan))(None).tuples
        # one collection: equal-valued members are kept, padding dropped
        assert [len(t["m"]) for t in got] == [2, 0]

    def test_several_collections_deduplicate_by_identity(self):
        # the flat input is the cross product of two collections, with
        # equal-valued members that only their IDs tell apart
        rows = BaseTuples(
            [
                NestedTuple(
                    {"k.ID": k, "a.ID": (k, a), "a.V": "x", "b.ID": (k, b), "b.V": "y"}
                )
                for k in range(2)
                for a in range(2)
                for b in range(3)
            ]
            + [
                NestedTuple(
                    {"k.ID": 2, "a.ID": None, "a.V": None, "b.ID": 7, "b.V": "z"}
                )
            ]
        )
        plan = Regroup(
            rows,
            ["k.ID"],
            [("a", ["a.V"], ["a.V", "a.ID"]), ("b", ["b.V"], ["b.V", "b.ID"])],
        )
        batch_agreement(plan)
        got = compile_batch(compile_plan(plan))(None).tuples
        assert [(len(t["a"]), len(t["b"])) for t in got] == [(2, 3), (2, 3), (0, 1)]

    def test_collection_keys_group_by_value(self):
        member = [NestedTuple({"c.V": 1})]
        rows = BaseTuples(
            [
                NestedTuple({"c": member, "m.V": i}) for i in range(2)
            ]
            + [NestedTuple({"c": [], "m.V": 5})]
        )
        plan = Regroup(rows, ["c"], [("m", ["m.V"], ["m.V"])])
        assert len(batch_agreement(plan)) == 2


#: (documents, query id, views) of the enumerated rewritings whose compiled
#: and logical answers differ from the base store's: structural IDs are not
#: document-qualified yet, so joins and duplicate elimination confuse nodes
#: of different documents (ROADMAP item 1a)
ITEM_1A = "item 1a: structural IDs are not document-qualified"
WRONG = {
    **{
        (2, qid, views): ITEM_1A
        for qid in ("v02", "v10")
        for views in [
            ("v_item",),
            ("v_item_names",),
            ("v_item", "v_item"),
            ("v_item", "v_item_lis"),
            ("v_item", "v_item_names"),
            ("v_item", "v_items"),
            ("v_item", "v_names"),
            ("v_item_names", "v_item_lis"),
            ("v_item_names", "v_item_names"),
            ("v_items", "v_item_names"),
        ]
    },
    **{
        (2, qid, ("v_auctions", "v_initial")): ITEM_1A
        for qid in ("v04", "q04", "q11", "q12")
    },
    (2, "v06", ("v_listitems", "v_keywords")): ITEM_1A,
    **{
        (2, "v07", (view, "v_quantity")): ITEM_1A
        for view in ("v_item", "v_item_lis", "v_item_names", "v_items")
    },
    **{
        (2, qid, views): ITEM_1A
        for qid in ("v01", "q08", "q09")
        for views in [("v_names", "v_emails"), ("v_names", "v_people")]
    },
}

#: the ``WRONG`` cases whose compiled and logical answers also differ from
#: each other; in ``v02`` and ``v10`` the two paths are wrong alike
DIVERGENT = {case for case in WRONG if case[1] not in ("v02", "v10")}


#: the rewrite golden's corpora, by name: one XMark scale-2 document of
#: each golden seed
SCALE_2 = {"scale2.0": 0, "scale2.1": 1, "scale2.2": 2}


def catalog_db(documents):
    db = Database(metrics=MetricsRegistry())
    if documents in SCALE_2:
        db.add_document(generate_xmark(scale=2, seed=SCALE_2[documents]))
    else:
        db.add_documents(
            [
                generate_xmark(scale=1, seed=seed, name=f"xmark{seed}.xml")
                for seed in range(documents)
            ]
        )
    for name, text in CATALOG_14:
        db.add_view(name, text)
    return db


def sweep_patterns(documents, db):
    """``(query id, pattern, max_results)`` of one corpus.  On ``documents``
    XMark scale-1 documents: every pattern of the view queries and XMark.
    On a golden scale-2 document: ``v02`` and ``v10``, and the seed's
    random patterns the golden records a ``v_names`` ⨝ ``v_item_lis``
    rewriting for, each with its full enumeration."""
    if documents in SCALE_2:
        queries = {qid: VIEW_QUERIES[qid] for qid in ("v02", "v10")}
    else:
        queries = {**VIEW_QUERIES, **XMARK_QUERIES}
        queries.pop("q07")  # a three-way cartesian product, in no battery
    for qid, text in queries.items():
        for unit in extract(parse_query(text)).units:
            for pattern in unit.patterns:
                yield qid, pattern, (None if documents in SCALE_2 else 10)
    if documents in SCALE_2:
        seed = str(SCALE_2[documents])
        golden = json.loads(GOLDEN_PATH.read_text())[seed]
        for pattern_id, pattern in battery(db.summary, SCALE_2[documents]):
            if pattern_id.startswith("r") and ["join", ["v_names", "v_item_lis"]] in [
                entry[:2] for entry in golden[pattern_id]["rewritings"]
            ]:
                yield pattern_id, pattern, None


@functools.lru_cache(maxsize=None)
def enumerated_rewritings(documents):
    """The catalog database on one corpus (``documents`` XMark scale-1
    documents, or a ``SCALE_2`` name), and every rewriting ``Database.rewrite``
    enumerates for every pattern of :func:`sweep_patterns`, as
    ``(query id, views) → (pattern, rewriting)``."""
    db = catalog_db(documents)
    found = {}
    for qid, pattern, max_results in sweep_patterns(documents, db):
        for rewriting in db.rewrite(pattern, max_results=max_results):
            key = (qid, rewriting.views)
            assert key not in found, key
            found[key] = pattern, rewriting
    return db, found


def sweep_cases():
    for documents in (1, 2, *SCALE_2):
        for qid, views in enumerated_rewritings(documents)[1]:
            reason = WRONG.get((documents, qid, views))
            yield pytest.param(
                documents,
                qid,
                views,
                id=f"{documents}-{qid}-{'+'.join(views)}",
                marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [],
            )


def frozen(tuples):
    return Counter(t.freeze() for t in tuples)


@functools.lru_cache(maxsize=None)
def base_store_answer(documents, pattern):
    """The embedding semantics (§4.1) of one swept pattern, per document."""
    db = enumerated_rewritings(documents)[0]
    return frozen(t for doc in db.documents for t in evaluate_pattern(pattern, doc))


class TestEveryRewritingCompiles:
    @pytest.mark.parametrize("documents, qid, views", list(sweep_cases()))
    def test_answers_equal_the_base_store(self, documents, qid, views):
        """Every enumerated rewriting, not only the chosen one: its compiled
        batch output and the logical reference both equal the embedding
        semantics (§4.1) per document, as multisets."""
        db, found = enumerated_rewritings(documents)
        pattern, rewriting = found[qid, views]
        expected = base_store_answer(documents, pattern)
        physical = compile_plan(rewriting.plan, db.store.scan_orders())
        assert frozen(compile_batch(physical)(db.store.context()).tuples) == expected
        assert frozen(rewriting.plan.evaluate(db.store.context())) == expected

    def test_every_wrong_case_is_enumerated(self):
        enumerated = {
            (documents, qid, views)
            for documents in (1, 2)
            for qid, views in enumerated_rewritings(documents)[1]
        }
        assert set(WRONG) <= enumerated
        assert len(enumerated) == 2 * 56
        assert len(WRONG) == 35 and {case[0] for case in WRONG} == {2}

    def test_scale_2_sweep_covers_the_golden_joins(self):
        """The golden's scale-2 corpora: ``v02``/``v10`` and the 51 random
        patterns (17, 14 and 20 per seed) answered through ``v_names`` ⨝
        ``v_item_lis``, 13 rewritings each, every one a case of the sweep
        above."""
        random_ids = 0
        for documents in SCALE_2:
            by_pattern = Counter(
                qid for qid, _views in enumerated_rewritings(documents)[1]
            )
            assert all(count == 13 for count in by_pattern.values())
            assert {"v02", "v10"} <= set(by_pattern)
            random_ids += sum(qid.startswith("r") for qid in by_pattern)
        assert random_ids == 51

    @pytest.mark.parametrize("documents", [1, 2])
    def test_compiled_equals_logical(self, documents):
        """Every enumerated rewriting compiles with no fallback and no
        redundant sort, and its compiled batch output is the logical
        plan's, as a multiset, except where both are wrong (``WRONG``)
        and wrong differently (``DIVERGENT``)."""
        db, found = enumerated_rewritings(documents)
        covered, divergent = set(), set()
        for (qid, views), (_pattern, rewriting) in found.items():
            # the plan reads the views it names
            assert sorted(scans_used(rewriting.plan)) == sorted(rewriting.views)
            physical = compile_plan(rewriting.plan, db.store.scan_orders())
            ops = list(physical.walk())
            assert not any(
                isinstance(op, PLogicalFallback) for op in ops
            ), physical.pretty()
            if any(
                isinstance(op, PScan) and op.renames and not op.flat
                and op.name == "v_item_lis"
                for op in ops
            ):
                covered.add("nested no: collection renamed")
            if len(set(rewriting.views)) < len(rewriting.views):
                covered.add("one relation read twice")
            assert not any(
                isinstance(op, PSort)
                and satisfies(op.children[0].output_order, op.path)
                for op in ops
            ), physical.pretty()
            rows = compile_batch(physical)(db.store.context()).tuples
            if frozen(rows) != frozen(rewriting.plan.evaluate(db.store.context())):
                divergent.add((documents, qid, views))
        assert divergent == {case for case in DIVERGENT if case[0] == documents}
        assert covered == {
            "nested no: collection renamed",
            "one relation read twice",
        }

    def test_optional_edge_pads_to_an_empty_collection(self):
        """Every XMark person has an e-mail address, so ``v_emails``'s
        optional edge needs a document where one is missing: its ⊥
        padding must become an empty collection, as in the logical γⁿ."""
        db = Database(metrics=MetricsRegistry())
        db.add_document_xml(
            "<site><people>"
            "<person><name>A</name><emailaddress>a@x</emailaddress></person>"
            "<person><name>B</name></person>"
            "</people></site>",
            "people.xml",
        )
        db.add_view("v_emails", dict(CATALOG_14)["v_emails"])
        (pattern,) = extract(parse_query(VIEW_QUERIES["v03"])).units[0].patterns
        (rewriting,) = [r for r in db.rewrite(pattern) if r.kind == "single"]
        physical = compile_plan(rewriting.plan, db.store.scan_orders())
        assert "PLogicalFallback" not in physical.pretty()
        rows = compile_batch(physical)(db.store.context()).tuples
        assert Counter(t.freeze() for t in rows) == Counter(
            t.freeze() for t in rewriting.plan.evaluate(db.store.context())
        )
        assert sorted(len(t["n2"]) for t in rows) == [0, 1]


def catalog_subset(views):
    """XMark scale 1, seed 0, with the named views of the 14-view catalog."""
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=1, seed=0))
    for name, text in CATALOG_14:
        if name in views:
            db.add_view(name, text)
    return db


SELF_JOIN_QUERY = (
    "for $p in //people/person, $q in //people/person "
    "where $q/name = $p/name return <r>{ $p/name/text() }</r>"
)

#: a person with two names, so one ``name`` node of ``v_person`` answers
#: for ``$p/name`` and ``$q/name`` at once
SELF_JOIN_DOCUMENT = (
    "<site><people>"
    '<person id="p1"><name>Ann</name><name>Bob</name></person>'
    '<person id="p2"><name>Bob</name></person>'
    '<person id="p3"><name>Cy</name></person>'
    "</people></site>"
)


class TestViewAnswersEqualTheBaseStore:
    """Queries whose chosen rewriting once answered wrongly — a flipped
    structural glue joined ``v_names`` with itself; one ``v_person`` node
    serving two query nodes answered only one — compared with a view-free
    database through the compiled path and the logical reference."""

    @pytest.mark.parametrize(
        "query, views, rows",
        [
            pytest.param(
                VIEW_QUERIES["v01"],
                {name for name, _text in CATALOG_14} - {"v_person"},
                4,
                id="v01-without-v_person",
            ),
            pytest.param(
                SELF_JOIN_QUERY, {"v_person"}, 6, id="name-self-join-over-v_person"
            ),
        ],
    )
    def test_answers_equal_a_view_free_database(self, query, views, rows):
        db = catalog_subset(views)
        assert all(
            resolution.rewriting is not None
            for unit in db.prepare(query).units
            for resolution in unit.resolutions
        )
        expected = sorted(map(str, catalog_subset(set()).query(query).xml))
        assert len(expected) == rows
        assert sorted(map(str, db.query(query).xml)) == expected
        assert sorted(map(str, reference_query(db, query).xml)) == expected

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "ROADMAP 1g: containment checks a view node aligned to two "
            "return positions against the last one only"
        ),
    )
    def test_view_node_aligned_to_two_query_nodes(self):
        """A person with two names: ``v_person``'s one ``name`` node serves
        both ``$p/name`` and ``$q/name``.  The base store answers one row
        per person with all of its names (``AnnBob`` three times, ``Bob``
        twice, ``Cy``); the view rewriting answers one row per name."""

        def people_db(views):
            db = Database(metrics=MetricsRegistry())
            db.add_document_xml(SELF_JOIN_DOCUMENT, "people.xml")
            for name, text in CATALOG_14:
                if name in views:
                    db.add_view(name, text)
            return db

        db = people_db({"v_person"})
        assert all(
            resolution.rewriting is not None
            for unit in db.prepare(SELF_JOIN_QUERY).units
            for resolution in unit.resolutions
        )
        expected = sorted(map(str, people_db(set()).query(SELF_JOIN_QUERY).xml))
        assert expected == [
            "<r>AnnBob</r>", "<r>AnnBob</r>", "<r>AnnBob</r>",
            "<r>Bob</r>", "<r>Bob</r>", "<r>Cy</r>",
        ]
        assert sorted(map(str, db.query(SELF_JOIN_QUERY).xml)) == expected


#: the nine view-answered queries of the view_warm benchmark workload
VIEW_WARM = [qid for qid in VIEW_QUERIES if qid != "v09"]


class TestViewBatteryPlanShape:
    def test_no_fallback_and_no_redundant_sort(self):
        db = catalog_db(1)
        orders = db.store.scan_orders()
        for qid in VIEW_WARM:
            prepared = db.prepare(VIEW_QUERIES[qid])
            assert prepared.units
            for unit in prepared.units:
                assert any(r.rewriting is not None for r in unit.resolutions), qid
                plans = [ctx_compile(db, unit.logical, orders)]
                plans += [
                    ctx_compile(db, r.rewriting.plan, orders)
                    for r in unit.resolutions
                    if r.rewriting is not None
                ]
                for plan in plans:
                    for op in plan.walk():
                        assert not isinstance(op, PLogicalFallback), (qid, plan.pretty())
                        if isinstance(op, PSort):
                            assert not satisfies(
                                op.children[0].output_order, op.path
                            ), (qid, plan.pretty())


def ctx_compile(db, logical, orders):
    return db.execution_context().compile(logical, orders)

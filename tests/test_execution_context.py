"""Tests for the ExecutionContext spine: cost model, cost-based
compilation, per-operator metrics, and the three-stage EXPLAIN."""

import pytest

from repro import Database
from repro.algebra.model import NestedTuple
from repro.algebra.operators import BaseTuples, Select, StructuralJoin, ValueJoin, XMLize
from repro.algebra.plans import annotate_cardinalities, cardinality_profile
from repro.algebra.predicates import Attr, Compare, Const
from repro.engine import (
    CostModel,
    ExecutionContext,
    PScan,
    Tunables,
    compile_plan,
)
from repro.engine.batch import compile_batch
from repro.engine.orderdesc import project_order
from repro.workloads import generate_xmark
from tests.conftest import AUCTION_XML


def rows(name, values):
    return BaseTuples([NestedTuple({name: v}) for v in values])


def equality_join(n_left, n_right):
    return ValueJoin(
        rows("x", range(n_left)),
        rows("y", range(n_right)),
        Compare(Attr("x", 0), "=", Attr("y", 1)),
    )


class TestCostModel:
    def test_hash_join_above_threshold(self):
        model = CostModel()
        assert model.choose_join(50, 50) == "hash"

    def test_nested_loops_below_threshold(self):
        model = CostModel()
        assert model.choose_join(1, 1) == "nested"

    def test_costs_cross_over_monotonically(self):
        # once the hash join wins, it keeps winning as inputs grow
        model = CostModel()
        choices = [model.choose_join(n, n) for n in range(1, 40)]
        first_hash = choices.index("hash")
        assert all(c == "hash" for c in choices[first_hash:])

    def test_unknown_cardinalities_assume_large_inputs(self):
        model = CostModel()
        assert model.choose_join(None, None) == "hash"

    def test_tunables_shift_the_threshold(self):
        expensive_build = CostModel(Tunables(hash_build_cost=1000.0))
        assert expensive_build.choose_join(10, 10) == "nested"


class TestCostBasedCompilation:
    def test_large_equality_join_compiles_to_hash(self):
        physical = compile_plan(equality_join(50, 50))
        assert "PHashJoin" in physical.pretty()

    def test_tiny_equality_join_compiles_to_nested_loops(self):
        physical = compile_plan(equality_join(1, 1))
        assert "PNestedLoopsJoin" in physical.pretty()

    def test_choice_follows_cost_model_not_fixed_rules(self):
        # same plan, different tunables → different algorithm
        plan = equality_join(10, 10)
        default = compile_plan(plan)
        assert "PHashJoin" in default.pretty()
        ctx = ExecutionContext(tunables=Tunables(hash_build_cost=1000.0))
        overridden = compile_plan(plan, context=ctx)
        assert "PNestedLoopsJoin" in overridden.pretty()

    def test_estimates_stamped_on_physical_operators(self):
        physical = compile_plan(equality_join(8, 4))
        scans = [op for op in physical.walk() if not op.children]
        assert sorted(op.estimated_rows for op in scans) == [4.0, 8.0]

    def test_registry_overrides_builtin_lowering(self):
        ctx = ExecutionContext(
            registry={BaseTuples: lambda op, lower, c: PScan("swapped")}
        )
        physical = compile_plan(rows("x", range(3)), context=ctx)
        assert physical.label() == "PScan(swapped)"


class TestCardinalityWalk:
    def test_walk_covers_every_operator(self):
        plan = Select(equality_join(5, 5), Compare(Attr("x"), ">", Const(2)))
        assert len(list(plan.walk())) == 4

    def test_annotations_key_by_node_identity(self):
        plan = equality_join(6, 3)
        ctx = ExecutionContext()
        estimates = annotate_cardinalities(plan, ctx)
        assert estimates[id(plan.children[0])] == 6.0
        assert estimates[id(plan.children[1])] == 3.0

    def test_profile_pairs_labels_with_estimates(self):
        profile = cardinality_profile(rows("x", range(7)), ExecutionContext())
        assert profile == [("BaseTuples[7]", 7.0)]

    def test_selection_applies_selectivity(self):
        plan = Select(rows("x", range(100)), Compare(Attr("x"), ">", Const(2)))
        ctx = ExecutionContext()
        assert ctx.estimate(plan) == pytest.approx(
            100 * ctx.tunables.predicate_selectivity
        )


class TestSortPlacement:
    def sid_join(self, doc, base_left, base_right):
        return StructuralJoin(
            base_left, base_right, "x.ID", "y.ID", axis="descendant"
        )

    def test_projection_preserves_order_descriptor(self):
        from repro.algebra.operators import Project, Scan

        plan = StructuralJoin(
            Project(Scan("bs", ["x.ID", "x.V"]), ["x.ID"]),
            Scan("cs", ["y.ID"]),
            "x.ID",
            "y.ID",
            axis="descendant",
        )
        physical = compile_plan(plan, {"bs": "x.ID", "cs": "y.ID"})
        assert "PSort" not in physical.pretty()

    def test_projection_translates_renamed_descriptor(self):
        assert project_order("x.ID", ["x.ID"], {"x.ID": "z.ID"}) == "z.ID"
        assert project_order("x.ID", ["x.V"]) is None
        assert project_order(None, ["x.ID"]) is None

    def test_projection_dropping_order_attr_still_sorts(self):
        from repro.algebra.operators import Project, Scan

        plan = StructuralJoin(
            Project(Scan("bs", ["x.ID", "z.ID"]), ["z.ID"], renames={"z.ID": "x.ID"}),
            Scan("cs", ["y.ID"]),
            "x.ID",
            "y.ID",
            axis="descendant",
        )
        # bs is ordered by x.ID, but the projection keeps only z.ID
        # (renamed to x.ID) — a *different* attribute, so a sort is needed
        physical = compile_plan(plan, {"bs": "x.ID", "cs": "y.ID"})
        assert "PSort" in physical.pretty()


class TestPlanMetrics:
    def run_with_metrics(self, plan, data=None):
        ctx = ExecutionContext()
        physical = compile_plan(plan, context=ctx)
        tuples, metrics = ctx.run(physical, data or {})
        return tuples, metrics

    def test_rows_out_matches_result(self):
        tuples, metrics = self.run_with_metrics(rows("x", range(9)))
        assert len(tuples) == 9
        assert metrics.root.rows_out == 9

    def test_filter_counts_are_monotone(self):
        plan = Select(rows("x", range(20)), Compare(Attr("x"), "<", Const(5)))
        tuples, metrics = self.run_with_metrics(plan)
        assert len(tuples) == 5
        for node in metrics.walk():
            assert node.rows_out >= 0
            assert node.executions == 1
        # a selection can only shrink its input
        assert metrics.root.rows_out <= metrics.root.rows_in
        assert metrics.root.rows_in == 20

    def test_join_metrics_record_both_inputs(self):
        tuples, metrics = self.run_with_metrics(equality_join(50, 50))
        assert metrics.root.rows_in == 100
        assert metrics.root.rows_out == len(tuples) == 50

    def test_estimates_flow_into_metrics(self):
        _, metrics = self.run_with_metrics(rows("x", range(4)))
        assert metrics.root.estimated_rows == 4.0

    def test_elapsed_accumulates(self):
        _, metrics = self.run_with_metrics(equality_join(100, 100))
        assert metrics.root.elapsed > 0.0

    def test_pretty_shows_est_and_act(self):
        _, metrics = self.run_with_metrics(rows("x", range(3)))
        assert "est=3.0" in metrics.pretty()
        assert "act=3" in metrics.pretty()


class TestLogicalFallbackMaterialization:
    def fallback_plan(self):
        from repro.algebra.operators import TemplateAttr, TemplateElement

        template = TemplateElement("r", [TemplateAttr("x")])
        return XMLize(rows("x", [1, 2, 3]), template)

    def test_children_materialize_exactly_once_per_execution(self):
        ctx = ExecutionContext()
        physical = compile_plan(self.fallback_plan(), context=ctx)
        assert "PLogicalFallback" in physical.pretty()
        _, metrics = ctx.run(physical, {})
        (child,) = metrics.root.children
        assert child.executions == 1
        assert child.rows_out == 3

    def test_fresh_context_rematerializes(self):
        ctx = ExecutionContext()
        physical = compile_plan(self.fallback_plan(), context=ctx)
        run = compile_batch(physical)
        metrics = ctx.instrument(physical)
        first, second = {}, {}  # two live context objects, distinct ids
        assert len(run(first).tuples) == len(run(second).tuples) == 3
        (child,) = metrics.root.children
        assert child.executions == 2


class TestExplain:
    @pytest.fixture()
    def db(self):
        return Database.from_xml(AUCTION_XML, "auction.xml")

    def test_report_iterates_resolutions(self, db):
        (resolution,) = db.explain("//item/name/text()")
        assert resolution.access_path == "base"

    def test_report_carries_three_stages(self, db):
        db.add_view("v", "//item[id:s]{/name[id:s, val]}")
        report = db.explain("//item/name/text()")
        (unit,) = report.units
        assert "PatternAccess" in unit.logical.pretty()
        assert unit.rewritten[0] is not None  # view-based plan chosen
        assert "PScan(__pattern_0)" in unit.physical.pretty()
        assert unit.metrics.root.rows_out == len(
            db.query("//item/name/text()").values
        )

    def test_estimated_and_actual_side_by_side(self, db):
        report = db.explain("//item/name/text()")
        (resolution,) = report
        assert resolution.estimated_cardinality is not None
        assert resolution.actual_cardinality == 2
        rendered = report.render()
        assert "est=" in rendered and "act=" in rendered
        assert "→" in rendered

    def test_query_stats_collects_metrics(self, db):
        result = db.query("//item/name/text()", stats=True)
        assert result.values == ["Fish", "Rock"]
        assert len(result.metrics) == 1
        assert result.metrics[0].root.rows_out == 2

    def test_stats_results_match_plain_results(self, db):
        query = "for $i in //item return <r>{ $i/name/text() }</r>"
        assert db.query(query, stats=True).xml == db.query(query).xml


class TestXMarkEstimateRegression:
    """Estimated vs. actual cardinality on the XMark sample.

    Documented bound (DESIGN.md, "Execution pipeline & EXPLAIN"):
    predicate-free structural patterns must estimate within 25% of the
    actual count — the summary φ-image cardinalities make single-branch
    chains exact, and the independence assumption governs the rest.
    """

    QUERIES = [
        "//item/name/text()",
        "//person/name/text()",
        "for $i in //item return <r>{ $i/name/text() }</r>",
    ]

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.add_document(generate_xmark(scale=2, seed=3))
        return db

    @pytest.mark.parametrize("query", QUERIES)
    def test_estimate_within_documented_bound(self, db, query):
        report = db.explain(query)
        for resolution in report:
            est = resolution.estimated_cardinality
            act = resolution.actual_cardinality
            assert est is not None and act is not None and act > 0
            assert abs(est - act) / act <= 0.25

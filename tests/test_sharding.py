"""Scatter-gather sharding: the physical-data-independence stress test.

The coordinator re-houses the corpus across N store partitions; every
query must answer bit-for-bit like the single-store database — same
tuples, same duplicates, same order, same plan fingerprint.  These tests
drive that claim through the partitioners, the plan splitter, the merge
primitives, a full query battery at several shard counts, the partial-
results degradation protocol, and (via Hypothesis) *random*
partitionings of the corpus.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, QueryService
from repro.algebra.operators import Product, Project, Scan
from repro.algebra.model import NestedTuple
from repro.core.coordinator import (
    SHARDS_ENV_VAR,
    ShardedDatabase,
    resolve_shards,
)
from repro.core.replay import replay_records
from repro.core.rewrite import Regroup
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog, result_checksum
from repro.engine.shard import (
    ExplicitPartitioner,
    HashPartitioner,
    RoundRobinPartitioner,
    GatheredTuples,
    dedup_stream,
    evaluate_suffix,
    merge_runs,
    merge_sorted_runs,
    split_plan,
)
from repro.errors import AccessModuleUnavailable, ReproError
from repro.xmldata import load


def _item_doc(name: str, *item_names: str) -> str:
    items = "".join(
        f'<item id="{name}-{n}"><name>{label}</name><mail>m</mail></item>'
        for n, label in enumerate(item_names)
    )
    return f"<site><regions>{items}</regions></site>"


#: four documents with cross-document duplicate names ("Fish" appears in
#: three documents, twice in one) — duplicate *order* is part of the
#: equality contract
CORPUS_XML = [
    ("a.xml", _item_doc("a", "Fish", "Rock")),
    ("b.xml", _item_doc("b", "Fish", "Fish", "Tree")),
    ("c.xml", _item_doc("c", "Rock")),
    ("d.xml", _item_doc("d", "Tree", "Fish")),
]


def corpus():
    return [load(xml, name) for name, xml in CORPUS_XML]

VIEWS = {
    "v_names": "//item[id:s]{/name[id:s, val]}",
    "v_items": "//item[id:s, cont]",
}

BATTERY = [
    "//item/name/text()",
    "//regions/item",
    "for $x in //regions/item return <r>{ $x/name/text() }</r>",
    "for $x in //regions/item, $y in //regions/item "
    "where $y/name = $x/name return <pair>{ $x/name/text() }</pair>",
]


def build_db(shards=None, partitioner=None, **kwargs):
    if shards is None:
        db = Database(metrics=MetricsRegistry())
    else:
        db = ShardedDatabase(
            shards,
            partitioner=partitioner,
            metrics=MetricsRegistry(),
            **kwargs,
        )
    db.add_documents(corpus())
    for name, pattern in VIEWS.items():
        db.add_view(name, pattern)
    return db


def outputs(result):
    return (result.xml, result.values, result.tuples)


# -- partitioners ------------------------------------------------------------


class TestPartitioners:
    def test_round_robin(self):
        p = RoundRobinPartitioner()
        assert [p.assign(None, seq, 3) for seq in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_hash_is_deterministic_and_name_keyed(self):
        p = HashPartitioner()
        doc = corpus()[0]
        first = p.assign(doc, 0, 4)
        assert p.assign(doc, 99, 4) == first  # seq does not matter
        assert 0 <= first < 4

    def test_explicit_with_fallback(self):
        p = ExplicitPartitioner([2, 0])
        assert p.assign(None, 0, 3) == 2
        assert p.assign(None, 1, 3) == 0
        assert p.assign(None, 5, 3) == 5 % 3  # unmapped -> round-robin


# -- the plan splitter -------------------------------------------------------


class TestSplitPlan:
    def test_regroup_plan_splits_into_prefix_and_suffix(self):
        db = build_db()
        prepared = db.prepare(
            "for $x in //regions/item return <r>{ $x/name/text() }</r>"
        )
        plans = [
            r.rewriting.plan
            for unit in prepared.units
            for r in unit.resolutions
            if r.rewriting is not None
        ]
        assert plans, "query must be view-answered for this test"
        decision = split_plan(plans[0], {"v_names"}, db.store.names())
        assert decision
        assert any(isinstance(op, Regroup) for op in decision.suffix)
        assert not any(
            isinstance(op, Regroup)
            for op in _walk(decision.scatter_root)
        )

    def test_non_linear_spine_falls_back(self):
        plan = Product(
            Scan("v_names", ["id", "val"]), Scan("v_items", ["id"])
        )
        decision = split_plan(plan, {"v_names", "v_items"}, ())
        assert not decision
        assert "non-linear" in decision.reason

    def test_unpartitioned_relation_falls_back(self):
        decision = split_plan(Scan("mystery", ["id"]), {"v_names"}, {"mystery"})
        assert not decision
        assert "not document-partitioned" in decision.reason

    def test_dedup_projection_stays_in_suffix(self):
        plan = Project(Scan("v_names", ["id", "val"]), ["val"], dedup=True)
        decision = split_plan(plan, {"v_names"}, ())
        assert decision
        assert isinstance(decision.scatter_root, Scan)
        assert [type(op) for op in decision.suffix] == [Project]

    def test_plain_projection_scatters(self):
        plan = Project(Scan("v_names", ["id", "val"]), ["val"])
        decision = split_plan(plan, {"v_names"}, ())
        assert decision.scatter_root is plan
        assert decision.suffix == []


def _walk(op):
    yield op
    for child in op.children:
        yield from _walk(child)


# -- merge primitives --------------------------------------------------------


class TestMergePrimitives:
    def test_merge_runs_orders_by_global_sequence(self):
        runs = [(2, ["e"]), (0, ["a", "b"]), (1, ["c", "d"])]
        assert merge_runs(runs) == ["a", "b", "c", "d", "e"]

    def test_merge_sorted_runs_is_stable(self):
        # ties on the key must preserve (document sequence, position)
        runs = [(1, [(5, "late")]), (0, [(5, "early"), (7, "x")])]
        merged = merge_sorted_runs(runs, key=lambda t: t[0])
        assert merged == [(5, "early"), (5, "late"), (7, "x")]

    def test_dedup_stream_keeps_first_occurrence(self):
        a, b = NestedTuple(v=1), NestedTuple(v=2)
        assert dedup_stream([a, b, NestedTuple(v=1)]) == [a, b]

    def test_evaluate_suffix_clones_operators(self):
        scan = Scan("r", ["v"])
        suffix = [Project(scan, ["v"], dedup=True)]
        tuples = [NestedTuple(v=1), NestedTuple(v=1), NestedTuple(v=2)]
        out = evaluate_suffix(suffix, tuples)
        assert [t["v"] for t in out] == [1, 2]
        # the original operator keeps its original child (plans are shared)
        assert suffix[0].children == (scan,)

    def test_gathered_tuples_leaf(self):
        leaf = GatheredTuples([NestedTuple(v=1)], ["v"])
        assert leaf.schema() == ["v"]
        assert len(leaf.evaluate()) == 1
        assert "Gathered" in leaf.label()


# -- equality: the independence claim ----------------------------------------


class TestShardedEquality:
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_battery_matches_single_store(self, shards):
        single = build_db()
        with build_db(shards) as sharded:
            for query in BATTERY:
                p1, p2 = single.prepare(query), sharded.prepare(query)
                assert p1.fingerprint == p2.fingerprint, query
                r1 = single.execute_prepared(p1)
                r2 = sharded.execute_prepared(p2)
                assert outputs(r1) == outputs(r2), query
                assert result_checksum(r1) == result_checksum(r2), query

    def test_physical_and_stats_modes_match(self):
        single = build_db()
        with build_db(3) as sharded:
            for stats in (False, True):
                for query in BATTERY:
                    r1 = single.query(query, stats=stats)
                    r2 = sharded.query(query, stats=stats)
                    assert outputs(r1) == outputs(r2), query

    def test_view_answered_query_scatters_without_fallback(self):
        with build_db(4) as sharded:
            result = sharded.query(BATTERY[2])
            assert result.used_views == ["v_names"]
            assert result.counters.get("shard.fanout", 0) > 0
            assert "shard.fallback" not in result.counters
            assert result.shard_count == 4

    def test_shard_of_existing_database(self):
        single = build_db()
        single.override_statistic("v_names", 123.0)
        with single.shard(3) as sharded:
            assert isinstance(sharded, ShardedDatabase)
            assert sharded.statistics_overrides == single.statistics_overrides
            for query in BATTERY:
                assert (
                    sharded.prepare(query).fingerprint
                    == single.prepare(query).fingerprint
                )
                assert outputs(sharded.query(query)) == outputs(
                    single.query(query)
                )

    def test_empty_shards_are_harmless(self):
        # more shards than documents: trailing shards hold nothing
        with build_db(11) as sharded:
            assert outputs(sharded.query(BATTERY[0])) == outputs(
                build_db().query(BATTERY[0])
            )

    def test_drop_view_keeps_layouts_aligned(self):
        single = build_db()
        single.drop_view("v_names")
        with build_db(3) as sharded:
            sharded.drop_view("v_names")
            for shard in sharded.shards:
                assert "v_names" not in shard.store
            r1, r2 = single.query(BATTERY[2]), sharded.query(BATTERY[2])
            assert outputs(r1) == outputs(r2)
            assert r2.used_views == []


# -- degradation: partial results --------------------------------------------


class TestPartialDegradation:
    VIEW_QUERY = BATTERY[2]  # view-answered via v_names

    def test_one_shard_down_yields_degraded_partial(self):
        with build_db(4) as sharded:
            full = sharded.query(self.VIEW_QUERY)
            assert not full.degraded
            sharded.shards[1].breakers.force_open("v_names")
            partial = sharded.query(self.VIEW_QUERY)
            assert partial.degraded
            assert 0 < len(partial.xml) < len(full.xml)
            assert partial.counters.get("shard.degraded") == 1.0
            assert any(
                "shard 1" in event for event in partial.degradation_events
            )
            # the partial answer is exactly the single-store answer over
            # the surviving shards' documents (shard 1 holds b.xml)
            survivors = Database(metrics=MetricsRegistry())
            survivors.add_documents(
                [
                    doc
                    for seq, doc in enumerate(corpus())
                    if seq % 4 != 1
                ]
            )
            for name, pattern in VIEWS.items():
                survivors.add_view(name, pattern)
            assert partial.xml == survivors.query(self.VIEW_QUERY).xml

    def test_all_shards_down_fails_the_query(self):
        with build_db(3) as sharded:
            for shard in sharded.shards:
                shard.breakers.force_open("v_names")
            with pytest.raises(AccessModuleUnavailable):
                sharded.query(self.VIEW_QUERY)

    def test_health_reports_every_shard(self):
        with build_db(3) as sharded:
            sharded.shards[2].breakers.force_open("v_names")
            board = sharded.health()
            assert "coordinator (3 shard(s))" in board
            assert "shard 2" in board and "open" in board

    def test_force_open_blocks_and_recovers(self):
        with build_db(2) as sharded:
            shard = sharded.shards[0]
            shard.breakers.force_open("v_names")
            assert not shard.breakers.allows("v_names")


# -- shards run in sequence, on the query's own thread -----------------------


class TestSequentialScatter:
    def test_no_scatter_threads(self):
        with build_db(4) as sharded:
            sharded.query(BATTERY[2])
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("repro-shard")
            ]

    def test_seeded_chaos_on_shards_is_reproducible(self):
        """Shards draw from the query's fault injector one after another,
        so a seeded chaos battery repeats exactly: the same answers, the
        same typed errors and the same partial results on every run."""

        def run():
            with build_db(4, tracer=None) as sharded:
                sharded.fault_injector = FaultInjector(
                    "relation.scan:transient:0.3", seed=7
                )
                outcomes = []
                for query in BATTERY:
                    try:
                        result = sharded.query(query)
                    except ReproError as error:
                        outcomes.append(type(error).__name__)
                    else:
                        outcomes.append(
                            (result_checksum(result), result.degradation_events)
                        )
                return outcomes, dict(sharded.fault_injector.injected)

        first = run()
        assert first[1], "the seeded spec never fired"
        assert run() == first


# -- capture / replay across layouts -----------------------------------------


class TestCrossLayoutReplay:
    def test_recorded_workload_replays_on_other_layouts(self, tmp_path):
        path = str(tmp_path / "workload.jsonl")
        qlog = QueryLog(path)
        with QueryService(build_db(), cache_capacity=16, qlog=qlog) as svc:
            for query in BATTERY:
                svc.query(query)
        qlog.close()
        records = QueryLog.read_all(path)
        assert all("shards" not in record for record in records)
        for shards in (2, 5):
            with build_db(shards) as sharded:
                report = replay_records(sharded, records)
                assert report.ok and report.matches == len(records)

    def test_sharded_capture_is_stamped_with_shard_count(self, tmp_path):
        path = str(tmp_path / "sharded.jsonl")
        qlog = QueryLog(path)
        with build_db(3) as sharded:
            with QueryService(sharded, cache_capacity=4, qlog=qlog) as svc:
                svc.query(BATTERY[0])
        qlog.close()
        records = QueryLog.read_all(path)
        assert [record.get("shards") for record in records] == [3]


# -- configuration surfaces --------------------------------------------------


class TestConfiguration:
    def test_resolve_shards_explicit_env_default(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
        assert resolve_shards(None) == 1
        assert resolve_shards(4) == 4
        assert resolve_shards("6") == 6
        monkeypatch.setenv(SHARDS_ENV_VAR, "3")
        assert resolve_shards(None) == 3
        with pytest.raises(ValueError):
            resolve_shards(0)

    def test_shard_requires_at_least_one(self):
        with pytest.raises(ValueError):
            ShardedDatabase(0, metrics=MetricsRegistry())

    def test_metrics_families_registered(self):
        with build_db(2) as sharded:
            sharded.query(BATTERY[2])
            snap = sharded.metrics.snapshot()
            for family in (
                "shard.fanout",
                "shard.merge",
                "shard.fallback",
                "shard.degraded",
                "shard.latency.seconds",
                "shard.count",
            ):
                assert family in snap
            gauge = snap["shard.count"]["series"][0]["value"]
            assert gauge == 2.0

    def test_unsharded_service_exports_no_shard_families(self):
        """The coordinator alone owns the ``shard.*`` families: a service
        over a plain database never registers them."""
        db = Database(metrics=MetricsRegistry())
        db.add_documents(corpus())
        with QueryService(db, max_workers=1) as service:
            service.query(BATTERY[0])
            families = service.metrics.snapshot()
        assert not [name for name in families if name.startswith("shard.")]

    def test_serve_cli_accepts_shards(self, tmp_path, capsys):
        from repro.cli import main

        document = tmp_path / "doc.xml"
        document.write_text(_item_doc("a", "Fish", "Rock"))
        queries = tmp_path / "queries.txt"
        queries.write_text("//item/name/text()\n")
        code = main(
            ["serve", str(document), "--queries", str(queries), "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- shards: 2" in out
        assert "Fish" in out


# -- Hypothesis: random partitionings ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    shards=st.integers(min_value=2, max_value=5),
    assignments=st.lists(
        st.integers(min_value=0, max_value=4),
        min_size=len(CORPUS_XML),
        max_size=len(CORPUS_XML),
    ),
    query=st.sampled_from(BATTERY),
)
def test_any_partitioning_matches_single_store(shards, assignments, query):
    """For *every* document → shard assignment, sorted or not, the
    scattered answer equals the single-store answer tuple for tuple —
    duplicates and their order included."""
    single = build_db()
    with build_db(
        shards, partitioner=ExplicitPartitioner(assignments)
    ) as sharded:
        r1, r2 = single.query(query), sharded.query(query)
        assert outputs(r1) == outputs(r2)
        assert result_checksum(r1) == result_checksum(r2)
        assert (
            single.prepare(query).fingerprint
            == sharded.prepare(query).fingerprint
        )


@settings(max_examples=50, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.integers(min_value=0, max_value=9), max_size=6).map(sorted),
        max_size=5,
    )
)
def test_merge_sorted_runs_equals_stable_sort(runs):
    numbered = list(enumerate(runs))
    merged = merge_sorted_runs(numbered, key=lambda t: t)
    concat = [value for _seq, run in numbered for value in run]
    assert merged == sorted(concat)

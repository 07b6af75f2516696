"""Sharding: the physical-data-independence stress test.

The coordinator assigns the corpus to N document partitions; every
query must answer bit-for-bit like the single-store database — same
tuples, same duplicates, same order, same plan fingerprint.  These tests
drive that claim through the partitioners, a full query battery at
several shard counts, fault parity (a failed access module degrades a
coordinator's answer exactly as the single store's), views that follow
documents added after them, and (via Hypothesis) *random* partitionings
of the corpus.
"""

import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, QueryService
from repro.core.coordinator import (
    SHARDS_ENV_VAR,
    ExplicitPartitioner,
    RoundRobinPartitioner,
    ShardedDatabase,
    resolve_shards,
)
from repro.core.replay import replay_records
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog, result_checksum
from repro.errors import ReproError
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


def degradation(result):
    """A result's degradation outcome, trace ids stripped."""
    events = [re.sub(r" \[trace [^\]]*\]$", "", e) for e in result.degradation_events]
    return result.degraded, events


# -- partitioners ------------------------------------------------------------


class TestPartitioners:
    def test_round_robin(self):
        p = RoundRobinPartitioner()
        assert [p.assign(None, seq, 3) for seq in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_explicit_with_fallback(self):
        p = ExplicitPartitioner([2, 0])
        assert p.assign(None, 0, 3) == 2
        assert p.assign(None, 1, 3) == 0
        assert p.assign(None, 5, 3) == 5 % 3  # unmapped -> round-robin


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
            assert sharded.store.names() == single.store.names() == ["v_items"]
            r1, r2 = single.query(BATTERY[2]), sharded.query(BATTERY[2])
            assert outputs(r1) == outputs(r2)
            assert r2.used_views == []


# -- degradation: a coordinator re-routes like the single store -------------


class TestFaultParity:
    """A failed access module degrades a coordinator's answer exactly as
    the single store's: the same rows, ``degraded`` flag and events."""

    @pytest.mark.parametrize("shards", [2, 4, 7])
    @pytest.mark.parametrize(
        "spec", ["relation.scan@v_names:corrupt", "relation.scan@v_items:corrupt"]
    )
    def test_injected_fault_degrades_like_single_store(self, spec, shards):
        single = build_db()
        single.fault_injector = FaultInjector(spec)
        with build_db(shards) as sharded:
            sharded.fault_injector = FaultInjector(spec)
            for query in BATTERY:
                r1, r2 = single.query(query), sharded.query(query)
                assert outputs(r1) == outputs(r2), query
                assert degradation(r1) == degradation(r2), query
            assert sharded.fault_injector.injected == single.fault_injector.injected
            assert sharded.breakers.states() == single.breakers.states()

    def test_view_query_is_rerouted_to_the_whole_answer(self):
        """Not a part of the answer: every item of the corpus, as the
        base store answers it."""
        with build_db(4) as sharded:
            base = sharded.query(BATTERY[2], prefer_views=False)
            sharded.fault_injector = FaultInjector("relation.scan@v_names:corrupt")
            degraded = sharded.query(BATTERY[2])
        assert degraded.degraded and not base.degraded
        assert outputs(degraded) == outputs(base)
        assert len(degraded.xml) == 8

    def test_forced_open_breaker_plans_around_like_single_store(self):
        single = build_db()
        single.breakers.force_open("v_names")
        with build_db(4) as sharded:
            sharded.breakers.force_open("v_names")
            for query in BATTERY:
                p1, p2 = single.prepare(query), sharded.prepare(query)
                assert p1.fingerprint == p2.fingerprint, query
                r1, r2 = single.execute_prepared(p1), sharded.execute_prepared(p2)
                assert "v_names" not in r2.used_views, query
                assert outputs(r1) == outputs(r2), query
                assert degradation(r1) == degradation(r2), query


# -- views follow documents added after them ----------------------------------


@pytest.mark.parametrize("shards", [None, 4])
def test_view_covers_documents_added_after_it(shards):
    """A view added over one document is rebuilt over every document
    added later, in place: it answers as a view added after them, and
    the catalog keeps its order."""
    first, *rest = corpus()
    if shards is None:
        db = Database(metrics=MetricsRegistry())
    else:
        db = ShardedDatabase(shards, metrics=MetricsRegistry())
    db.add_documents([first])
    for name, pattern in VIEWS.items():
        db.add_view(name, pattern)
    db.add_documents(rest)
    assert db.views() == list(VIEWS)
    reference = build_db()
    for query in BATTERY:
        assert outputs(db.query(query)) == outputs(reference.query(query)), query
    assert db.query(BATTERY[0]).used_views == ["v_names"]
    for name in VIEWS:
        assert db.store[name].tuples == reference.store[name].tuples


# -- rewritings: the single store's compiled plan over its relations -------


class TestGather:
    #: answered by joining v_names with v_items on the item id
    JOIN_QUERY = "for $x in //regions/item return <r>{ $x/name/text() }{ $x }</r>"

    def test_join_rewriting_matches_single_store(self):
        single = build_db()
        with build_db(4) as sharded:
            p1, p2 = single.prepare(self.JOIN_QUERY), sharded.prepare(self.JOIN_QUERY)
            assert p1.fingerprint == p2.fingerprint
            r1, r2 = single.execute_prepared(p1), sharded.execute_prepared(p2)
            assert sorted(r2.used_views) == ["v_items", "v_names"]
            assert outputs(r1) == outputs(r2)
            assert result_checksum(r1) == result_checksum(r2)

    def test_relation_scan_fires_once_per_scan(self):
        """A view relation is read once, as on the single store, not
        once per document or per shard."""

        def scans(db):
            db.fault_injector = FaultInjector(
                "relation.scan@v_names:latency:0", sleep=lambda _s: None
            )
            result = db.query(BATTERY[2])
            assert result.used_views == ["v_names"]
            return db.fault_injector.injected["relation.scan:latency"]

        single = scans(build_db())
        with build_db(4) as sharded:
            assert scans(sharded) == single


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
        """A seeded chaos battery on a coordinator repeats exactly: the
        same answers, the same typed errors and the same degradation
        events on every run."""

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
            assert "shard.count" in snap
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
    coordinator's answer equals the single-store answer tuple for tuple —
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

"""Workload capture, deterministic replay, and the plan-regression
sentinel: plan fingerprints, result checksums, the rotating query log,
the record/replay harness, the /qlog and /regressions routes, and the
tracing/shutdown hardening satellites."""

import json
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro import Database, QueryService
from repro.cli import EXIT_INTERRUPT, _graceful_signals, main as cli_main
from repro.core.httpapi import start_observability_server
from repro.core.replay import load_records, replay_records
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import (
    QueryLog,
    build_record,
    iter_ok_records,
    result_checksum,
)
from repro.engine.sentinel import (
    MISESTIMATE_MIN_ROWS,
    PlanRegressionSentinel,
    SentinelConfig,
)
from repro.engine.tracing import Tracer
from repro.workloads import XMARK_QUERIES, generate_xmark

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
ITEM_QUERY = "//regions//item/name/text()"

SHOP_DOC = (
    "<shop>"
    "<item><name>Fish</name><price>10</price></item>"
    "<item><name>Rock</name><price>5</price></item>"
    "<item><name>Tree</name><price>10</price></item>"
    "</shop>"
)


def make_xmark_db():
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=1, seed=0))
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


def make_shop_db():
    """Two S-equivalent views over the same pattern: the ranking race the
    statistics-override lever flips."""
    db = Database(metrics=MetricsRegistry())
    db.add_document_xml(SHOP_DOC, "shop.xml")
    db.add_view("names_a", "//item[id:s]{/o:name[id:s, val]}")
    db.add_view("names_b", "//item[id:s]{/o:name[id:s, val]}")
    return db


@pytest.fixture()
def db():
    return make_xmark_db()


@pytest.fixture()
def service(db):
    svc = QueryService(db, cache_capacity=16, max_workers=2)
    yield svc
    svc.shutdown()


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


# ---------------------------------------------------------------------------
# plan fingerprints
# ---------------------------------------------------------------------------


class TestPlanFingerprint:
    def test_preparing_twice_reproduces_the_fingerprint(self, db):
        first = db.prepare(PERSON_QUERY)
        second = db.prepare(PERSON_QUERY)
        assert first.fingerprint and first.fingerprint == second.fingerprint
        assert first.plan_shape == second.plan_shape

    def test_fingerprint_reflects_the_access_path(self, db):
        via_views = db.prepare(PERSON_QUERY, prefer_views=True)
        via_base = db.prepare(PERSON_QUERY, prefer_views=False)
        assert via_views.fingerprint != via_base.fingerprint
        assert "v_person" in via_views.plan_shape
        assert "base" in via_base.plan_shape

    def test_catalog_change_changes_the_fingerprint(self):
        db = make_xmark_db()
        before = db.prepare(PERSON_QUERY).fingerprint
        db.drop_view("v_person")
        after = db.prepare(PERSON_QUERY).fingerprint
        assert before != after

    def test_fingerprint_stable_across_execution_modes(self, db):
        plain = db.query(PERSON_QUERY, physical=False)
        stats = db.query(PERSON_QUERY, physical=False, stats=True)
        physical = db.query(PERSON_QUERY, physical=True)
        assert plain.plan_fingerprint == stats.plan_fingerprint
        assert plain.plan_fingerprint == physical.plan_fingerprint

    def test_result_and_explain_expose_the_fingerprint(self, db):
        result = db.query(PERSON_QUERY)
        report = db.explain(PERSON_QUERY)
        assert result.plan_fingerprint == report.plan_fingerprint
        assert f"plan fingerprint: {result.plan_fingerprint}" in report.render()


class TestResultChecksum:
    def test_same_answer_same_checksum(self, db):
        a = db.query(PERSON_QUERY)
        b = db.query(PERSON_QUERY)
        assert result_checksum(a) == result_checksum(b)

    def test_different_answers_differ(self, db):
        a = db.query(PERSON_QUERY)
        b = db.query(ITEM_QUERY)
        assert result_checksum(a) != result_checksum(b)


# ---------------------------------------------------------------------------
# the query log
# ---------------------------------------------------------------------------


class TestQueryLog:
    def test_memory_ring_is_bounded(self):
        log = QueryLog(capacity=3)
        for number in range(5):
            log.record({"query": f"q{number}", "outcome": "ok"})
        assert log.written == 5
        assert [r["query"] for r in log.tail()] == ["q2", "q3", "q4"]
        assert [r["query"] for r in log.tail(2)] == ["q3", "q4"]

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "workload.jsonl")
        with QueryLog(path) as log:
            log.record({"query": "one", "outcome": "ok", "checksum": "aa"})
            log.record({"query": "two", "outcome": "error"})
        records = QueryLog.read(path)
        assert [r["query"] for r in records] == ["one", "two"]
        assert [r["query"] for r in iter_ok_records(records)] == ["one"]

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = str(tmp_path / "workload.jsonl")
        log = QueryLog(path, max_bytes=200, max_files=2)
        for number in range(40):
            log.record({"query": f"q{number:03}", "outcome": "ok"})
        log.close()
        assert log.rotations > 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "workload.jsonl" in files
        assert len(files) <= 3  # live + at most max_files generations
        merged = QueryLog.read_all(path, max_files=2)
        queries = [r["query"] for r in merged]
        assert queries == sorted(queries)  # oldest-first across rotations
        assert queries[-1] == "q039"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"query": "ok", "outcome": "ok"}\n{"query": "tor')
        records = QueryLog.read(path)
        assert [r["query"] for r in records] == ["ok"]

    def test_torn_middle_line_raises(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('not json\n{"query": "ok", "outcome": "ok"}\n')
        with pytest.raises(json.JSONDecodeError):
            QueryLog.read(path)

    def test_from_env(self, tmp_path):
        path = str(tmp_path / "env.jsonl")
        assert QueryLog.from_env({}) is None
        log = QueryLog.from_env({"REPRO_QLOG": path})
        assert log is not None and log.path == path
        log.close()

    def test_close_is_idempotent(self, tmp_path):
        log = QueryLog(str(tmp_path / "c.jsonl"))
        log.record({"query": "x", "outcome": "ok"})
        log.close()
        log.close()
        assert log.closed
        assert log.tail()  # the ring survives close

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        path = str(tmp_path / "mt.jsonl")
        log = QueryLog(path, capacity=8, max_bytes=500, max_files=2)

        def write(worker):
            for number in range(50):
                log.record(
                    {"query": f"w{worker}-{number}", "outcome": "ok"}
                )

        threads = [
            threading.Thread(target=write, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        assert log.written == 200
        survived = QueryLog.read_all(path, max_files=2)
        # rotation drops whole old generations, never tears records
        assert all(r["query"].startswith("w") for r in survived)


class TestBuildRecord:
    def test_failed_query_record_has_no_ground_truth(self):
        record = build_record(
            "//x", None, 0.01, "error", error="XQueryParseError"
        )
        assert record["outcome"] == "error"
        assert record["error"] == "XQueryParseError"
        assert "checksum" not in record and "fingerprint" not in record

    def test_ok_record_carries_the_diffable_facts(self, db):
        result = db.query(PERSON_QUERY, stats=True)
        record = build_record(
            PERSON_QUERY, result, 0.02, "ok", flags={"stats": True}
        )
        assert record["fingerprint"] == result.plan_fingerprint
        assert record["checksum"] == result_checksum(result)
        assert record["flags"] == {"stats": True}
        assert record["patterns"][0]["views"] == ["v_person"]
        assert record["patterns"][0]["est"] is not None
        assert record["patterns"][0]["actual"] is not None
        assert record["operators"]  # stats=True -> per-operator rows
        assert record["trace_id"] == result.trace_id


# ---------------------------------------------------------------------------
# the plan-regression sentinel
# ---------------------------------------------------------------------------


class TestSentinel:
    def test_stable_plans_raise_no_findings(self, service):
        for _ in range(5):
            service.query(PERSON_QUERY)
        assert service.sentinel.plan_flips == 0
        assert service.sentinel.findings() == []

    def test_statistics_override_flips_the_plan(self):
        """The ISSUE's acceptance lever: poisoning one statistics entry
        re-ranks the S-equivalent rewritings, and the sentinel surfaces
        the flip as a finding, a counter and a trace event."""
        db = make_shop_db()
        with QueryService(db, max_workers=1) as svc:
            first = svc.query("//item/name/text()")
            assert first.used_views == ["names_a"]
            db.override_statistic("names_a", 1e9)
            second = svc.query("//item/name/text()")
            assert second.used_views == ["names_b"]
            assert first.plan_fingerprint != second.plan_fingerprint
            assert svc.sentinel.plan_flips == 1
            flip = svc.sentinel.findings("plan_flip")[0]
            assert flip.data["from"] == first.plan_fingerprint
            assert flip.data["to"] == second.plan_fingerprint
            assert svc.metrics.counter_value("planner.plan_flip") == 1
            trace = svc.trace(second.trace_id)
            assert trace is not None and trace.find("planner.plan_flip")

    def test_breaker_outage_flips_the_plan(self, db):
        """The other lever the ISSUE names: a XAM taken out by its
        circuit breaker changes the chosen access path."""
        with QueryService(db, max_workers=1) as svc:
            before = svc.query(PERSON_QUERY)
            assert "v_person" in before.used_views
            for _ in range(3):
                db.breakers.record_failure("v_person", "storage fault")
            svc.invalidate()
            after = svc.query(PERSON_QUERY)
            assert "v_person" not in after.used_views
            assert svc.sentinel.plan_flips == 1

    def test_misestimate_streak_triggers_statistics_refresh(self):
        db = make_shop_db()
        config = SentinelConfig(misestimate_factor=10.0, refresh_after=3)
        with QueryService(db, max_workers=1, sentinel_config=config) as svc:
            probe = svc.query("//item/name/text()")
            pattern_text = probe.resolutions[0].pattern.to_text()
            db.override_statistic(pattern_text, 1e6)
            for _ in range(3):
                svc.query("//item/name/text()")
            assert svc.sentinel.misestimates == 3
            assert svc.sentinel.stats_refreshes == 1
            assert svc.metrics.counter_value("planner.stats_refresh") == 1
            # the refresh cleared the poisoned override: estimates recover
            assert db.statistics_overrides == {}
            healthy = svc.query("//item/name/text()")
            assert healthy.resolutions[0].estimated_cardinality < 100

    @pytest.mark.parametrize("seed", [0, 3])
    def test_small_row_gap_is_not_a_misestimate(self, seed):
        """On the scale-16 document the planner estimates ``q14`` at
        19.2 rows and it returns 0-1: a ratio above the factor, but a
        ratio of two tiny counts is noise, not stale statistics.  A
        poisoned estimate of the same pattern still is a finding."""
        db = Database(metrics=MetricsRegistry())
        db.add_document(generate_xmark(scale=16, seed=seed))
        query = XMARK_QUERIES["q14"]
        with QueryService(db, max_workers=1) as svc:
            (resolution,) = svc.query(query).resolutions
            est = resolution.estimated_cardinality
            rows = resolution.actual_cardinality
            assert rows <= 1
            assert (est + 1) / (rows + 1) > svc.sentinel.config.misestimate_factor
            assert est - rows < MISESTIMATE_MIN_ROWS
            assert svc.sentinel.misestimates == 0
            db.override_statistic(resolution.pattern.to_text(), 1e6)
            svc.query(query)
            assert svc.sentinel.misestimates == 1

    def test_finding_ring_is_bounded(self):
        sentinel = PlanRegressionSentinel(config=SentinelConfig(capacity=4))

        class FakeResult:
            resolutions = ()
            trace_id = None

            def __init__(self, fingerprint):
                self.plan_fingerprint = fingerprint

        for number in range(10):
            sentinel.observe("q", FakeResult(f"fp{number}"))
        assert sentinel.plan_flips == 9
        assert len(sentinel.findings()) == 4
        assert sentinel.fingerprint_of("q") == "fp9"

    def test_as_dict_snapshot(self, service):
        service.query(PERSON_QUERY)
        snapshot = service.sentinel.as_dict()
        assert snapshot["plan_flips"] == 0
        assert snapshot["tracked_queries"] == 1
        assert snapshot["config"]["refresh_after"] == 3


# ---------------------------------------------------------------------------
# capture through the service + the HTTP routes
# ---------------------------------------------------------------------------


class TestServiceCapture:
    def test_every_outcome_is_logged(self, db):
        with QueryService(db, max_workers=1) as svc:
            svc.query(PERSON_QUERY)
            with pytest.raises(Exception):
                svc.query("for $x in ((( busted")
            records = svc.qlog.tail()
            assert len(records) == 2
            assert records[0]["outcome"] == "ok"
            assert records[0]["fingerprint"]
            assert records[0]["checksum"]
            assert records[1]["outcome"] == "error"
            assert "XQueryParseError" in records[1]["error"]

    def test_query_text_is_normalized_in_the_log(self, db):
        with QueryService(db, max_workers=1) as svc:
            svc.query("//regions//item/name/text()   ")
            assert svc.qlog.tail()[0]["query"] == "//regions//item/name/text()"

    def test_qlog_env_var_enables_file_capture(self, db, tmp_path, monkeypatch):
        path = str(tmp_path / "env-capture.jsonl")
        monkeypatch.setenv("REPRO_QLOG", path)
        with QueryService(db, max_workers=1) as svc:
            svc.query(PERSON_QUERY)
        # shutdown closes the owned log, flushing the tail
        assert [r["outcome"] for r in QueryLog.read(path)] == ["ok"]

    def test_qlog_false_disables_capture(self, db):
        with QueryService(db, max_workers=1, qlog=False) as svc:
            svc.query(PERSON_QUERY)
            assert svc.qlog is None

    def test_qlog_and_regressions_routes(self, db):
        with QueryService(db, max_workers=1) as svc:
            server = start_observability_server(svc, port=0)
            try:
                svc.query(PERSON_QUERY)
                status, _, body = fetch(server.url + "/qlog")
                assert status == 200
                payload = json.loads(body)
                assert payload["written"] == 1
                assert payload["records"][0]["query"] == PERSON_QUERY
                status, _, body = fetch(server.url + "/qlog?count=1")
                assert len(json.loads(body)["records"]) == 1
                _, content_type, text = fetch(server.url + "/qlog?format=text")
                assert content_type.startswith("text/plain")
                assert "plan=" in text
                status, _, body = fetch(server.url + "/regressions")
                payload = json.loads(body)
                assert payload["plan_flips"] == 0
                assert payload["tracked_queries"] == 1
            finally:
                server.stop()

    def test_regressions_route_surfaces_a_flip(self):
        db = make_shop_db()
        with QueryService(db, max_workers=1) as svc:
            server = start_observability_server(svc, port=0)
            try:
                svc.query("//item/name/text()")
                db.override_statistic("names_a", 1e9)
                svc.query("//item/name/text()")
                _, _, body = fetch(server.url + "/regressions")
                payload = json.loads(body)
                assert payload["plan_flips"] == 1
                assert payload["findings"][0]["kind"] == "plan_flip"
                _, _, text = fetch(server.url + "/regressions?format=text")
                assert "plan_flip" in text
            finally:
                server.stop()


class TestHTTPErrorPaths:
    @pytest.fixture()
    def server(self, service):
        server = start_observability_server(service, port=0)
        yield server
        server.stop()

    @pytest.mark.parametrize(
        "route", ["/nothing", "/qlog/extra", "/regressions/x", "/metricsx"]
    )
    def test_unknown_routes_are_404(self, server, route):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + route)
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read().decode("utf-8"))

    def test_malformed_trace_ids_are_404_not_500(self, server):
        for trace_id in ["%00", "..%2f..", "t" * 500, "%F0%9F%92%A9"]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url + f"/trace/{trace_id}")
            assert excinfo.value.code == 404

    def test_qlog_bad_count_falls_back_to_all(self, service, server):
        service.query(PERSON_QUERY)
        status, _, body = fetch(server.url + "/qlog?count=banana")
        assert status == 200
        assert len(json.loads(body)["records"]) == 1

    def test_qlog_disabled_is_404(self, db):
        with QueryService(db, max_workers=1, qlog=False) as svc:
            server = start_observability_server(svc, port=0)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    fetch(server.url + "/qlog")
                assert excinfo.value.code == 404
            finally:
                server.stop()

    def test_empty_registry_exposition(self):
        registry = MetricsRegistry()
        assert registry.render_prometheus().strip() == ""
        assert registry.snapshot() == {}

    def test_concurrent_scrapes_of_every_route(self, service, server):
        routes = ["/metrics", "/qlog", "/regressions", "/traces", "/slow"]
        errors = []

        def scrape(route):
            try:
                for _ in range(5):
                    fetch(server.url + route)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append((route, error))

        scrapers = [
            threading.Thread(target=scrape, args=(route,)) for route in routes
        ]
        for scraper in scrapers:
            scraper.start()
        for _ in range(10):
            service.query(PERSON_QUERY)
        for scraper in scrapers:
            scraper.join()
        assert not errors


# ---------------------------------------------------------------------------
# deterministic replay
# ---------------------------------------------------------------------------


class TestReplay:
    def record_workload(self, tmp_path, queries=None):
        path = str(tmp_path / "capture.jsonl")
        db = make_xmark_db()
        log = QueryLog(path)
        with QueryService(db, max_workers=1, qlog=log) as svc:
            for query in queries or [PERSON_QUERY, ITEM_QUERY, PERSON_QUERY]:
                svc.query(query)
        log.close()
        return path

    def test_replay_on_unchanged_state_reports_zero_diffs(self, tmp_path):
        path = self.record_workload(tmp_path)
        report = replay_records(make_xmark_db(), load_records(path))
        assert report.ok
        assert report.total == 3 and report.replayed == 3
        assert report.matches == 3 and report.skipped == 0
        assert "0 diff" in report.render()

    def test_legacy_executor_field_replays_clean(self, tmp_path):
        """Captures written when the engine was selectable stamp an
        ``executor`` field on every record; replay ignores it."""
        records = load_records(self.record_workload(tmp_path))
        for record in records:
            assert "executor" not in record
            record["executor"] = "iter"
        report = replay_records(make_xmark_db(), records)
        assert report.ok and report.matches == 3

    def test_dropped_view_shows_as_fingerprint_diff(self, tmp_path):
        path = self.record_workload(tmp_path)
        replay_db = make_xmark_db()
        replay_db.drop_view("v_person")
        report = replay_records(replay_db, load_records(path))
        assert not report.ok
        kinds = {diff.kind for diff in report.diffs}
        assert kinds == {"fingerprint"}  # answers still match
        assert report.matches == 1  # the item query is unaffected

    def test_statistics_override_shows_as_replay_diff(self, tmp_path):
        """ISSUE acceptance: the same lever that trips the live sentinel
        must also surface as a non-zero replay diff."""
        path = str(tmp_path / "shop.jsonl")
        db = make_shop_db()
        log = QueryLog(path)
        with QueryService(db, max_workers=1, qlog=log) as svc:
            svc.query("//item/name/text()")
        log.close()
        poisoned = make_shop_db()
        poisoned.override_statistic("names_a", 1e9)
        report = replay_records(poisoned, load_records(path))
        assert [diff.kind for diff in report.diffs] == ["fingerprint"]

    def test_changed_document_shows_as_checksum_diff(self, tmp_path):
        path = str(tmp_path / "shop.jsonl")
        db = make_shop_db()
        log = QueryLog(path)
        with QueryService(db, max_workers=1, qlog=log) as svc:
            svc.query("//item/price/text()")
        log.close()
        changed = Database(metrics=MetricsRegistry())
        changed.add_document_xml(
            SHOP_DOC.replace("<price>10</price>", "<price>99</price>", 1),
            "shop.xml",
        )
        changed.add_view("names_a", "//item[id:s]{/o:name[id:s, val]}")
        changed.add_view("names_b", "//item[id:s]{/o:name[id:s, val]}")
        report = replay_records(changed, load_records(path))
        assert any(diff.kind == "checksum" for diff in report.diffs)

    def test_failed_records_are_skipped_not_replayed(self, tmp_path):
        path = self.record_workload(tmp_path)
        records = load_records(path)
        records.append({"query": "//x", "outcome": "error", "seconds": 0.1})
        report = replay_records(make_xmark_db(), records)
        assert report.skipped == 1 and report.replayed == 3

    def test_replay_error_is_a_diff(self):
        record = {
            "query": "for $x in ((( busted",
            "outcome": "ok",
            "checksum": "deadbeef",
            "seconds": 0.1,
        }
        report = replay_records(make_xmark_db(), [record])
        assert report.diffs[0].kind == "error"
        assert report.diffs[0].replayed == "XQueryParseError"

    def test_report_round_trips_to_json(self, tmp_path):
        path = self.record_workload(tmp_path)
        report = replay_records(make_xmark_db(), load_records(path))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["matches"] == 3 and payload["diffs"] == []
        assert payload["latency_ratio"] > 0


# ---------------------------------------------------------------------------
# the CLI: record / replay / serve --qlog / graceful signals
# ---------------------------------------------------------------------------


class TestCLI:
    @pytest.fixture()
    def workload(self, tmp_path):
        doc = tmp_path / "shop.xml"
        doc.write_text(SHOP_DOC, encoding="utf-8")
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# smoke workload\n//item/name/text()\n//item/price/text()\n",
            encoding="utf-8",
        )
        return doc, queries, tmp_path / "capture.jsonl"

    def views(self):
        return [
            "--view", "names_a=//item[id:s]{/o:name[id:s, val]}",
            "--view", "names_b=//item[id:s]{/o:name[id:s, val]}",
        ]

    def test_record_then_replay_round_trip(self, workload, capsys):
        doc, queries, capture = workload
        code = cli_main(
            ["record", str(doc), str(capture), "--queries", str(queries)]
            + self.views()
        )
        assert code == 0
        assert "recorded 2 record(s)" in capsys.readouterr().out
        code = cli_main(["replay", str(doc), str(capture)] + self.views())
        output = capsys.readouterr().out
        assert code == 0
        assert "2 match, 0 diff" in output

    def test_replay_flags_a_drifted_environment(self, workload, capsys):
        doc, queries, capture = workload
        cli_main(
            ["record", str(doc), str(capture), "--queries", str(queries)]
            + self.views()
        )
        capsys.readouterr()
        # replaying without the views is a deliberate environment drift:
        # every fingerprint flips to the base access path
        code = cli_main(["replay", str(doc), str(capture), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert all(d["kind"] == "fingerprint" for d in payload["diffs"])
        assert payload["diffs"]

    def test_serve_writes_the_qlog(self, workload, capsys):
        doc, queries, capture = workload
        code = cli_main(
            [
                "serve", str(doc), "--queries", str(queries),
                "--qlog", str(capture), "--workers", "2",
            ]
            + self.views()
        )
        assert code == 0
        assert "query log" in capsys.readouterr().out
        assert len(QueryLog.read(str(capture))) == 2

    def test_graceful_signals_convert_sigint(self):
        with pytest.raises(KeyboardInterrupt):
            with _graceful_signals():
                signal.raise_signal(signal.SIGINT)

    def test_graceful_signals_convert_sigterm(self):
        with pytest.raises(KeyboardInterrupt):
            with _graceful_signals():
                signal.raise_signal(signal.SIGTERM)

    def test_graceful_signals_restore_previous_handlers(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with _graceful_signals():
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_graceful_signals_noop_off_main_thread(self):
        outcome = {}

        def run():
            try:
                with _graceful_signals():
                    outcome["entered"] = True
            except Exception as error:  # noqa: BLE001 - surfaced below
                outcome["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert outcome == {"entered": True}

    def test_interrupted_record_flushes_and_exits_130(
        self, workload, capsys, monkeypatch
    ):
        doc, queries, capture = workload
        from repro.core import service as service_module

        original = service_module.QueryService.query
        calls = {"n": 0}

        def interrupting(self, query, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return original(self, query, **kwargs)

        monkeypatch.setattr(service_module.QueryService, "query", interrupting)
        code = cli_main(
            ["record", str(doc), str(capture), "--queries", str(queries)]
            + self.views()
        )
        assert code == EXIT_INTERRUPT
        # the record completed before the interrupt reached disk
        assert len(QueryLog.read(str(capture))) == 1


# ---------------------------------------------------------------------------
# satellite: tracing rings under concurrent writers and readers
# ---------------------------------------------------------------------------


class TestConcurrentTracing:
    def test_tracer_ring_eviction_under_concurrent_writers(self):
        tracer = Tracer(capacity=8)
        errors = []

        def churn(worker):
            try:
                for _ in range(60):
                    trace = tracer.start_trace()
                    span = trace.start_span("work", worker=worker)
                    trace.event("tick")
                    trace.finish_span(span)
                    trace.finish()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=churn, args=(n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert tracer.started == 360
        assert len(tracer) == 8
        assert tracer.evicted == 360 - 8
        for trace in tracer.traces():
            assert trace.complete()

    def test_open_trace_can_be_read_while_written(self):
        """The /trace/<id> race: an HTTP reader walks the span tree while
        the owning worker is still mutating it."""
        tracer = Tracer(capacity=4)
        trace = tracer.start_trace()
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    trace.render()
                    trace.as_dict()
                    trace.spans()
                    trace.complete()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(300):
                span = trace.start_span("step")
                trace.event("mark")
                trace.finish_span(span)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        trace.finish()
        assert not errors
        assert trace.complete()
        assert len(trace.spans()) == 601  # root + 300 spans + 300 events

    def test_slow_query_log_under_concurrent_writers(self, db):
        from repro.engine.tracing import SlowQueryLog

        log = SlowQueryLog(threshold=0.0, capacity=16)
        errors = []

        def record(worker):
            try:
                for number in range(40):
                    log.consider(f"q{worker}-{number}", 1.0, "ok", None)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=record, args=(n,)) for n in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert log.captured == 200
        assert len(log) == 16  # ring stayed bounded under contention

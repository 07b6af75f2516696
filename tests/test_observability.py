"""The unified observability layer: metrics registry + exposition,
span-based tracing, the latency-recorder fixes (nearest-rank percentile,
bounded ring), the /metrics HTTP endpoint, the slow-query log, and the
multi-threaded reconciliation stress test the ISSUE asks for."""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import Database, QueryService
from repro.core.httpapi import start_observability_server
from repro.core.service import LatencyRecorder, RetryPolicy
from repro.engine.faults import FaultInjector
from repro.engine.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    sanitize_metric_name,
)
from repro.engine.tracing import SlowQueryLog, Trace, Tracer
from repro.workloads import generate_xmark

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
AUCTION_QUERY = "//open_auctions/open_auction/initial/text()"
ITEM_QUERY = "//regions//item/name/text()"


def make_db(**kwargs):
    db = Database(metrics=MetricsRegistry(), **kwargs)
    db.add_document(generate_xmark(scale=1, seed=0))
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


@pytest.fixture()
def db():
    return make_db()


@pytest.fixture()
def service(db):
    svc = QueryService(db, cache_capacity=16, max_workers=4)
    yield svc
    svc.shutdown()


# ---------------------------------------------------------------------------
# satellite: nearest-rank percentile fix
# ---------------------------------------------------------------------------


class TestNearestRankPercentile:
    """Regression tests against the canonical nearest-rank fixtures: the
    old ``round(pct/100*(n-1))`` formula gets several of these wrong."""

    def make(self, samples):
        recorder = LatencyRecorder(capacity=100)
        for sample in samples:
            recorder.record(sample)
        return recorder

    @pytest.mark.parametrize(
        "pct, expected",
        [(5, 15), (30, 20), (40, 20), (50, 35), (60, 35), (80, 40), (100, 50)],
    )
    def test_wikipedia_fixture(self, pct, expected):
        # the worked nearest-rank example: ordered samples 15 20 35 40 50
        recorder = self.make([15, 20, 35, 40, 50])
        assert recorder.percentile(pct) == expected

    def test_p40_of_five_was_the_bug(self):
        # round(0.4 * 4) == 2 under banker's rounding -> the OLD formula
        # returned ordered[2] == 35; true nearest-rank is ceil(0.4*5)=2 ->
        # ordered[1] == 20
        recorder = self.make([15, 20, 35, 40, 50])
        assert recorder.percentile(40) == 20

    def test_single_sample_every_percentile(self):
        recorder = self.make([7.0])
        for pct in (0, 1, 50, 99, 100):
            assert recorder.percentile(pct) == 7.0

    def test_p100_is_max_p0_is_min(self):
        recorder = self.make(list(range(1, 101)))
        assert recorder.percentile(100) == 100
        assert recorder.percentile(0) == 1

    def test_p50_even_count_is_lower_middle(self):
        # nearest-rank never interpolates: ceil(0.5*4) = 2 -> ordered[1]
        recorder = self.make([1, 2, 3, 4])
        assert recorder.percentile(50) == 2

    def test_empty_recorder_returns_none(self):
        recorder = LatencyRecorder(capacity=10)
        assert recorder.percentile(50) is None
        assert recorder.percentiles() == {}


# ---------------------------------------------------------------------------
# satellite: bounded latency ring
# ---------------------------------------------------------------------------


class TestBoundedLatencyRing:
    def test_ring_caps_retained_samples(self):
        recorder = LatencyRecorder(capacity=5)
        for value in range(1, 9):
            recorder.record(float(value))
        assert len(recorder) == 5
        assert recorder.dropped == 3

    def test_percentiles_describe_newest_samples(self):
        recorder = LatencyRecorder(capacity=3)
        for value in (100.0, 200.0, 1.0, 2.0, 3.0):
            recorder.record(value)
        assert recorder.percentile(100) == 3.0  # 100/200 were overwritten

    def test_outcome_tags_survive_wraparound(self):
        recorder = LatencyRecorder(capacity=2)
        recorder.record(0.1, outcome="ok")
        recorder.record(0.2, outcome="error")
        recorder.record(0.3, outcome="timeout")
        assert recorder.outcomes() == {"error": 1, "timeout": 1}

    def test_drops_surface_in_registry_and_render(self):
        registry = MetricsRegistry()
        recorder = LatencyRecorder(capacity=2, registry=registry)
        for value in range(4):
            recorder.record(float(value))
        assert registry.counter_value("latency.samples_dropped") == 2
        assert "dropped=2" in recorder.render()

    def test_registry_histogram_sees_every_sample(self):
        registry = MetricsRegistry()
        recorder = LatencyRecorder(capacity=2, registry=registry)
        for _ in range(10):
            recorder.record(0.01, outcome="ok")
        histogram = registry.histogram("query.latency.seconds")
        assert histogram.count(outcome="ok") == 10  # ring wrapped, aggregate didn't

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyRecorder(capacity=0)


# ---------------------------------------------------------------------------
# the metrics registry
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_counter_requires_declared_labels(self):
        counter = Counter("c", labelnames=("module",))
        counter.inc(module="v_person")
        assert counter.value(module="v_person") == 1.0
        with pytest.raises(ValueError):
            counter.inc(other="x")

    def test_histogram_le_bucket_semantics(self):
        histogram = Histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 5.0, 99.0):
            histogram.observe(value)
        child = dict(histogram.items())[()]
        # le-semantics: a sample exactly at a bound lands in that bucket
        assert child.bucket_counts == [2, 2, 1]
        assert child.count == 5
        assert child.total == pytest.approx(108.5)

    def test_histogram_quantile_upper_bound(self):
        histogram = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.6, 7.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 10.0

    def test_registry_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_counter_total_sums_labels(self):
        registry = MetricsRegistry()
        registry.inc("c", module="a")
        registry.inc("c", 2.0, module="b")
        assert registry.counter_total("c") == 3.0

    def test_collector_refreshes_on_scrape(self):
        registry = MetricsRegistry()
        state = {"n": 1}
        registry.register_collector(
            lambda reg: reg.set_gauge("things", state["n"])
        )
        assert "things 1" in registry.render_prometheus(prefix="")
        state["n"] = 7
        assert "things 7" in registry.render_prometheus(prefix="")

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("plan_cache.hit") == "plan_cache_hit"
        assert sanitize_metric_name("9lives") == "_9lives"


PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"            # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'     # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'  # more labels
    r" [-+]?[0-9.eE+naif]+$"                 # value (incl +Inf / nan)
)


class TestPrometheusExposition:
    def test_every_sample_line_matches_the_grammar(self):
        registry = MetricsRegistry()
        registry.inc("plan_cache.hit")
        registry.set_gauge("plan_cache.size", 3, shard="a")
        registry.observe("query.latency.seconds", 0.02, outcome="ok")
        for line in registry.render_prometheus().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert PROM_LINE.match(line), line

    def test_counter_gets_total_suffix(self):
        registry = MetricsRegistry()
        registry.inc("retry.attempts")
        text = registry.render_prometheus()
        assert "repro_retry_attempts_total 1" in text
        assert "# TYPE repro_retry_attempts_total counter" in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render_prometheus()
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("c", module='with"quote')
        assert 'module="with\\"quote"' in registry.render_prometheus()

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.observe("h", 0.3)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["a.b"]["kind"] == "counter"
        assert parsed["h"]["series"][0]["count"] == 1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ---------------------------------------------------------------------------
# tracing primitives
# ---------------------------------------------------------------------------


class TestTracePrimitives:
    def test_span_tree_mirrors_nesting(self):
        trace = Trace("t1")
        outer = trace.start_span("extract")
        inner = trace.start_span("rewrite-search")
        trace.finish_span(inner)
        trace.finish_span(outer)
        trace.finish()
        assert trace.complete()
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == trace.root.span_id
        assert [s.name for s in trace.spans()] == [
            "query", "extract", "rewrite-search",
        ]

    def test_double_finish_raises(self):
        trace = Trace("t2")
        span = trace.start_span("compile")
        trace.finish_span(span)
        with pytest.raises(RuntimeError, match="finished twice"):
            span.finish()

    def test_finish_closes_open_spans_with_final_status(self):
        trace = Trace("t3")
        trace.start_span("execute")  # never explicitly finished
        trace.finish("error")
        assert trace.complete()
        assert trace.find("execute")[0].status == "error"
        assert trace.root.status == "error"

    def test_events_are_zero_duration(self):
        trace = Trace("t4")
        event = trace.event("cache.hit", key="q1")
        assert event.duration == 0.0
        assert event.attributes == {"key": "q1"}
        trace.finish()

    def test_render_shows_status_and_attributes(self):
        trace = Trace("t5")
        span = trace.start_span("unit", index=1)
        trace.finish_span(span, "error")
        trace.finish()
        rendered = trace.render()
        assert "unit" in rendered and "status=error" in rendered
        assert "index=1" in rendered

    def test_tracer_ring_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        first = tracer.start_trace()
        second = tracer.start_trace()
        third = tracer.start_trace()
        assert tracer.get(first.trace_id) is None
        assert tracer.get(second.trace_id) is second
        assert tracer.get(third.trace_id) is third
        assert tracer.started == 3 and tracer.evicted == 1
        assert tracer.trace_ids() == [second.trace_id, third.trace_id]


# ---------------------------------------------------------------------------
# tentpole: the full query lifecycle is traced end-to-end
# ---------------------------------------------------------------------------


class TestLifecycleTracing:
    def test_result_carries_trace_id_and_tree_is_complete(self, db, service):
        result = service.query(PERSON_QUERY)
        assert result.trace_id
        trace = service.trace(result.trace_id)
        assert trace is not None and trace.done and trace.complete()
        names = {span.name for span in trace.spans()}
        for expected in (
            "query", "parse", "extract", "rewrite-search",
            "rank", "assemble", "execute", "unit", "pattern",
        ):
            assert expected in names, f"missing span {expected!r}"
        assert "cache.miss" in names

    def test_rewrite_search_span_says_what_the_search_did(self, service):
        """The search's own counts (and what it capped) ride on the
        ``rewrite-search`` span and accumulate as per-query counters."""
        result = service.query(PERSON_QUERY)
        (span,) = service.trace(result.trace_id).find("rewrite-search")
        for count in (
            "candidates", "containment_tests", "prefilter_rejected",
            "memo_hits", "product_truncated", "psi_capped", "skipped",
        ):
            assert count in span.attributes, count
        assert span.attributes["containment_tests"] > 0
        # the cheapest-first search stopped at v_person's single-view plan
        # and never validated the pricier plans reading v_item
        assert span.attributes["skipped"] > 0
        for count, counter in (
            ("containment_tests", "rewrite.containment_tests"),
            ("skipped", "rewrite.validations_skipped"),
        ):
            assert result.counters[counter] == span.attributes[count], count
        # nothing was capped, so nothing is counted as capped
        assert "rewrite.product_truncated" not in result.counters
        assert "containment.psi_capped" not in result.counters

    def test_stats_run_adds_compile_span(self, service):
        result = service.query(PERSON_QUERY, stats=True)
        trace = service.trace(result.trace_id)
        compile_spans = trace.find("compile")
        assert compile_spans and all(span.ended for span in compile_spans)

    def test_cache_hit_recorded_as_event_span(self, service):
        service.query(PERSON_QUERY)
        hit = service.query(PERSON_QUERY)
        trace = service.trace(hit.trace_id)
        assert trace.find("cache.hit")
        assert not trace.find("parse")  # a hit skips the frontend entirely

    def test_explain_report_carries_trace_id(self, service):
        report = service.explain(PERSON_QUERY)
        assert report.trace_id
        assert service.trace(report.trace_id).complete()

    def test_parse_error_finishes_trace_with_error_status(self, db):
        with pytest.raises(Exception):
            db.query("for $x in")
        trace = db.tracer.traces()[-1]
        assert trace.done and trace.root.status == "error"
        assert trace.complete()

    def test_every_query_gets_a_distinct_trace(self, service):
        ids = {service.query(PERSON_QUERY).trace_id for _ in range(5)}
        assert len(ids) == 5

    def test_tracing_disabled_yields_no_trace_id(self):
        db = make_db(tracer=False)
        with QueryService(db, max_workers=2) as service:
            result = service.query(PERSON_QUERY)
            assert result.trace_id is None
            assert service.trace("tdeadbeef") is None

    def test_degradation_events_stamp_the_trace_id(self, db, service):
        db.fault_injector = FaultInjector("relation.scan@v_person:corrupt:1.0")
        result = service.query(PERSON_QUERY)
        assert result.degraded
        assert any(
            f"[trace {result.trace_id}]" in event
            for event in result.degradation_events
        )
        trace = service.trace(result.trace_id)
        assert trace.find("fault.injected")

    def test_retry_spans_under_chaos(self, db, service):
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:transient:1.0:2", seed=1
        )
        result = service.query(PERSON_QUERY)
        trace = service.trace(result.trace_id)
        retries = trace.find("retry")
        assert retries and all(span.ended for span in retries)
        assert result.counters["retry.recovered"] == 1.0


# ---------------------------------------------------------------------------
# tentpole: service counters land in the registry
# ---------------------------------------------------------------------------


class TestServiceMetrics:
    def test_family_schema_present_before_any_query(self, service):
        text = service.metrics.render_prometheus()
        for family in (
            "repro_plan_cache_hit_total",
            "repro_plan_cache_miss_total",
            "repro_retry_attempts_total",
            "repro_breaker_opened_total",
            "repro_faults_injected_transient_total",
            "repro_latency_samples_dropped_total",
            "repro_queries_timeout_total",
        ):
            assert family in text, f"missing family {family}"
        # the latency histogram is labeled, so it exposes only its
        # HELP/TYPE schema until the first sample arrives
        assert "# TYPE repro_query_latency_seconds histogram" in text

    def test_cache_counters_flow_through(self, service):
        service.query(PERSON_QUERY)
        service.query(PERSON_QUERY)
        metrics = service.metrics
        assert metrics.counter_value("plan_cache.hit") == 1.0
        assert metrics.counter_value("plan_cache.miss") == 1.0

    def test_latency_histogram_labeled_by_outcome(self, service):
        service.query(PERSON_QUERY)
        histogram = service.metrics.histogram("query.latency.seconds")
        assert histogram.count(outcome="ok") == 1

    def test_plan_cache_collector_mirrors_stats(self, service):
        service.query(PERSON_QUERY)
        service.query(AUCTION_QUERY)
        service.metrics.collect()  # scrape-time refresh
        assert service.metrics.counter_value("plan_cache.misses") == 2.0
        gauge = service.metrics.gauge("plan_cache.size")
        assert gauge.value() == 2.0

    def test_breaker_counters_labeled_by_module(self, db, service):
        db.fault_injector = FaultInjector("relation.scan@v_person:corrupt:1.0")
        service.query(PERSON_QUERY)
        assert (
            service.metrics.counter_value("breaker.failures", module="v_person")
            >= 1.0
        )

    def test_compile_join_choice_counted(self, service):
        joined = (
            "for $p in //people/person return ($p/name/text(), $p/id/text())"
        )
        service.query(joined)
        total = sum(
            service.metrics.counter_total(f"compile.join.{kind}")
            for kind in ("hash", "nested", "merge", "index")
        )
        assert total >= 0.0  # family may legitimately be empty on this plan


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_none_threshold_disables_capture(self):
        log = SlowQueryLog(threshold=None)
        assert log.consider("q", 99.0, "ok", None) is None
        assert log.captured == 0

    def test_capture_preserves_rendered_tree(self):
        log = SlowQueryLog(threshold=0.0)
        trace = Trace("t9")
        trace.finish()
        entry = log.consider("//a", 0.5, "ok", trace)
        assert entry.trace_id == "t9"
        assert "query" in entry.rendered
        assert "500.0ms" in log.render()

    def test_bounded_capacity(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        for index in range(5):
            log.consider(f"q{index}", 1.0, "ok", None)
        assert len(log) == 2 and log.captured == 5

    def test_service_captures_slow_queries_end_to_end(self, db):
        with QueryService(
            db, max_workers=2, slow_query_threshold=0.0
        ) as service:
            result = service.query(PERSON_QUERY)
            entries = service.slow_queries.entries()
            assert entries and entries[0].trace_id == result.trace_id
            assert "execute" in entries[0].rendered
            assert service.metrics.counter_value("slow_queries.captured") == 1


# ---------------------------------------------------------------------------
# the /metrics HTTP endpoint
# ---------------------------------------------------------------------------


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestHTTPEndpoint:
    @pytest.fixture()
    def server(self, service):
        server = start_observability_server(service, port=0)
        yield server
        server.stop()

    def test_metrics_route_serves_prometheus_text(self, service, server):
        service.query(PERSON_QUERY)
        status, content_type, body = fetch(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "repro_plan_cache_miss_total 1" in body
        assert "repro_query_latency_seconds_count" in body

    def test_metrics_json_route(self, service, server):
        service.query(PERSON_QUERY)
        status, content_type, body = fetch(server.url + "/metrics.json")
        assert status == 200 and "json" in content_type
        payload = json.loads(body)
        assert payload["plan_cache.miss"]["series"][0]["value"] == 1.0

    def test_trace_route_round_trip(self, service, server):
        result = service.query(PERSON_QUERY)
        status, _, body = fetch(server.url + f"/trace/{result.trace_id}")
        assert status == 200
        payload = json.loads(body)
        assert payload["trace_id"] == result.trace_id
        assert payload["root"]["name"] == "query"
        _, _, listing = fetch(server.url + "/traces")
        assert result.trace_id in json.loads(listing)["traces"]

    def test_trace_route_text_format(self, service, server):
        result = service.query(PERSON_QUERY)
        _, content_type, body = fetch(
            server.url + f"/trace/{result.trace_id}?format=text"
        )
        assert content_type.startswith("text/plain")
        assert body.startswith("query")

    def test_unknown_trace_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/trace/tnope")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/nothing")
        assert excinfo.value.code == 404

    def test_health_and_slow_routes(self, service, server):
        status, _, body = fetch(server.url + "/health")
        assert status == 200
        assert json.loads(body) == {
            "modules": {}, "live": True, "ready": True,
        }
        status, _, body = fetch(server.url + "/slow")
        assert status == 200
        assert json.loads(body)["captured"] == 0

    def test_liveness_and_readiness_split(self, service, server):
        status, _, body = fetch(server.url + "/health/live")
        assert status == 200 and json.loads(body) == {"live": True}
        status, _, body = fetch(server.url + "/health/ready")
        assert status == 200 and json.loads(body) == {"ready": True}
        # sustained shed flips readiness (503 + admission detail) while
        # liveness keeps answering 200 — the split's whole point
        for _ in range(8):
            service.admission.note_shed()
        with pytest.raises(urllib.error.HTTPError) as not_ready:
            fetch(server.url + "/health/ready")
        payload = json.loads(not_ready.value.read().decode("utf-8"))
        assert not_ready.value.code == 503 and payload["ready"] is False
        assert "admission" in payload
        status, _, _ = fetch(server.url + "/health/live")
        assert status == 200

    def test_concurrent_scrapes_during_queries(self, service, server):
        errors = []

        def scrape():
            try:
                for _ in range(5):
                    fetch(server.url + "/metrics")
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        for _ in range(10):
            service.query(PERSON_QUERY)
        scraper.join()
        assert not errors


# ---------------------------------------------------------------------------
# satellite: 8-worker chaos stress test with exact reconciliation
# ---------------------------------------------------------------------------


RECONCILED_FAMILIES = (
    "plan_cache.hit",
    "plan_cache.miss",
    "plan_cache.invalidated",
    "retry.attempts",
    "retry.recovered",
    "faults.injected.transient",
    "degraded.reroutes",
    "degraded.base_fallbacks",
)


class TestConcurrentReconciliation:
    def test_registry_reconciles_with_per_query_counters(self, db):
        # times-bounded transient faults: every query eventually succeeds,
        # so every per-query counters dict is returned and summable.  The
        # 6-injection budget is global, so under unlucky interleaving one
        # query can absorb several faults itself — max_attempts must cover
        # the whole budget or the test races on thread scheduling.
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:transient:1.0:6", seed=7
        )
        queries = [PERSON_QUERY, AUCTION_QUERY, ITEM_QUERY]
        results = []
        results_lock = threading.Lock()
        errors = []

        with QueryService(
            db,
            cache_capacity=16,
            max_workers=8,
            retry_policy=RetryPolicy(max_attempts=7, base_delay=0.002),
        ) as service:

            def worker(worker_id):
                try:
                    for index in range(6):
                        result = service.query(
                            queries[(worker_id + index) % len(queries)]
                        )
                        with results_lock:
                            results.append(result)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors, errors
            assert len(results) == 48

            for family in RECONCILED_FAMILIES:
                expected = sum(
                    result.counters.get(family, 0.0) for result in results
                )
                actual = service.metrics.counter_total(family)
                assert actual == expected, (
                    f"{family}: registry={actual} per-query-sum={expected}"
                )
            # the chaos actually fired: this test must not pass vacuously
            assert service.metrics.counter_total("faults.injected.transient") > 0

            # every query produced a sample in the shared recorder
            assert len(service.latency) == 48
            histogram = service.metrics.histogram("query.latency.seconds")
            assert histogram.count(outcome="ok") == 48

    def test_no_span_orphaned_or_double_closed(self, db):
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:transient:1.0:4", seed=3
        )
        trace_ids = []
        ids_lock = threading.Lock()
        errors = []

        # The 4-fault budget is global, and a query whose first attempt
        # runs while the other person queries are still preparing can draw
        # several faults in a row.  With the default 3 attempts, one that
        # drew 3 raised (retry.exhausted 1, 28 of 32 trace ids back), so the
        # attempts cover the whole budget: every query then succeeds.
        with QueryService(
            db,
            cache_capacity=16,
            max_workers=8,
            retry_policy=RetryPolicy(max_attempts=5, base_delay=0.002),
        ) as service:

            def worker(worker_id):
                try:
                    for index in range(4):
                        result = service.query(
                            [PERSON_QUERY, AUCTION_QUERY][(worker_id + index) % 2]
                        )
                        with ids_lock:
                            trace_ids.append(result.trace_id)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors, errors
            assert len(trace_ids) == 32 and all(trace_ids)
            # the chaos fired in full and no query gave up
            assert service.metrics.counter_total("faults.injected.transient") == 4
            assert service.metrics.counter_total("retry.exhausted") == 0
            retained = 0
            for trace_id in trace_ids:
                trace = service.trace(trace_id)
                if trace is None:  # evicted from the tracer ring
                    continue
                retained += 1
                assert trace.done, f"trace {trace_id} never finished"
                assert trace.complete(), f"open span inside {trace_id}"
            assert retained > 0


# ---------------------------------------------------------------------------
# satellite: /profile and /flamegraph error paths + scrape-during-profiling
# ---------------------------------------------------------------------------


class TestProfileEndpointErrorPaths:
    """The profiling routes must fail with targeted hints, not stack
    traces: disabled profiler, empty ring, malformed and unknown trace
    ids each get a distinct, documented response."""

    @pytest.fixture()
    def server(self, service):
        # the default service has no profiler attached at all
        server = start_observability_server(service, port=0)
        yield server
        server.stop()

    def _error_payload(self, excinfo):
        return json.loads(excinfo.value.read().decode("utf-8"))

    def test_profile_disabled_is_404_with_hint(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/profile")
        assert excinfo.value.code == 404
        payload = self._error_payload(excinfo)
        assert payload["error"] == "profiler disabled"
        assert "--profile" in payload["hint"]

    def test_flamegraph_disabled_is_404_with_hint(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/flamegraph")
        assert excinfo.value.code == 404
        assert "--sample-hz" in self._error_payload(excinfo)["hint"]

    def test_empty_ring_serves_cleanly(self, db):
        with QueryService(db, profiler=True) as service:
            with start_observability_server(service, port=0) as server:
                status, _, body = fetch(server.url + "/profile")
        assert status == 200
        payload = json.loads(body)
        assert payload["recorded"] == 0 and payload["ring"] == []

    def test_malformed_trace_id_is_400(self, db):
        with QueryService(db, profiler=True) as service:
            with start_observability_server(service, port=0) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    fetch(server.url + "/profile?trace=DROP%20TABLE")
                assert excinfo.value.code == 400
                payload = self._error_payload(excinfo)
                assert "malformed" in payload["error"]
                assert "t0000002a" in payload["hint"]

    def test_unknown_but_wellformed_trace_id_is_404(self, db):
        with QueryService(db, profiler=True) as service:
            with start_observability_server(service, port=0) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    fetch(server.url + "/profile?trace=t00ffee")
                assert excinfo.value.code == 404

    def test_flamegraph_without_sampler_is_404(self, db):
        # profiler attached (attributed ring) but no sampling rate
        with QueryService(db, profiler=True) as service:
            with start_observability_server(service, port=0) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    fetch(server.url + "/flamegraph")
                assert excinfo.value.code == 404
                assert "sampler" in self._error_payload(excinfo)["error"]


class TestScrapeDuringProfiledQueries:
    def test_concurrent_profile_scrapes_see_no_torn_state(self):
        """Scraping /profile, /flamegraph and /metrics while profiled
        queries execute on 4 workers must neither error nor expose a
        half-written profile (every ring entry carries a complete
        operator row set)."""
        db = make_db(profile=True)
        errors = []
        with QueryService(
            db, cache_capacity=16, max_workers=4, sample_hz=200.0
        ) as service:
            with start_observability_server(service, port=0) as server:

                def scrape():
                    try:
                        for _ in range(10):
                            _, _, body = fetch(server.url + "/profile")
                            for entry in json.loads(body)["ring"]:
                                assert entry["trace_id"]
                                assert entry["cpu_ms"] >= 0.0
                            fetch(server.url + "/flamegraph")
                            fetch(server.url + "/metrics")
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                scrapers = [
                    threading.Thread(target=scrape) for _ in range(3)
                ]
                for thread in scrapers:
                    thread.start()
                for _ in range(12):
                    service.query(PERSON_QUERY)
                    service.query(ITEM_QUERY)
                for thread in scrapers:
                    thread.join()
        assert not errors
        # every profile in the ring is complete: operators present, the
        # roots' inclusive CPU sums to the profile's headline number
        profiles = []
        with QueryService(db, profiler=True) as service:
            service.query(PERSON_QUERY)
            profiles = service.profiler.profiles()
        assert profiles and all(p.operators for p in profiles)

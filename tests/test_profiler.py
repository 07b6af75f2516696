"""Per-operator resource profiling and cost-model calibration.

Covers the two collection modes — attributed CPU/memory at the batch
engine's observation points, and the continuous span-tagged stack
sampler — plus the calibration consumer, the qlog/EXPLAIN/slow-query
surfaces, shard-profile aggregation, the no-profiling fast path, and the
acceptance criterion: attributed CPU covering the work of the XMark
battery (on a deterministic injected clock).
"""

import sys
import threading
import time

import pytest

from repro import Database, QueryService
from repro.cli import run_command
from repro.core.coordinator import ShardedDatabase
from repro.engine.calibrate import (
    CalibrationReport,
    calibrate_records,
    classify,
)
from repro.engine.context import ExecutionContext, OperatorMetrics
from repro.engine.metrics import MetricsRegistry, register_process_collector
from repro.engine.profiler import (
    PROFILE_ENV_VAR,
    Profiler,
    QueryProfile,
    StackSampler,
    resolve_profile,
    traced_memory,
    valid_trace_id,
)
from repro.engine.qlog import build_record
from repro.engine.tracing import SlowQueryLog, Trace, active_spans
from repro.workloads import XMARK_QUERIES, generate_xmark

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
ITEM_QUERY = "//regions//item/name/text()"


def make_db(**kwargs):
    db = Database(metrics=MetricsRegistry(), **kwargs)
    db.add_document(generate_xmark(scale=1, seed=0))
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
    return result


# ---------------------------------------------------------------------------
# flag resolution & trace-id validation
# ---------------------------------------------------------------------------


class TestResolveProfile:
    def test_explicit_bool_wins(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        assert resolve_profile(False) is False
        assert resolve_profile(True) is True

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "on")
        assert resolve_profile(None) is True
        monkeypatch.setenv(PROFILE_ENV_VAR, "off")
        assert resolve_profile(None) is False
        monkeypatch.delenv(PROFILE_ENV_VAR)
        assert resolve_profile(None) is False

    @pytest.mark.parametrize("text", ["1", "true", "ON", "Yes"])
    def test_truthy_strings(self, text):
        assert resolve_profile(text) is True

    @pytest.mark.parametrize("text", ["0", "false", "OFF", "no", ""])
    def test_falsy_strings(self, text):
        assert resolve_profile(text) is False

    def test_typo_raises_instead_of_silently_disabling(self):
        with pytest.raises(ValueError, match="invalid profile setting"):
            resolve_profile("ture")

    def test_database_constructor_resolves(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        assert Database().profile is True
        assert Database(profile=False).profile is False


class TestTraceIdValidation:
    @pytest.mark.parametrize("good", ["t1", "t0000002a", "tdeadbeef"])
    def test_valid(self, good):
        assert valid_trace_id(good)

    @pytest.mark.parametrize(
        "bad", ["", "t", "x1f", "tXYZ", "t" + "0" * 17, "t1; rm -rf"]
    )
    def test_invalid(self, bad):
        assert not valid_trace_id(bad)


# ---------------------------------------------------------------------------
# the refcounted tracemalloc window
# ---------------------------------------------------------------------------


class TestTracedMemoryWindow:
    def test_window_starts_and_stops_tracing(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        with traced_memory():
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

    def test_nested_windows_share_one_session(self):
        import tracemalloc

        with traced_memory():
            with traced_memory():
                assert tracemalloc.is_tracing()
            # inner exit must not stop the outer window's session
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

    def test_respects_externally_started_tracing(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with traced_memory():
                pass
            # the application started it; the window must not stop it
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# OperatorMetrics resource columns
# ---------------------------------------------------------------------------


class TestOperatorMetricsResources:
    def test_self_cpu_subtracts_children_clamped(self):
        child = OperatorMetrics(label="PScan(r)", cpu_ns=400)
        parent = OperatorMetrics(label="PFilter", cpu_ns=1000)
        parent.children = [child]
        assert parent.self_cpu_ns == 600
        # clock granularity can make a child look costlier: clamp at 0
        child.cpu_ns = 1500
        assert parent.self_cpu_ns == 0

    def test_pretty_shows_cpu_and_mem_only_when_profiled(self):
        node = OperatorMetrics(label="PScan(r)", rows_out=3)
        assert "cpu=" not in node.pretty()
        node.cpu_ns = 2_000_000
        node.peak_mem_bytes = 2048
        line = node.pretty()
        assert "cpu=2.00ms" in line and "mem=2.0KB" in line

    def test_top_cpu_ranks_by_exclusive_cpu(self):
        db = make_db(profile=True)
        result = db.query(PERSON_QUERY, stats=True)
        tops = [m for metrics in result.metrics for m in metrics.top_cpu()]
        assert tops, "profiled run produced no CPU-ranked operators"
        assert all(m.self_cpu_ns > 0 for m in tops)


# ---------------------------------------------------------------------------
# mode 1: attributed profiling
# ---------------------------------------------------------------------------


class TestAttributedProfiling:
    @pytest.mark.parametrize("laps", LAPS)
    def test_profiled_run_fills_cpu_and_memory(self, laps):
        db = make_db(profile=True)
        db.profile_memory_stride = 1  # every profiled query samples memory
        result = run_laps(db, ITEM_QUERY, laps, stats=True)
        assert result.metrics
        roots = [metrics.root for metrics in result.metrics]
        assert sum(root.cpu_ns for root in roots) > 0
        assert any(
            node.peak_mem_bytes > 0
            for metrics in result.metrics
            for node in metrics.walk()
        )

    @pytest.mark.parametrize("laps", LAPS)
    def test_unprofiled_run_stays_at_zero(self, laps):
        result = run_laps(
            make_db(), ITEM_QUERY, laps, stats=True
        )
        assert result.metrics
        for metrics in result.metrics:
            for node in metrics.walk():
                assert node.cpu_ns == 0 and node.peak_mem_bytes == 0

    def test_cached_plan_respects_profile_toggle(self):
        # compiled plans are cached and re-stamped per execution: the
        # same plan must profile when asked and stay silent when not
        db = make_db(profile=True)
        prepared = db.prepare(ITEM_QUERY)
        profiled = db.execute_prepared(prepared, stats=True)
        assert sum(m.total_cpu_ns() for m in profiled.metrics) > 0
        db.profile = False
        plain = db.execute_prepared(prepared, stats=True)
        assert sum(m.total_cpu_ns() for m in plain.metrics) == 0

    def test_explain_surfaces_resource_columns(self):
        db = make_db(profile=True)
        report = db.explain(ITEM_QUERY)
        rendered = report.render()
        assert "cpu" in rendered and "peak mem" in rendered
        assert "cpu=" in rendered

    def test_explain_header_unchanged_without_profiling(self):
        rendered = make_db().explain(ITEM_QUERY).render()
        assert "peak mem" not in rendered

    def test_base_pattern_evaluation_is_attributed(self):
        # a query no view can answer runs through evaluate_pattern; its
        # cost must appear as a synthetic BaseEval tree, not vanish
        db = make_db(profile=True)
        result = db.query(
            "//open_auctions/open_auction/reserve/text()", stats=True
        )
        labels = [m.root.label for m in result.metrics]
        assert any(label.startswith("BaseEval(") for label in labels)
        base = next(
            m.root for m in result.metrics
            if m.root.label.startswith("BaseEval(")
        )
        assert base.cpu_ns > 0 and base.rows_out == len(result.tuples)


# ---------------------------------------------------------------------------
# acceptance: CPU coverage on XMark
# ---------------------------------------------------------------------------


def _battery_db(shards=0):
    """One scale-1 XMark document, or three spread over ``shards``
    partitions, with the battery's two views."""
    if shards:
        db = ShardedDatabase(shards, metrics=MetricsRegistry(), profile=True)
        db.add_documents(
            [
                generate_xmark(scale=1, seed=seed, name=f"x{seed}.xml")
                for seed in range(3)
            ]
        )
    else:
        db = Database(metrics=MetricsRegistry(), profile=True)
        db.add_document(generate_xmark(scale=1, seed=0))
    db.add_view("v_person", "/people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "/regions/item[id:s]{/name[id:s, val]}")
    return db


class _CallClock:
    """A deterministic stand-in for ``time.thread_time_ns``: this thread's
    "CPU" is the number of Python and builtin calls it has made, counted by
    a profile hook — immune to host load, allocator state and GC pauses."""

    def __init__(self):
        self.calls = 0

    def hook(self, _frame, event, _arg):
        if event == "call" or event == "c_call":
            self.calls += 1

    def read(self):
        return self.calls


class TestAcceptanceCriteria:
    @pytest.mark.parametrize(
        "laps, shards",
        [
            pytest.param(1, 0, id="batch"),
            pytest.param(2, 0, id="iter"),
            pytest.param(1, 2, id="sharded"),
        ],
    )
    def test_attributed_cpu_covers_the_battery(self, laps, shards, monkeypatch):
        """Aggregate attributed CPU across the XMark battery covers at
        least 90% of the CPU burned executing it, both read from one
        injected call-counting clock around ``laps`` warm passes — on one
        store, and on two shards, whose work runs inside the
        coordinator's attributed windows."""
        db = _battery_db(shards)
        prepared = [db.prepare(query) for query in XMARK_QUERIES.values()]
        for plan in prepared:
            db.execute_prepared(plan, stats=True)
        clock = _CallClock()
        monkeypatch.setattr(time, "thread_time_ns", clock.read)
        attributed = burned = 0
        previous = sys.getprofile()
        sys.setprofile(clock.hook)
        try:
            for plan in prepared * laps:
                cpu_started = clock.read()
                result = db.execute_prepared(plan, stats=True)
                burned += clock.read() - cpu_started
                attributed += sum(m.total_cpu_ns() for m in result.metrics)
        finally:
            sys.setprofile(previous)
        # measured: 97.1% of the calls
        assert attributed >= 0.90 * burned, (
            f"attributed {attributed} of {burned} calls "
            f"({attributed / burned * 100:.1f}%)"
        )


# ---------------------------------------------------------------------------
# mode 2: the continuous stack sampler
# ---------------------------------------------------------------------------


class TestStackSampler:
    def test_sample_once_captures_this_thread(self):
        sampler = StackSampler(hz=1.0)
        taken = sampler.sample_once()
        assert taken >= 1
        collapsed = sampler.collapsed()
        assert "test_sample_once_captures_this_thread" in collapsed
        # collapsed-stack grammar: "frame;frame;... count" per line
        for line in collapsed.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_skip_ident_excludes_a_thread(self):
        # other suites may leave daemon threads behind, so only assert
        # that THIS thread's frames are absent, not that nothing sampled
        sampler = StackSampler(hz=1.0)
        sampler.sample_once(skip_ident=threading.get_ident())
        assert "test_skip_ident_excludes_a_thread" not in sampler.collapsed()

    def test_span_tag_prefixes_worker_stacks(self):
        trace = Trace("t0000ff01")
        try:
            assert active_spans()[threading.get_ident()] == (
                "t0000ff01", "query"
            )
            sampler = StackSampler(hz=1.0)
            sampler.sample_once()
            tagged = [
                line for line in sampler.collapsed().splitlines()
                if line.startswith("query:query;")
            ]
            assert tagged
        finally:
            trace.finish()
        assert threading.get_ident() not in active_spans()

    def test_distinct_stack_bound_counts_drops(self):
        registry = MetricsRegistry()
        sampler = StackSampler(hz=1.0, registry=registry, max_stacks=1)
        sampler.sample_once()

        def deeper():
            return sampler.sample_once()

        assert deeper() >= 0  # second distinct stack hits the bound
        assert sampler.dropped >= 1
        assert registry.counter("profiler.dropped").value() >= 1
        assert sampler.snapshot()["distinct_stacks"] == 1

    def test_max_depth_truncates_chains(self):
        sampler = StackSampler(hz=1.0, max_depth=2)
        sampler.sample_once()
        for line in sampler.collapsed().splitlines():
            stack, _, _ = line.rpartition(" ")
            assert len(stack.split(";")) <= 2

    def test_lifecycle_thread_starts_and_stops(self):
        sampler = StackSampler(hz=500.0)
        sampler.start()
        try:
            assert sampler.running
            deadline = time.monotonic() + 2.0
            while sampler.samples == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sampler.samples > 0
        finally:
            sampler.stop()
        assert not sampler.running

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            StackSampler(hz=0)


# ---------------------------------------------------------------------------
# the Profiler facade & ring
# ---------------------------------------------------------------------------


class _FakeResult:
    def __init__(self, trace_id, metrics):
        self.trace_id = trace_id
        self.metrics = metrics


def _metrics_tree(cpu_ns=1_000_000):
    from repro.engine.context import PlanMetrics

    root = OperatorMetrics(label="PScan(r)", cpu_ns=cpu_ns, rows_out=1)
    return PlanMetrics(root)


class TestProfilerRing:
    def test_record_and_lookup_by_trace(self):
        profiler = Profiler()
        profile = profiler.record(
            "q", _FakeResult("t01", [_metrics_tree()]), 0.5
        )
        assert profile is not None and profile.cpu_ms == 1.0
        assert profiler.for_trace("t01") is profile
        assert profiler.for_trace("t99") is None

    def test_empty_metrics_not_recorded(self):
        profiler = Profiler()
        assert profiler.record("q", _FakeResult("t01", []), 0.1) is None
        assert profiler.recorded == 0

    def test_ring_evicts_oldest(self):
        profiler = Profiler(ring_capacity=2)
        for index in range(3):
            profiler.record(
                "q", _FakeResult(f"t{index:02x}", [_metrics_tree()]), 0.1
            )
        assert profiler.for_trace("t00") is None
        assert profiler.for_trace("t02") is not None
        assert profiler.recorded == 3
        assert len(profiler.profiles()) == 2

    def test_payload_shape(self):
        registry = MetricsRegistry()
        registry.counter("profiler.queries", "profiles recorded")
        profiler = Profiler(registry=registry)
        profiler.record("q", _FakeResult("t01", [_metrics_tree()]), 0.1)
        payload = profiler.payload()
        assert payload["recorded"] == 1
        entry = payload["ring"][0]
        assert entry["trace_id"] == "t01" and entry["top_cpu"]
        assert payload["sampler"] is None
        assert profiler.flamegraph() is None
        assert registry.counter("profiler.queries").value() == 1

    def test_query_profile_flattens_depth(self):
        db = make_db(profile=True)
        result = db.query(ITEM_QUERY, stats=True)
        profile = QueryProfile.from_result(ITEM_QUERY, result, 0.2)
        assert profile.operators
        assert {op["depth"] for op in profile.operators} >= {0}
        assert profile.cpu_ms == pytest.approx(
            sum(m.total_cpu_ns() for m in result.metrics) / 1e6, abs=0.001
        )


# ---------------------------------------------------------------------------
# surfaces: qlog records, slow-query stamping
# ---------------------------------------------------------------------------


class TestQlogProfileFields:
    def test_profiled_record_carries_cpu_and_memory(self):
        db = make_db(profile=True)
        result = db.query(ITEM_QUERY, stats=True)
        record = build_record(ITEM_QUERY, result, 0.1, "ok")
        rows = record["operators"]
        assert rows and all("depth" in row for row in rows)
        assert any(row.get("cpu_ms", 0) > 0 for row in rows)
        assert all("peak_mem_kb" in row for row in rows)

    def test_unprofiled_record_omits_resource_fields(self):
        db = make_db()
        result = db.query(ITEM_QUERY, stats=True)
        record = build_record(ITEM_QUERY, result, 0.1, "ok")
        rows = record["operators"]
        assert rows and all("depth" in row for row in rows)
        assert all("cpu_ms" not in row for row in rows)


class TestSlowQueryStamping:
    def test_entry_carries_plan_executor_and_top_cpu(self):
        db = make_db(profile=True)
        with QueryService(db, slow_query_threshold=0.0) as service:
            service.query(ITEM_QUERY)
            entries = service.slow_queries.entries()
        assert entries
        entry = entries[-1]
        assert entry.plan_fingerprint
        assert entry.top_cpu
        rendered = service.slow_queries.render()
        assert "plan=" in rendered and "cpu#1" in rendered

    def test_stamps_default_empty_without_profiler(self):
        log = SlowQueryLog(threshold=0.0)
        log.consider("q", 0.01, "ok", None)
        entry = log.entries()[-1]
        assert entry.plan_fingerprint == "" and entry.top_cpu == ()


# ---------------------------------------------------------------------------
# process-health gauges (satellite)
# ---------------------------------------------------------------------------


class TestProcessCollector:
    def test_gauges_refresh_at_scrape_time(self):
        registry = MetricsRegistry()
        register_process_collector(registry)
        text = registry.render_prometheus()
        assert "repro_process_max_rss_bytes" in text
        assert "repro_process_gc_objects" in text
        assert "repro_process_gc_collections" in text
        assert "repro_process_threads" in text
        snapshot = registry.snapshot()
        assert snapshot["process.threads"]["series"][0]["value"] >= 1
        assert snapshot["process.max_rss_bytes"]["series"][0]["value"] > 0

    def test_service_attaches_collector(self):
        db = make_db()
        with QueryService(db) as service:
            assert "process.threads" in service.metrics.render_prometheus()


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def _synthetic_record(coefs):
    """One profiled qlog record: a hash join over two scans, with CPU
    derived from the classes' true coefficients."""
    left_units, right_units = 100.0, 50.0
    join_units = 2.0 * right_units + left_units
    return {
        "outcome": "ok",
        "operators": [
            {
                "label": "PHashJoin(=)", "depth": 0,
                "est": 60.0, "actual": 60,
                "cpu_ms": coefs["hash-join"] * join_units
                + coefs["scan"] * (left_units + right_units),
            },
            {
                "label": "PScan(left)", "depth": 1,
                "est": left_units, "actual": 100,
                "cpu_ms": coefs["scan"] * left_units,
            },
            {
                "label": "PScan(right)", "depth": 1,
                "est": right_units, "actual": 50,
                "cpu_ms": coefs["scan"] * right_units,
            },
        ],
    }


class TestCalibration:
    def test_fits_recover_known_coefficients(self):
        coefs = {"hash-join": 0.004, "scan": 0.002}
        report = calibrate_records(
            [_synthetic_record(coefs) for _ in range(5)]
        )
        assert report.profiled_records == 5
        assert report.fits["scan"].coefficient == pytest.approx(0.002)
        assert report.fits["hash-join"].coefficient == pytest.approx(0.004)
        assert not report.empty

    def test_flags_mispriced_class(self):
        # the join burns 25x more CPU per unit than the scans; the join
        # dominates the workload-wide coefficient, so the scans surface
        # as the >3x-off outlier class
        coefs = {"hash-join": 0.05, "scan": 0.002}
        report = calibrate_records(
            [_synthetic_record(coefs) for _ in range(5)]
        )
        assert "scan" in report.flagged()
        rendered = report.render()
        assert "MISPRICED" in rendered
        as_dict = report.as_dict()
        flagged = [c for c in as_dict["classes"] if c["flagged"]]
        assert [c["class"] for c in flagged] == ["scan"]

    def test_unprofiled_and_failed_records_skipped(self):
        records = [
            {"outcome": "error", "operators": []},
            {"outcome": "ok", "operators": [
                {"label": "PScan(r)", "depth": 0, "est": 10.0, "actual": 10}
            ]},
        ]
        report = calibrate_records(records)
        assert report.records == 2 and report.profiled_records == 0
        assert report.empty
        assert "no profiled operators" in report.render()

    def test_missing_estimates_counted_as_skipped(self):
        record = {
            "outcome": "ok",
            "operators": [
                {"label": "PScan(r)", "depth": 0, "actual": 10,
                 "cpu_ms": 0.5, "est": None},
            ],
        }
        report = calibrate_records([record])
        assert report.fits["scan"].skipped == 1
        assert report.fits["scan"].points == 0

    def test_classify_longest_known_prefix(self):
        assert classify("PHashJoin(a=b)") == "hash-join"
        assert classify("PStackTreeDescJoin") == "stacktree-desc"
        assert classify("BaseEval(root{...})") == "base-eval"
        assert classify("SomethingNew") == "other"

    def test_rewriting_operators_are_priced(self):
        """The closures a rewriting plan compiles to have classes of their
        own instead of lumping into ``other``."""
        from repro.algebra.operators import TemplateAttr, TemplateElement
        from repro.engine.physical import PBase, PHashGroupBy, PRename, PXMLize

        leaf = PBase([])
        assert classify(PRename(leaf, {"e1": "n1"}).label()) == "rename"
        template = TemplateElement("r", [TemplateAttr("x")])
        assert classify(PXMLize(leaf, template).label()) == "xmlize"
        regroup = PHashGroupBy(leaf, ["n1.ID"], collections=[("n2", ["n2.V"], ["n2.V"])])
        assert classify(regroup.label()) == "group-by"

    def test_end_to_end_over_profiled_battery(self):
        """`repro calibrate` substance: recording the XMark battery with
        profiling on yields a coefficient for every exercised class."""
        db = _battery_db()
        records = []
        for query in XMARK_QUERIES.values():
            result = db.query(query, stats=True)
            records.append(build_record(query, result, 0.0, "ok"))
        report = calibrate_records(records)
        assert report.profiled_records == len(records)
        exercised = [
            fit for fit in report.fits.values() if fit.points > 0
        ]
        assert exercised
        for fit in exercised:
            assert fit.coefficient is not None and fit.coefficient >= 0
        assert report.global_coefficient is not None
        assert isinstance(report, CalibrationReport)


# ---------------------------------------------------------------------------
# service auto-attach & the REPL dot-command
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def test_service_auto_attaches_profiler_when_db_profiles(self):
        db = make_db(profile=True)
        with QueryService(db) as service:
            assert service.profiler is not None
            service.query(ITEM_QUERY)
            assert service.profiler.recorded == 1
            profile = service.profiler.profiles()[-1]
            assert profile.cpu_ms > 0 and profile.trace_id

    def test_profiler_false_disables(self):
        db = make_db(profile=True)
        with QueryService(db, profiler=False) as service:
            assert service.profiler is None
            service.query(ITEM_QUERY)  # must not crash without a profiler

    def test_plain_service_has_no_profiler(self):
        with QueryService(make_db()) as service:
            assert service.profiler is None

    def test_profiled_service_promotes_to_physical_stats(self):
        db = make_db(profile=True)
        with QueryService(db) as service:
            result = service.query(ITEM_QUERY)  # no stats requested
            assert result.metrics, "profiling must force instrumented runs"
            assert sum(m.total_cpu_ns() for m in result.metrics) > 0

    def test_repl_profile_command_toggles(self, capsys):
        db = make_db()
        assert run_command(db, ".profile")
        assert "profile: off" in capsys.readouterr().out
        assert run_command(db, ".profile on")
        assert "profile: on" in capsys.readouterr().out
        assert db.profile is True
        assert run_command(db, ".profile nonsense")
        assert "invalid profile setting" in capsys.readouterr().out
        assert db.profile is True
        assert run_command(db, ".profile off")
        capsys.readouterr()
        assert db.profile is False

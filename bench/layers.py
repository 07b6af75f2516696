"""The traced run: harness-side spans around each layer's public functions,
plus direct probes of single layers, giving the per-layer metrics.

Spans are recorded from here, outside the program: for the traced window
the names the planner and executor call — ``parse_query``, ``extract``,
``assemble_plan``, ``rewrite_pattern``, ``rank_rewritings``,
``ExecutionContext.compile``, ``Database.prepare``,
``Database.execute_prepared``, ``evaluate_pattern`` — are wrapped where
``repro.core.uload`` / ``repro.core.coordinator`` look them up, and
unwrapped before anything else is measured.  A layer's self time is its
span minus the part its child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from loop import Pass, over_passes, percentile, run_window, warm_up
from metrics import PER_LAYER
from repro import QueryService
from repro.core import coordinator, uload
from repro.engine.context import ExecutionContext
from repro.summary.path_summary import PathSummary
from repro.xmldata import load, serialize
from workloads import Fixture, Spec, build, new_database, row_count

#: share of ``--seconds`` given to each part of the traced run
PLAIN_SHARE = 0.2  # untraced window (the base of trace_overhead_ratio)
TRACED_SHARE = 0.3  # traced window (spans)
EXECUTE_SHARE = 0.15  # direct execute_prepared rounds, both flag sets
SERVICE_SHARE = 0.25  # service / no-qlog / no-tracer interleaved passes
COORDINATOR_SHARE = 0.05  # each store of the curve and of the overhead pair
#: a timed probe runs at least this many rounds — one when the budget is
#: that of a smoke run
MIN_ROUNDS = 2
SMOKE_BUDGET = 0.5
#: shard counts of the speed-up curve
CURVE_SHARDS = (1, 2, 4, 7)
#: spans kept in the trace file
MAX_TRACE_SPANS = 50_000

OPERATOR_CLASSES = (
    ("PScan", "scan"),
    ("PStackTree", "structural_join"),
    ("PHashJoin", "hash_join"),
    ("PProject", "project"),
    ("PHashGroupBy", "group_by"),
    ("PSort", "sort"),
    ("PLogicalFallback", "logical_fallback"),
    ("BaseEval", "base_eval"),
)


#: the spans ``uload.planning_share`` sums over prepare + execute
PLANNING_SPANS = (
    "xquery.parse",
    "xquery.extract",
    "xquery.assemble",
    "rewrite.search",
    "statistics.rank",
    "engine.compile",
)


@dataclass
class LayerTotal:
    """What the spans of one name add up to."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    count: int = 0


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent, query_id, count]``;
    ``parent`` indexes the enclosing span of the same thread (or None),
    ``count`` is the layer's own unit of work (patterns, candidates, nodes)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.query_id = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin_query(self, query_id: int) -> None:
        self.query_id = query_id

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.query_id, 0]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(value, *args)
            return value

        return traced

    def totals(self) -> dict:
        """Per span name, a :class:`LayerTotal` over the spans that belong
        to a query (mutations carry no query id)."""
        child_seconds = [0.0] * len(self.spans)
        for _name, start, end, parent, _query, _count in self.spans:
            if parent is not None:
                child_seconds[parent] += end - start
        totals: dict = collections.defaultdict(LayerTotal)
        for index, span in enumerate(self.spans):
            name, start, end, _parent, query, count = span
            if query is None:
                continue
            total = totals[name]
            total.calls += 1
            total.seconds += end - start
            total.self_seconds += end - start - child_seconds[index]
            total.count += count
        return totals

    def dump(self, path: Path, **header) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "query_id": q}
            for n, s, e, p, q, _count in self.spans[:MAX_TRACE_SPANS]
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}))


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap the layer entry points for the duration of the block."""
    node_counts: dict = {}

    def nodes(_value, _pattern, doc):
        if id(doc) not in node_counts:
            node_counts[id(doc)] = doc.count()
        return node_counts[id(doc)]

    def patterns(extraction, *_args):
        return sum(len(unit.patterns) for unit in extraction.units)

    targets = [
        (uload, "parse_query", "xquery.parse", None),
        (uload, "extract", "xquery.extract", patterns),
        (uload, "assemble_plan", "xquery.assemble", None),
        (uload, "rewrite_pattern", "rewrite.search", lambda found, *_: len(found)),
        (uload, "rank_rewritings", "statistics.rank", None),
        (uload, "evaluate_pattern", "embedding.evaluate", nodes),
        (coordinator, "evaluate_pattern", "embedding.evaluate", nodes),
        (ExecutionContext, "compile", "engine.compile", None),
        (uload.Database, "prepare", "uload.prepare", None),
        (uload.Database, "execute_prepared", "uload.execute", None),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    for owner, attr, name, count in targets:
        setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr], count))
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def span_metrics(recorder: SpanRecorder, queries: int, layer: dict) -> None:
    totals = recorder.totals()

    def per(value: float, divisor: float) -> float:
        return value / divisor if divisor else 0.0

    def ms_per_query(name: str) -> float:
        return 1000.0 * per(totals[name].seconds, queries)

    def ms_per_call(name: str) -> float:
        return 1000.0 * per(totals[name].seconds, totals[name].calls)

    prepare, execute = totals["uload.prepare"], totals["uload.execute"]
    search, evaluate = totals["rewrite.search"], totals["embedding.evaluate"]
    layer["xquery.parse_ms_per_query"] = ms_per_query("xquery.parse")
    layer["xquery.extract_ms_per_query"] = ms_per_query("xquery.extract")
    layer["xquery.assemble_ms_per_query"] = ms_per_query("xquery.assemble")
    layer["xquery.patterns_per_query"] = per(totals["xquery.extract"].count, queries)
    layer["rewrite.search_ms_per_pattern"] = ms_per_call("rewrite.search")
    layer["rewrite.candidates_per_pattern"] = per(search.count, search.calls)
    layer["statistics.rank_ms_per_pattern"] = ms_per_call("statistics.rank")
    layer["engine.compile_ms_per_query"] = ms_per_query("engine.compile")
    layer["uload.prepare_ms_per_query"] = ms_per_query("uload.prepare")
    layer["uload.prepare_self_ms_per_query"] = 1000.0 * per(
        prepare.self_seconds, queries
    )
    layer["uload.execute_ms_per_query"] = ms_per_query("uload.execute")
    planning = sum(totals[name].seconds for name in PLANNING_SPANS)
    layer["uload.planning_share"] = per(planning, prepare.seconds + execute.seconds)
    layer["embedding.evaluate_ms_per_pattern"] = ms_per_call("embedding.evaluate")
    layer["embedding.nodes_per_ms"] = per(evaluate.count, 1000.0 * evaluate.seconds)
    layer["embedding.share_of_execute"] = per(evaluate.seconds, execute.seconds)


def setup_metrics(fixture: Fixture, layer: dict) -> None:
    """Storage, summary and XML layers, timed once outside the loop."""
    steps, docs, db = fixture.steps, fixture.docs, fixture.db
    views = len(fixture.spec.views)
    layer["storage.materialize_ms_per_view"] = (
        1000.0 * steps["views"] / views if views else 0.0
    )
    layer["storage.view_tuples"] = db.store.total_tuples()
    layer["storage.add_document_ms"] = 1000.0 * steps["load"] / len(docs)
    started = time.perf_counter()
    summary = PathSummary()
    for doc in docs:
        summary.add_document(doc)
    summary.finalize()
    layer["summary.build_ms"] = 1000.0 * (time.perf_counter() - started)
    layer["summary.paths"] = len(db.summary)
    nodes = docs[0].count()
    started = time.perf_counter()
    text = serialize(docs[0].root)
    layer["xmldata.serialize_nodes_per_s"] = nodes / (time.perf_counter() - started)
    started = time.perf_counter()
    load(text)
    layer["xmldata.parse_nodes_per_s"] = nodes / (time.perf_counter() - started)


def timed_rounds(budget: float, one_round) -> None:
    """Call ``one_round(index)`` until the budget (seconds) is spent."""
    floor = MIN_ROUNDS if budget >= SMOKE_BUDGET else 1
    started = time.perf_counter()
    index = 0
    while index < floor or time.perf_counter() - started < budget:
        one_round(index)
        index += 1


def direct_samples(db, prepared: dict, budget: float, flag_sets: dict) -> dict:
    """``{flags: {qid: [seconds]}}`` of ``execute_prepared`` called
    directly, the flag sets alternating within every round."""
    samples = {flags: {qid: [] for qid in prepared} for flags in flag_sets}

    def one_round(index: int) -> None:
        order = list(flag_sets) if index % 2 == 0 else list(reversed(flag_sets))
        for qid, plan in prepared.items():
            for flags in order:
                started = time.perf_counter()
                db.execute_prepared(plan, **flag_sets[flags])
                samples[flags][qid].append(time.perf_counter() - started)

    timed_rounds(budget, one_round)
    return samples


def mean_of_medians_ms(samples: dict) -> float:
    return 1000.0 * statistics.fmean(
        statistics.median(seconds) for seconds in samples.values()
    )


def execution_metrics(fixture: Fixture, budget: float, layer: dict) -> list:
    """The same prepared plans under ``physical=True`` and under the
    default flags.  Returns the pooled physical samples (seconds)."""
    db = fixture.db
    prepared = {qid: db.prepare(text) for qid, text in fixture.spec.queries}
    samples = direct_samples(
        db, prepared, budget, {"physical": {"physical": True}, "logical": {}}
    )
    physical = mean_of_medians_ms(samples["physical"])
    logical = mean_of_medians_ms(samples["logical"])
    layer["engine.execute_physical_ms_per_query"] = physical
    layer["engine.execute_logical_ms_per_query"] = logical
    layer["engine.logical_over_physical_ratio"] = logical / physical
    operator_metrics(db, prepared, layer)
    return [s for seconds in samples["physical"].values() for s in seconds]


def operator_metrics(db, prepared: dict, layer: dict) -> None:
    """Operator self CPU time by class, from ``QueryResult.metrics`` under
    ``stats=True`` with attributed profiling (one pass of the battery)."""
    self_cpu_ns: dict = collections.Counter()
    rows_in = rows_out = 0
    # the first profiled query of a database samples memory (tracemalloc);
    # spend that one outside the measurement
    db.profile, db.profile_memory_stride = True, 10**9
    try:
        first = next(iter(prepared.values()))
        db.execute_prepared(first, physical=True, stats=True)
        for plan in prepared.values():
            result = db.execute_prepared(plan, physical=True, stats=True)
            rows_out += max(1, row_count(result))
            for tree in result.metrics:
                for node in tree.walk():
                    rows_in += node.rows_in
                    self_cpu_ns[operator_class(node.label)] += node.self_cpu_ns
    finally:
        db.profile = False
    for _prefix, name in (*OPERATOR_CLASSES, ("", "other")):
        layer[f"engine.op_ms.{name}"] = self_cpu_ns[name] / 1e6 / len(prepared)
    layer["engine.rows_in_per_row_out"] = rows_in / rows_out


def operator_class(label: str) -> str:
    for prefix, name in OPERATOR_CLASSES:
        if label.startswith(prefix):
            return name
    return "other"


def service_metrics(fixture: Fixture, budget: float, direct: list, layer: dict):
    """What the service adds over ``execute_prepared`` on warm plans, and
    how much of that the query log and the tracer are: interleaved passes
    of a default service, one without qlog, and the default one with the
    database's tracer off (the order rotates from round to round)."""
    db, battery = fixture.db, list(fixture.spec.queries)
    default = QueryService(db, max_workers=1)
    no_qlog = QueryService(db, max_workers=1, qlog=False)
    tracer = db.tracer
    variants = [
        ("default", default, tracer),
        ("no_qlog", no_qlog, tracer),
        ("no_tracer", default, None),
    ]
    walls: dict = {variant: [] for variant, _service, _tracer in variants}
    latencies: list = []  # of the default variant

    def one_pass(service) -> list:
        seconds = []
        for _qid, text in battery:
            started = time.perf_counter()
            service.query(text, physical=True)
            seconds.append(time.perf_counter() - started)
        return seconds

    def one_round(index: int) -> None:
        shift = index % len(variants)
        for variant, service, its_tracer in variants[shift:] + variants[:shift]:
            db.tracer = its_tracer
            seconds = one_pass(service)
            walls[variant].append(sum(seconds))
            if variant == "default":
                latencies.extend(seconds)

    try:
        one_pass(default)  # warm both plan caches
        one_pass(no_qlog)
        timed_rounds(budget, one_round)
    finally:
        db.tracer = tracer
        default.shutdown()
        no_qlog.shutdown()

    def per_query_ms(variant: str) -> float:
        return 1000.0 * statistics.median(walls[variant]) / len(battery)

    layer["service.tax_ms_per_query"] = 1000.0 * (
        percentile(latencies, 50) - percentile(direct, 50)
    )
    default_ms = per_query_ms("default")
    layer["service.qlog_ms_per_query"] = default_ms - per_query_ms("no_qlog")
    layer["service.tracing_ms_per_query"] = default_ms - per_query_ms("no_tracer")


def counter_metrics(fixture: Fixture, before: dict, layer: dict) -> None:
    """Cache, sentinel and service counters over the two windows."""
    after = counter_snapshot(fixture)
    delta = {name: after[name] - before[name] for name in after}
    lookups = delta["hits"] + delta["misses"]
    layer["plan_cache.hit_ratio"] = delta["hits"] / lookups if lookups else 0.0
    layer["plan_cache.evictions"] = delta["evictions"]
    layer["plan_cache.invalidations"] = delta["invalidations"]
    compiled = delta["compiled_hits"] + delta["compiled_misses"]
    layer["compiled_plans.hit_ratio"] = (
        delta["compiled_hits"] / compiled if compiled else 0.0
    )
    layer["sentinel.stat_refreshes"] = delta["stat_refreshes"]
    layer["sentinel.plan_flips"] = delta["plan_flips"]
    layer["service.rejected"] = delta["rejected"]
    layer["service.retries"] = delta["retries"]
    layer["service.degraded"] = delta["degraded"]
    registry, service = fixture.db.metrics, fixture.service
    wait = registry.histogram("admission.queue_wait.seconds").quantile(0.5)
    layer["service.queue_wait_p50_ms"] = 1000.0 * (wait or 0.0)
    p99 = service.latency.percentile(99)
    layer["service.latency_p99_ms"] = 1000.0 * (p99 or 0.0)


def counter_snapshot(fixture: Fixture) -> dict:
    cache = fixture.service.cache_stats()
    compiled = fixture.db.compiled_plans.stats()
    sentinel, registry = fixture.service.sentinel, fixture.db.metrics
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
        "compiled_hits": compiled.hits,
        "compiled_misses": compiled.misses,
        "stat_refreshes": sentinel.stats_refreshes,
        "plan_flips": sentinel.plan_flips,
        "rejected": registry.counter_total("admission.shed"),
        "retries": registry.counter_total("retry.attempts"),
        "degraded": registry.counter_total("degraded.patterns"),
    }


def coordinator_metrics(fixture: Fixture, budget: float, layer: dict) -> None:
    """Sharded against single-store execution of the same prepared
    battery on the same corpus, and a short fixed-pass scaling curve."""
    spec = fixture.spec

    def store(shards: int):
        db = new_database(shards)
        db.add_documents(fixture.docs)
        for name, text in spec.views:
            db.add_view(name, text)
        return db, {qid: db.prepare(text) for qid, text in spec.queries}

    def pass_seconds(db, prepared: dict) -> float:
        started = time.perf_counter()
        for plan in prepared.values():
            db.execute_prepared(plan, physical=True)
        return time.perf_counter() - started

    throughput = {}
    for shards in CURVE_SHARDS:
        db, prepared = store(shards)
        seconds: list = []
        try:
            pass_seconds(db, prepared)  # warm
            timed_rounds(budget, lambda _: seconds.append(pass_seconds(db, prepared)))
        finally:
            db.close()
        throughput[shards] = len(prepared) / statistics.median(seconds)
    for shards in CURVE_SHARDS[1:]:
        layer[f"coordinator.speedup_{shards}"] = throughput[shards] / throughput[1]

    single, single_plans = store(0)
    sharded_plans = {qid: fixture.db.prepare(text) for qid, text in spec.queries}
    flags = {"physical": {"physical": True}}
    sharded = direct_samples(fixture.db, sharded_plans, budget, flags)["physical"]
    alone = direct_samples(single, single_plans, budget, flags)["physical"]
    overhead = mean_of_medians_ms(sharded) - mean_of_medians_ms(alone)
    layer["coordinator.overhead_ms_per_query"] = overhead


def run_traced(spec: Spec, seed: int, seconds: float, out_dir: Path) -> dict:
    """The per-layer run of one workload (one set-up, two short windows,
    then the direct probes).  Writes ``trace_<workload>.json``."""
    rng = random.Random(f"{spec.name}:{seed}")
    layer = dict.fromkeys([name for name, _unit, _better in PER_LAYER], 0.0)
    fixture = build(spec, seed)
    try:
        setup_metrics(fixture, layer)
        warm = warm_up(fixture, rng)
        before = counter_snapshot(fixture)
        plain = run_window(fixture, rng, PLAIN_SHARE * seconds)
        recorder = SpanRecorder()
        with installed(recorder):
            traced = run_window(
                fixture, rng, TRACED_SHARE * seconds, on_query=recorder.begin_query
            )
        counter_metrics(fixture, before, layer)
        queries = traced.attempted - traced.mutations
        span_metrics(recorder, queries, layer)
        layer["rewrite.view_resolution_ratio"] = traced.view_resolution_ratio()
        # time per query, traced over untraced (the p50 of a pass is too
        # lumpy to compare two windows of one or two passes)
        overhead = over_passes(plain, Pass.qps) / over_passes(traced, Pass.qps)
        layer["harness.trace_overhead_ratio"] = overhead
        # the per-layer times are as measured; this is how fast the machine ran
        layer["harness.machine_speed"] = plain.wall_speed()
        direct = execution_metrics(fixture, EXECUTE_SHARE * seconds, layer)
        service_metrics(fixture, SERVICE_SHARE * seconds, direct, layer)
        if spec.shards:
            coordinator_metrics(fixture, COORDINATOR_SHARE * seconds, layer)
    finally:
        fixture.close()
    recorder.dump(out_dir / f"trace_{spec.name}.json", workload=spec.name, seed=seed)
    windows = (warm, plain, traced)
    return {
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows),
        "resolution": warm.view_resolution_ratio(),
        "metrics": layer,
    }

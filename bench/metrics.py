"""The benchmark's vocabulary: workloads, metrics, units and bounds.

This is the one table the rest of ``bench/`` reads and that
``BENCHMARK.json`` mirrors (``python3 bench/run.py --manifest`` prints the
mirror; ``--verify-only`` fails when the committed file drifts from it).
"""

from __future__ import annotations

#: how long one contract run measures, in seconds (``--seconds`` default of
#: the driver; the stand-alone full run uses FULL_SECONDS)
RUN_SECONDS = 10
#: measured window of the stand-alone ``bench/run.py --seed N`` run
FULL_SECONDS = 20
#: measured window of ``--quick``
QUICK_SECONDS = 1

#: workload name → why it exists (one line; the README has the long form)
WORKLOADS = {
    "plan_cold": (
        "29 queries over a 14-view catalog with a 1-entry plan cache: every "
        "query re-plans, so parse/extract/rewrite/rank/compile dominate"
    ),
    "view_warm": (
        "9 view-answered queries on one scale-16 document, plans cached: "
        "batch execution of rewritings plus the service tax is all that is left"
    ),
    "base_warm": (
        "27 XMark+DBLP queries with no views, plans cached: every pattern is "
        "evaluated on the base store, so embedding evaluation dominates"
    ),
    "shard_scatter": (
        "8 documents over 4 shards, plans cached: same work as one store, so "
        "the difference is scatter, gather and merge in the coordinator"
    ),
    "mutate_mix": (
        "view_warm with every 20th operation an add_view/drop_view: each "
        "mutation invalidates all plans, so preparation is paid again"
    ),
}

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression
#: (the README's "Bounds" section shows the spreads each was set from)
END_TO_END = [
    ("throughput_qps", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("mutation_p50_ms", "ms", "lower", 0.25),
]

#: (name, unit, better) — single-layer metrics from the traced run; no
#: bounds.  The README maps each to the end-to-end metric it should move.
PER_LAYER = [
    ("xquery.parse_ms_per_query", "ms", "lower"),
    ("xquery.extract_ms_per_query", "ms", "lower"),
    ("xquery.assemble_ms_per_query", "ms", "lower"),
    ("xquery.patterns_per_query", "count", "lower"),
    ("rewrite.search_ms_per_pattern", "ms", "lower"),
    ("rewrite.candidates_per_pattern", "count", "lower"),
    ("rewrite.view_resolution_ratio", "ratio", "higher"),
    ("statistics.rank_ms_per_pattern", "ms", "lower"),
    ("engine.compile_ms_per_query", "ms", "lower"),
    ("compiled_plans.hit_ratio", "ratio", "higher"),
    ("uload.prepare_ms_per_query", "ms", "lower"),
    ("uload.prepare_self_ms_per_query", "ms", "lower"),
    ("uload.execute_ms_per_query", "ms", "lower"),
    ("uload.planning_share", "ratio", "lower"),
    ("engine.execute_physical_ms_per_query", "ms", "lower"),
    ("engine.execute_logical_ms_per_query", "ms", "lower"),
    ("engine.logical_over_physical_ratio", "ratio", "lower"),
    ("engine.op_ms.scan", "ms", "lower"),
    ("engine.op_ms.structural_join", "ms", "lower"),
    ("engine.op_ms.hash_join", "ms", "lower"),
    ("engine.op_ms.project", "ms", "lower"),
    ("engine.op_ms.group_by", "ms", "lower"),
    ("engine.op_ms.sort", "ms", "lower"),
    ("engine.op_ms.logical_fallback", "ms", "lower"),
    ("engine.op_ms.base_eval", "ms", "lower"),
    ("engine.op_ms.other", "ms", "lower"),
    ("engine.rows_in_per_row_out", "ratio", "lower"),
    ("embedding.evaluate_ms_per_pattern", "ms", "lower"),
    ("embedding.nodes_per_ms", "1/ms", "higher"),
    ("embedding.share_of_execute", "ratio", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("plan_cache.evictions", "count", "lower"),
    ("plan_cache.invalidations", "count", "lower"),
    ("sentinel.stat_refreshes", "count", "lower"),
    ("sentinel.plan_flips", "count", "lower"),
    ("service.tax_ms_per_query", "ms", "lower"),
    ("service.qlog_ms_per_query", "ms", "lower"),
    ("service.tracing_ms_per_query", "ms", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.latency_p99_ms", "ms", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.degraded", "count", "lower"),
    ("coordinator.overhead_ms_per_query", "ms", "lower"),
    ("coordinator.speedup_2", "ratio", "higher"),
    ("coordinator.speedup_4", "ratio", "higher"),
    ("coordinator.speedup_7", "ratio", "higher"),
    ("storage.materialize_ms_per_view", "ms", "lower"),
    ("storage.view_tuples", "count", "lower"),
    ("storage.add_document_ms", "ms", "lower"),
    ("summary.build_ms", "ms", "lower"),
    ("summary.paths", "count", "lower"),
    ("xmldata.parse_nodes_per_s", "1/s", "higher"),
    ("xmldata.serialize_nodes_per_s", "1/s", "higher"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.machine_speed", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document this table implies."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }

#!/usr/bin/env python
"""Observability smoke workload: XMark through the query service with the
full tracing + metrics stack on, scraped over HTTP.

The CI observability lane runs this script to prove three things on every
push:

1. the ``/metrics`` endpoint serves valid Prometheus text covering the
   required metric families while a real workload is running;
2. the scraped snapshot reconciles with the per-query counters (the
   registry is not drifting from the ground truth);
3. tracing stays cheap: the traced configuration's median workload time
   must be within ``--threshold`` (default 5%) of the tracing-disabled
   configuration;
4. workload capture stays cheap: the file-backed query-log configuration
   must be within ``--qlog-threshold`` (default 5%) of the capture-
   disabled configuration;
5. profiling is pay-for-what-you-use: with the profiler *attached but
   disabled* the workload must stay within ``--profile-off-threshold``
   (default 2%) of the baseline, and with attributed profiling on plus
   the stack sampler at ``--sample-hz`` (default 97 Hz) it must stay
   within ``--profile-threshold`` (default 15%).

The profiled lane also emits the observability artifacts CI uploads: a
collapsed-stack flamegraph (``--flamegraph-out``) and the cost-model
calibration report fitted from the profiled run (``--calibration-out``).

Usage::

    PYTHONPATH=src python benchmarks/metrics_smoke.py \
        --snapshot metrics_snapshot.txt --threshold 0.05 \
        --flamegraph-out flamegraph.txt --calibration-out calibration.json

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import urllib.request

from repro import Database, QueryService
from repro.core.httpapi import start_observability_server
from repro.engine.calibrate import calibrate_records
from repro.engine.metrics import MetricsRegistry
from repro.engine.profiler import Profiler
from repro.engine.qlog import QueryLog, build_record
from repro.workloads import XMARK_QUERIES, generate_xmark

REQUIRED_FAMILIES = (
    "repro_plan_cache_hit_total",
    "repro_plan_cache_miss_total",
    "repro_plan_cache_size",
    "repro_breaker_opened_total",
    "repro_breaker_open_modules",
    "repro_retry_attempts_total",
    "repro_faults_injected_transient_total",
    "repro_latency_samples_dropped_total",
    "repro_query_latency_seconds",
    "repro_qlog_records_total",
    "repro_planner_plan_flip_total",
    "repro_planner_misestimate_total",
)


def build_database(tracer: bool, profile: bool = False) -> Database:
    db = Database(metrics=MetricsRegistry(), tracer=tracer, profile=profile)
    db.add_document(generate_xmark(scale=2, seed=0))
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


def run_workload(
    service: QueryService, rounds: int, stats: bool = False
) -> list:
    results = []
    for _ in range(rounds):
        for query in XMARK_QUERIES.values():
            if stats:
                results.append(
                    service.query(query, stats=True)
                )
            else:
                results.append(service.query(query))
    return results


def timed_workload(
    tracer: bool, rounds: int, repeats: int, qlog_dir: str | None = None,
    qlog_off: bool = False,
) -> float:
    """Median wall time of the workload under one configuration (fresh
    database and service per repeat, so plan-cache state is identical
    across configurations).  ``qlog_dir`` runs with a file-backed query
    log (a fresh capture per repeat); ``qlog_off`` disables capture."""
    timings = []
    for number in range(repeats):
        timings.append(_one_pass(
            tracer, rounds, number, qlog_dir=qlog_dir, qlog_off=qlog_off
        ))
    timings.sort()
    return timings[len(timings) // 2]


def _one_pass(
    tracer, rounds, number, qlog_dir=None, qlog_off=False, profile=False,
    profiler_attached=False, sample_hz=None, stats=False,
) -> float:
    """One timed pass of the workload under one configuration (fresh
    database and service per pass, so plan-cache state is identical
    across configurations).  ``qlog_dir`` runs with a file-backed query
    log (a fresh capture per pass); ``qlog_off`` disables capture.
    ``profile`` turns attributed profiling on; ``profiler_attached``
    attaches a (dormant) profiler with profiling off; ``sample_hz``
    additionally runs the background stack sampler."""
    db = build_database(tracer=tracer, profile=profile)
    qlog: QueryLog | None | bool = None
    if qlog_dir is not None:
        qlog = QueryLog(os.path.join(qlog_dir, f"capture-{number}.jsonl"))
    elif qlog_off:
        qlog = False
    profiler: Profiler | None | bool = None
    if profiler_attached and not profile:
        profiler = Profiler(registry=db.metrics)
    elif not profile and sample_hz is None:
        profiler = False
    with QueryService(
        db, cache_capacity=64, max_workers=4, qlog=qlog,
        profiler=profiler, sample_hz=sample_hz,
    ) as service:
        started = time.perf_counter()
        run_workload(service, rounds, stats=stats)
        elapsed = time.perf_counter() - started
    if isinstance(qlog, QueryLog):
        qlog.close()
    return elapsed


def _gate_service(
    profile: bool = False, attached: bool = False,
    sample_hz: float | None = None,
) -> QueryService:
    db = build_database(tracer=True, profile=profile)
    profiler: Profiler | None | bool = None
    if attached and not profile:
        profiler = Profiler(registry=db.metrics)
    elif not profile and sample_hz is None:
        profiler = False
    return QueryService(
        db, cache_capacity=64, max_workers=4, profiler=profiler,
        sample_hz=sample_hz,
    )


def disabled_profiler_overhead() -> float:
    """Fractional per-query cost of an attached-but-disabled profiler.

    With profiling off, the *only* thing an attached profiler adds to
    the query path is one ``Profiler.record()`` call per query (which
    early-returns on a result without operator metrics).  A/B wall-clock
    lanes cannot resolve that cost against percent-level machine noise,
    so measure it directly: time the workload once for the mean
    per-query time, microbenchmark ``record()`` against a real
    unprofiled result, and return the ratio."""
    with _gate_service(attached=True) as service:
        results = run_workload(service, 1)  # warm
        started = time.process_time()
        results = run_workload(service, 2)
        workload_cpu = time.process_time() - started
        per_query = workload_cpu / len(results)
        calls = 2000
        sample = results[0]
        started = time.process_time()
        for _ in range(calls):
            service.profiler.record("q", sample, 0.001)
        per_call = (time.process_time() - started) / calls
    return per_call / per_query


def paired_overhead(
    config_a: dict, config_b: dict, repeats: int, stats: bool = False
) -> float:
    """B's overhead relative to A, measured tightly enough to gate at
    the tens-of-percent level on a noisy box: both services are built
    once and warmed (so plan caches and allocator state stop moving),
    each repeat times one single-round A pass and one B pass
    back-to-back on the *process* CPU clock (scheduler preemption and VM
    steal never count), alternating the order, and the median of the
    per-repeat B/A ratios is returned (adjacent passes cancel drift; the
    median kills spike-contaminated pairs)."""
    import gc

    def timed(service) -> float:
        gc.collect()
        started = time.process_time()
        run_workload(service, 1, stats=stats)
        return time.process_time() - started

    with _gate_service(**config_a) as svc_a, \
            _gate_service(**config_b) as svc_b:
        run_workload(svc_a, 1, stats=stats)
        run_workload(svc_b, 1, stats=stats)
        ratios = []
        for number in range(repeats):
            if number % 2 == 0:
                time_a = timed(svc_a)
                time_b = timed(svc_b)
            else:
                time_b = timed(svc_b)
                time_a = timed(svc_a)
            ratios.append(time_b / time_a)
        ratios.sort()
        return ratios[len(ratios) // 2] - 1.0


def profiled_artifacts(
    rounds: int, sample_hz: float, flamegraph_out: str | None,
    calibration_out: str | None,
) -> tuple[int, str]:
    """One fully-profiled pass over the workload to produce the CI
    artifacts: the sampler's collapsed stacks and the calibration report
    fitted from the attributed per-operator CPU.  Returns (number of
    profiled records, calibration verdict line)."""
    db = build_database(tracer=True, profile=True)
    records = []
    with QueryService(db, cache_capacity=64, max_workers=4,
                      sample_hz=sample_hz) as service:
        results = run_workload(service, rounds)
        for query, result in zip(
            list(XMARK_QUERIES.values()) * rounds, results
        ):
            records.append(build_record(query, result, 0.0, "ok"))
        if flamegraph_out:
            collapsed = service.profiler.sampler.collapsed()
            with open(flamegraph_out, "w", encoding="utf-8") as handle:
                handle.write(collapsed)
            print(f"--  flamegraph written to {flamegraph_out}")
    report = calibrate_records(records)
    if calibration_out:
        with open(calibration_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"--  calibration report written to {calibration_out}")
    flagged = report.flagged()
    verdict = (
        f"calibrated {len([f for f in report.fits.values() if f.points])} "
        f"operator classes over {report.profiled_records} records"
        + (f", flagged: {', '.join(flagged)}" if flagged else "")
    )
    return report.profiled_records, verdict


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok  " if condition else "FAIL") + f"  {message}")
    if not condition:
        failures.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=3, help="workload rounds per repeat"
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repeats per configuration (median is compared)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="max tracing overhead as a fraction (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--qlog-threshold", type=float, default=0.05,
        help="max query-log capture overhead as a fraction "
        "(default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--snapshot", default=None,
        help="write the scraped /metrics text here (CI uploads it)",
    )
    parser.add_argument(
        "--profile-off-threshold", type=float, default=0.02,
        help="max overhead with the profiler attached but disabled "
        "(default 0.02 = 2%%)",
    )
    parser.add_argument(
        "--profile-threshold", type=float, default=0.15,
        help="max overhead with attributed profiling + sampling on "
        "(default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--sample-hz", type=float, default=97.0,
        help="stack sampler rate for the profiled lane (default 97 Hz)",
    )
    parser.add_argument(
        "--flamegraph-out", default=None,
        help="write the profiled lane's collapsed stacks here "
        "(CI uploads it)",
    )
    parser.add_argument(
        "--calibration-out", default=None,
        help="write the calibration report JSON here (CI uploads it)",
    )
    args = parser.parse_args(argv)
    failures: list = []

    # -- the observed workload: tracing on, endpoint scraped live ----------
    db = build_database(tracer=True)
    with QueryService(db, cache_capacity=64, max_workers=4) as service:
        server = start_observability_server(service, port=0)
        try:
            results = run_workload(service, args.rounds)
            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
                content_type = r.headers.get("Content-Type", "")
                text = r.read().decode("utf-8")
            with urllib.request.urlopen(
                server.url + "/metrics.json", timeout=10
            ) as r:
                snapshot = json.loads(r.read().decode("utf-8"))
        finally:
            server.stop()

        check("version=0.0.4" in content_type, "prometheus content type", failures)
        for family in REQUIRED_FAMILIES:
            check(family in text, f"family exposed: {family}", failures)

        expected_queries = len(XMARK_QUERIES) * args.rounds
        check(
            all(result.trace_id for result in results),
            "every result carries a trace id",
            failures,
        )
        hits = service.metrics.counter_value("plan_cache.hit")
        misses = service.metrics.counter_value("plan_cache.miss")
        check(
            hits + misses == expected_queries,
            f"cache outcomes reconcile ({hits:g}+{misses:g}"
            f"=={expected_queries})",
            failures,
        )
        per_query_hits = sum(
            result.counters.get("plan_cache.hit", 0.0) for result in results
        )
        check(
            hits == per_query_hits,
            "registry hits equal per-query counter sum",
            failures,
        )
        histogram = snapshot["query.latency.seconds"]["series"]
        check(
            sum(series["count"] for series in histogram) == expected_queries,
            "latency histogram saw every query",
            failures,
        )
        if args.snapshot:
            with open(args.snapshot, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"--  snapshot written to {args.snapshot}")

    # -- overhead gate: traced vs tracing-disabled -------------------------
    traced = timed_workload(True, args.rounds, args.repeats)
    untraced = timed_workload(False, args.rounds, args.repeats)
    overhead = traced / untraced - 1.0
    check(
        overhead <= args.threshold,
        f"tracing overhead {overhead:+.2%} within {args.threshold:.0%} "
        f"(traced {traced * 1000:.1f}ms, untraced {untraced * 1000:.1f}ms)",
        failures,
    )

    # -- overhead gate: file-backed query log vs capture disabled ----------
    with tempfile.TemporaryDirectory(prefix="repro-qlog-") as qlog_dir:
        logged = timed_workload(
            True, args.rounds, args.repeats, qlog_dir=qlog_dir
        )
    unlogged = timed_workload(True, args.rounds, args.repeats, qlog_off=True)
    qlog_overhead = logged / unlogged - 1.0
    check(
        qlog_overhead <= args.qlog_threshold,
        f"query-log overhead {qlog_overhead:+.2%} within "
        f"{args.qlog_threshold:.0%} (logged {logged * 1000:.1f}ms, "
        f"unlogged {unlogged * 1000:.1f}ms)",
        failures,
    )

    # -- overhead gates: profiling disabled, then fully on -----------------
    # gate 1: a merely-attached (dormant) profiler must be free
    off_overhead = disabled_profiler_overhead()
    check(
        off_overhead <= args.profile_off_threshold,
        f"disabled-profiler overhead {off_overhead:+.2%} within "
        f"{args.profile_off_threshold:.0%}",
        failures,
    )
    # gate 2: attributed profiling + the sampler vs the instrumented
    # (physical+stats) workload profiling promotes queries to — the
    # delta is the profiler's own cost, not the instrumentation's
    profile_overhead = paired_overhead(
        {},
        {"profile": True, "sample_hz": args.sample_hz},
        max(args.repeats, 15), stats=True,
    )
    check(
        profile_overhead <= args.profile_threshold,
        f"attributed+{args.sample_hz:g}Hz profiling overhead "
        f"{profile_overhead:+.2%} within {args.profile_threshold:.0%}",
        failures,
    )

    # -- profiled-lane artifacts: flamegraph + calibration report ----------
    profiled_records, verdict = profiled_artifacts(
        args.rounds, args.sample_hz, args.flamegraph_out,
        args.calibration_out,
    )
    check(
        profiled_records > 0,
        f"profiled lane produced calibration evidence ({verdict})",
        failures,
    )

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

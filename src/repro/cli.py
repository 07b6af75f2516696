"""Command-line interface: a tiny interactive shell over the Database.

Usage::

    python -m repro.cli DOCUMENT.xml [--view name=XAM ...] [--query QUERY] [--stats]
    python -m repro.cli explain DOCUMENT.xml QUERY [--view name=XAM ...]
    python -m repro.cli serve DOCUMENT.xml [--view ...] [--queries FILE]
                        [--workers N] [--repeat K] [--timeout S] [--qlog PATH]
                        [--shards N] [--profile] [--sample-hz HZ]
    python -m repro.cli record DOCUMENT.xml QLOG [--view ...] [--queries FILE]
                        [--profile]
    python -m repro.cli replay DOCUMENT.xml QLOG [--view ...] [--json]
    python -m repro.cli optimize DOCUMENT.xml QLOG [--view ...]
                        [--audit-dir DIR] [--runs N] [--min-margin F]
    python -m repro.cli profile DOCUMENT.xml [--view ...] [--queries FILE]
                        [--repeat K] [--sample-hz HZ] [--flamegraph-out PATH]
                        [--json]
    python -m repro.cli calibrate QLOG [--json] [--ratio-limit F]

The ``explain`` form prints the full plan lifecycle of one query — the
logical plan, the chosen access paths with their rewritten plans, and the
compiled physical plan with estimated and actual per-operator
cardinalities and timings.  ``--stats`` appends the same per-operator
metrics after a ``--query`` run.

The ``serve`` form is the concurrent batch mode: it reads one query per
line (from ``--queries FILE`` or stdin), runs them through a
:class:`~repro.core.service.QueryService` worker pool with a shared plan
cache, prints the results in submission order, and ends with the cache
counters and latency percentiles.  ``--repeat K`` replays the whole batch
K times — the idiomatic way to watch the plan cache pay off.

The ``record`` form runs a workload with capture on: every execution's
plan fingerprint, result checksum and latency land in a JSONL query log.
The ``replay`` form re-runs such a capture against a freshly loaded
database and diffs fingerprints and checksums, exiting non-zero on any
divergence — the plan-regression gate CI runs on every push.  ``serve``,
``record`` and the log-capturing paths all flush and close the capture
on SIGINT/SIGTERM before exiting with code 130.

The ``profile`` form runs a workload with attributed resource profiling
on (per-operator CPU and peak traced memory at the engine's existing
observation points) plus an optional continuous stack sampler, then
prints the per-query top-CPU operators and the cost-model calibration
table.  ``--flamegraph-out`` writes the sampler's aggregate in
collapsed-stack text (flamegraph.pl / speedscope input).  The
``calibrate`` form fits per-operator-class cost coefficients from a
query log recorded with profiling on (``repro record --profile``) and
flags operator classes whose observed cost diverges more than the ratio
limit from the workload-wide trend — exit 1 when the log carries no
profiled operator rows.

The ``optimize`` form runs the offline plan tournament
(:mod:`repro.core.tournament`) over such a capture: every S-equivalent
rewriting of each distinct query is enumerated without the online
enumeration cap, checksum-validated against the recording, once plain
and once instrumented (exit 1 on any divergence — that is a rewriting
bug, not a tuning detail), benchmarked with trimmed-mean timed runs, and
winners are promoted as pinned plans (``pins.json`` in the audit
directory; ``serve --pins`` installs them).

Without ``--query``, starts a REPL with commands:

    <xquery>                 run a query (Q subset, through the plan cache)
    .view <name> <xam>       materialize and register a view
    .drop <name>             drop a view
    .views                   list catalog entries
    .explain <xquery>        full EXPLAIN: plans + est/actual cardinalities
    .stats <xquery>          run a query and print per-operator metrics
    .trace <xquery|id>       run a query and print its span tree (or look
                             up a past trace by the id a result carried)
    .metrics                 the unified metrics registry (Prometheus text)
    .slow                    the slow-query log (span trees over threshold)
    .cache                   plan-cache counters (.cache clear to reset)
    .profile [on|off]        show or toggle attributed resource profiling
    .health                  access-module circuit-breaker states
    .summary                 summary statistics
    .quit

Exit codes of the one-shot modes: 0 success, 2 parse failure, 3 typed
execution fault (storage/plan/timeout), 4 admission rejection (the query
was shed before running; retry after the hinted delay), 1 anything else.  Only the typed
:class:`~repro.errors.ReproError` hierarchy is caught and rendered —
anything else is a genuine bug and surfaces with its full traceback
instead of being swallowed.  ``serve`` also accepts ``--chaos SPECS`` /
``--chaos-seed N`` to inject storage faults (see
:mod:`repro.engine.faults`), ``--metrics-port N`` to expose ``/metrics``
(Prometheus text + JSON) and ``/trace/<id>`` over HTTP while the batch
runs, and ``--slow-query-ms T`` to capture the span tree of every query
slower than T milliseconds; it reports circuit-breaker health and
degraded-result counts at the end of the batch.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
import weakref

from .core.coordinator import resolve_shards
from .core.httpapi import start_observability_server
from .core.replay import replay_records
from .core.service import QueryService, QueryTimeout
from .core.uload import Database, resolve_profile
from .core.xam_parser import XAMParseError
from .engine.faults import FaultInjector
from .engine.qlog import QueryLog
from .errors import QueryRejected, ReproError
from .xquery.parser import XQueryParseError

__all__ = ["main", "run_command"]

#: process exit codes: parse failures and execution faults are
#: distinguishable by scripts wrapping the CLI
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_FAULT = 3
#: admission control shed the query (it never ran — retrying after the
#: hinted delay is safe); distinct from EXIT_FAULT so wrappers can back
#: off instead of alerting
EXIT_REJECTED = 4
#: 128 + SIGINT, the shell convention for "killed by ^C" — what serve and
#: record return after a graceful (log-flushing) interrupt shutdown
EXIT_INTERRUPT = 130


@contextlib.contextmanager
def _graceful_signals():
    """Route SIGINT/SIGTERM into :class:`KeyboardInterrupt` for the scope
    of a serving loop, so ``finally`` blocks run: the query log flushes,
    the metrics server unbinds, the worker pool drains.  A no-op off the
    main thread (tests drive the CLI from workers; signal handlers can
    only be installed on the main thread) and handlers are restored on
    exit either way."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _interrupt(signum, frame):
        raise KeyboardInterrupt(signal.Signals(signum).name)

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, _interrupt),
        signal.SIGTERM: signal.signal(signal.SIGTERM, _interrupt),
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

_PARSE_ERRORS = (XQueryParseError, XAMParseError)


def _describe_error(error: BaseException) -> str:
    """One-line, typed description of a failure (REPL and serve modes)."""
    if isinstance(error, _PARSE_ERRORS):
        return f"parse error: {error}"
    if isinstance(error, QueryRejected):
        hint = (
            f"; retry after ~{error.retry_after:g}s"
            if error.retry_after
            else ""
        )
        return f"rejected [{error.reason}]: {error}{hint}"
    if isinstance(error, ReproError):
        return f"error [{type(error).__name__}]: {error}"
    return f"error: {type(error).__name__}: {error}"


def _exit_code_for(error: BaseException) -> int:
    if isinstance(error, _PARSE_ERRORS):
        return EXIT_PARSE
    if isinstance(error, QueryRejected):  # before the ReproError catch-all
        return EXIT_REJECTED
    if isinstance(error, ReproError):
        return EXIT_FAULT
    return EXIT_ERROR

#: one lazily created service per shell database (keeps run_command's
#: historical ``(db, line)`` signature while routing queries through the
#: plan cache)
_SERVICES: "weakref.WeakKeyDictionary[Database, QueryService]" = (
    weakref.WeakKeyDictionary()
)

#: per-database service constructor overrides (worker count, admission
#: knobs) recorded by the shell's argument parsing before the lazily
#: created service exists
_SERVICE_SETTINGS: "weakref.WeakKeyDictionary[Database, dict]" = (
    weakref.WeakKeyDictionary()
)


def _service_for(db: Database) -> QueryService:
    service = _SERVICES.get(db)
    if service is None:
        settings = dict(_SERVICE_SETTINGS.get(db) or {})
        settings.setdefault("cache_capacity", 64)
        settings.setdefault("max_workers", 2)
        service = QueryService(db, **settings)
        _SERVICES[db] = service
    return service


def _add_admission_arguments(parser: argparse.ArgumentParser) -> None:
    """The overload-protection knob, shared by ``serve`` and the shell
    (env-var fallback: $REPRO_QUEUE_CAPACITY)."""
    parser.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="bound the admission queue at N waiting queries; beyond it "
        "queries are rejected immediately (typed QueryRejected with a "
        "retry-after hint) instead of timing out after consuming a slot; "
        "default honours $REPRO_QUEUE_CAPACITY, else max(64, 16*workers)",
    )


def _print_result(result) -> None:
    for item in result.xml:
        print(item)
    for value in result.values:
        print(value)
    if not result.xml and not result.values:
        for t in result.tuples:
            print(t)
    if result.used_views:
        print(f"-- answered via views: {', '.join(result.used_views)}")
    else:
        print("-- answered from the base store")
    if getattr(result, "degraded", False):
        for event in result.degradation_events:
            print(f"-- degraded: {event}")


def _print_metrics(result) -> None:
    for index, metrics in enumerate(result.metrics):
        if len(result.metrics) > 1:
            print(f"-- unit {index + 1} operators:")
        else:
            print("-- operators:")
        for line in metrics.pretty().splitlines():
            print(f"  {line}")


def run_command(db: Database, line: str) -> bool:
    """Execute one REPL line; returns False when the session should end."""
    service = _service_for(db)
    line = line.strip()
    if not line:
        return True
    if line in (".quit", ".exit"):
        return False
    if line == ".cache":
        print(f"  {service.cache_stats().render()}")
        return True
    if line == ".health":
        for health_line in service.health().splitlines():
            print(f"  {health_line}")
        return True
    if line == ".cache clear":
        dropped = service.invalidate()
        print(f"  dropped {dropped} cached plan(s)")
        return True
    if line == ".profile" or line.startswith(".profile "):
        argument = line[len(".profile"):].strip()
        if argument:
            try:
                db.profile = resolve_profile(argument)
            except ValueError as error:
                print(f"  {error}")
                return True
        print(f"  profile: {'on' if db.profile else 'off'}"
              + ("" if db.profile else
                 " (.profile on attributes per-operator CPU/memory)"))
        return True
    if line == ".views":
        for entry in db.catalog:
            marker = "index" if entry.is_index else entry.kind
            print(f"  [{marker}] {entry.name}: {entry.pattern.to_text()}")
        if not len(db.catalog):
            print("  (catalog empty)")
        return True
    if line == ".summary":
        print(f"  documents: {len(db.documents)}")
        print(f"  summary paths: {len(db.summary)}")
        print(f"  strong edges: {db.summary.count_strong_edges()}")
        print(f"  one-to-one edges: {db.summary.count_one_to_one_edges()}")
        return True
    if line == ".metrics":
        for metrics_line in service.metrics.render_prometheus().splitlines():
            print(f"  {metrics_line}")
        return True
    if line == ".slow":
        for slow_line in service.slow_queries.render().splitlines():
            print(f"  {slow_line}")
        return True
    if line.startswith(".trace "):
        argument = line[len(".trace "):].strip()
        trace = service.trace(argument)
        if trace is not None:  # an id from an earlier result: just look up
            for trace_line in trace.render().splitlines():
                print(f"  {trace_line}")
            return True
        try:
            result = service.query(argument)
            _print_result(result)
            trace = service.trace(result.trace_id) if result.trace_id else None
            if trace is None:
                print("  (tracing disabled on this database)")
            else:
                for trace_line in trace.render().splitlines():
                    print(f"  {trace_line}")
        except ReproError as error:
            print(f"  {_describe_error(error)}")
        return True
    if line.startswith(".view "):
        rest = line[len(".view "):].strip()
        name, _, xam = rest.partition(" ")
        if not name or not xam:
            print("usage: .view <name> <xam>")
            return True
        try:
            service.add_view(name, xam.strip())
            print(f"  view {name!r} materialized ({len(db.store[name])} tuples)")
        except ReproError as error:  # parse failure, duplicate, storage fault
            print(f"  {_describe_error(error)}")
        return True
    if line.startswith(".drop "):
        name = line[len(".drop "):].strip()
        try:
            service.drop_view(name)
            print(f"  dropped {name!r}")
        except KeyError:
            print(f"  no view named {name!r}")
        return True
    if line.startswith(".explain "):
        query = line[len(".explain "):]
        try:
            report = service.explain(query)
            for report_line in report.render().splitlines():
                print(f"  {report_line}")
        except ReproError as error:
            print(f"  {_describe_error(error)}")
        return True
    if line.startswith(".stats "):
        query = line[len(".stats "):]
        try:
            result = service.query(query, stats=True)
            _print_result(result)
            _print_metrics(result)
        except ReproError as error:
            print(f"  {_describe_error(error)}")
        return True
    try:
        _print_result(service.query(line))
    except ReproError as error:
        print(f"  {_describe_error(error)}")
    return True


def _load_database(
    document: str,
    view_specs: list[str],
    announce: bool = True,
    profile: bool | None = None,
) -> Database:
    with open(document, encoding="utf-8") as handle:
        db = Database.from_xml(handle.read(), document)
    db.profile = resolve_profile(profile)
    if announce:
        print(f"loaded {document}: {db.documents[0].count()} nodes, "
              f"{len(db.summary)} summary paths")
    for spec in view_specs:
        name, _, xam = spec.partition("=")
        db.add_view(name.strip(), xam.strip())
        if announce:
            print(f"view {name.strip()!r} installed")
    return db


def _add_shards_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="cluster mode: partition the documents across N store "
        "partitions behind a scatter-gather coordinator that runs them "
        "in sequence on the query's thread (answers stay "
        "bit-identical to the single store — same plan fingerprints, "
        "same result checksums); default honours $REPRO_SHARDS, else 1",
    )


def _shard_database(
    db: Database, shards: int | None, announce: bool = True
) -> Database:
    """Re-house a loaded database behind a scatter-gather coordinator
    when a shard count > 1 is requested (``--shards`` / $REPRO_SHARDS)."""
    count = resolve_shards(shards)
    if count <= 1:
        return db
    sharded = db.shard(count)
    if announce:
        print(f"-- shards: {count} ({sharded.partitioner!r}, "
              "scatter-gather coordinator)")
    return sharded


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """Resource-profiling knobs shared by ``serve`` and ``profile``."""
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute per-operator CPU and peak traced memory at the "
        "engine's observation points (flows into results, EXPLAIN, the "
        "query log and /profile); default honours $REPRO_PROFILE, else off",
    )
    parser.add_argument(
        "--sample-hz", type=float, default=None, metavar="HZ",
        help="run the continuous stack sampler at HZ samples/second and "
        "serve the aggregate at /flamegraph (collapsed-stack text)",
    )


def _explain_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="show the full plan lifecycle of one query",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument("query", help="query to explain")
    parser.add_argument(
        "--view",
        action="append",
        default=[],
        metavar="NAME=XAM",
        help="materialize a view before explaining (repeatable)",
    )
    args = parser.parse_args(argv)
    db = _load_database(args.document, args.view, announce=False)
    try:
        print(db.explain(args.query).render())
    except ReproError as error:
        print(_describe_error(error), file=sys.stderr)
        return _exit_code_for(error)
    return EXIT_OK


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="concurrent batch mode: run many queries through a "
        "worker pool sharing one plan cache",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument(
        "--view",
        action="append",
        default=[],
        metavar="NAME=XAM",
        help="materialize a view before serving (repeatable)",
    )
    parser.add_argument(
        "--queries",
        metavar="FILE",
        help="file with one query per line ('#' comments allowed); "
        "default: read from stdin",
    )
    parser.add_argument("--workers", type=int, default=4, help="worker threads")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="replay the whole batch K times (exercises the plan cache)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-query timeout (seconds)"
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=128, help="plan cache entries"
    )
    parser.add_argument(
        "--chaos",
        metavar="SPECS",
        help="inject storage faults while serving, e.g. "
        "'relation.scan@v_person:transient:0.2' "
        "(see repro.engine.faults for the grammar)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the fault injector's RNG (default 0)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics, /metrics.json, /health, /traces, "
        "/trace/<id> and /slow over HTTP while serving (0 = ephemeral)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="T",
        help="capture the full span tree of queries slower than T ms",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable span tracing (for overhead comparisons)",
    )
    parser.add_argument(
        "--qlog",
        metavar="PATH",
        default=None,
        help="capture every executed query to a JSONL workload log "
        "(replayable with 'repro replay'); default honours $REPRO_QLOG",
    )
    parser.add_argument(
        "--pins",
        metavar="PATH",
        default=None,
        help="install tournament-promoted pinned plans from a pins.json "
        "written by 'repro optimize' before serving",
    )
    _add_profile_arguments(parser)
    _add_shards_argument(parser)
    _add_admission_arguments(parser)
    args = parser.parse_args(argv)

    queries = _read_queries(args.queries)
    if not queries:
        print("no queries to run", file=sys.stderr)
        return 1

    db = _load_database(
        args.document, args.view, announce=False,
        profile=True if args.profile else None,
    )
    if args.no_trace:
        db.tracer = None
    if args.chaos:
        db.fault_injector = FaultInjector(args.chaos, seed=args.chaos_seed)
        print(f"-- chaos: {db.fault_injector.render()} (seed {args.chaos_seed})")
    db = _shard_database(db, args.shards)
    slow_threshold = (
        args.slow_query_ms / 1000.0 if args.slow_query_ms is not None else None
    )
    qlog = QueryLog(args.qlog) if args.qlog else None
    interrupted = False
    failed = 0
    with QueryService(
        db,
        cache_capacity=args.cache_capacity,
        max_workers=args.workers,
        default_timeout=args.timeout,
        slow_query_threshold=slow_threshold,
        qlog=qlog,  # None → the service honours $REPRO_QLOG itself
        sample_hz=args.sample_hz,
        queue_capacity=args.queue_capacity,
    ) as service:
        observer = None
        if args.metrics_port is not None:
            observer = start_observability_server(service, port=args.metrics_port)
            print(f"-- metrics: {observer.url}/metrics")
        if service.profiler is not None:
            modes = []
            if db.profile:
                modes.append("attributed")
            if args.sample_hz:
                modes.append(f"sampling @ {args.sample_hz:g} Hz")
            print(f"-- profiler: {', '.join(modes) or 'ring only'}"
                  + (f" ({observer.url}/profile)" if observer else ""))
        if qlog is not None:
            print(f"-- query log: {qlog.path}")
        if args.pins:
            installed = service.load_pins(args.pins)
            print(f"-- pinned plans: {installed} installed from {args.pins}")
        try:
            with _graceful_signals():
                session = service.session("serve")
                degraded = 0
                for round_number in range(args.repeat):
                    for query, outcome in zip(
                        queries, _run_batch_settled(service, session, queries)
                    ):
                        print(f"== {query}")
                        if isinstance(outcome, Exception):
                            failed += 1
                            print(f"  {_describe_error(outcome)}")
                        else:
                            degraded += 1 if outcome.degraded else 0
                            _print_result(outcome)
                print(f"-- plan cache: {service.cache_stats().render()}")
                print(f"-- latency: {session.latency.render()}")
                if service.admission.shed:
                    print(f"-- admission: {service.admission.render()}")
                if degraded:
                    print(f"-- degraded results: {degraded}")
                if args.chaos or degraded:
                    for health_line in service.health().splitlines():
                        print(f"-- health: {health_line}")
                if service.slow_queries.captured:
                    for slow_line in service.slow_queries.render().splitlines():
                        print(f"-- slow: {slow_line}")
                if service.sentinel.plan_flips or service.sentinel.misestimates:
                    for sentinel_line in service.sentinel.render().splitlines():
                        print(f"-- sentinel: {sentinel_line}")
        except KeyboardInterrupt:
            # graceful interrupt: fall through to the cleanup below, so
            # the capture's tail reaches disk and the port unbinds.
            # cancel_all stops running queries at their next unit
            # boundary — a saturated queue must not delay the exit
            interrupted = True
            service.cancel_all()
            print("-- interrupted; flushing query log", file=sys.stderr)
        finally:
            if observer is not None:
                observer.stop()
            if qlog is not None:
                qlog.close()
                print(f"-- query log: {qlog.written} record(s) -> {qlog.path}")
    if interrupted:
        return EXIT_INTERRUPT
    return EXIT_ERROR if failed else EXIT_OK


def _read_queries(path: str | None) -> list[str]:
    """One query per line from a file (or stdin), '#' comments skipped."""
    if path:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    return [
        line.strip() for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _record_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro record",
        description="run a workload with capture on: every query's plan "
        "fingerprint, result checksum and latency land in a JSONL log "
        "that 'repro replay' can re-run and diff",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument("qlog", metavar="QLOG", help="JSONL capture to write")
    parser.add_argument(
        "--view", action="append", default=[], metavar="NAME=XAM",
        help="materialize a view before recording (repeatable)",
    )
    parser.add_argument(
        "--queries", metavar="FILE",
        help="file with one query per line; default: read from stdin",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run the workload K times (stresses fingerprint stability)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="execute with per-operator metrics (recorded per query)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="execute with attributed resource profiling: the captured "
        "operator rows carry cpu_ms/peak_mem_kb, making the log a "
        "'repro calibrate' input; default honours $REPRO_PROFILE",
    )
    args = parser.parse_args(argv)

    queries = _read_queries(args.queries)
    if not queries:
        print("no queries to record", file=sys.stderr)
        return EXIT_ERROR
    db = _load_database(
        args.document, args.view, announce=False,
        profile=True if args.profile else None,
    )
    qlog = QueryLog(args.qlog)
    failed = 0
    interrupted = False
    with QueryService(db, qlog=qlog) as service:
        try:
            with _graceful_signals():
                for _ in range(args.repeat):
                    for query in queries:
                        try:
                            # capture runs are background-class work:
                            # under degradation they are shed before any
                            # interactive query is
                            service.query(
                                query, stats=args.stats, priority="background"
                            )
                        except ReproError as error:
                            failed += 1
                            print(
                                f"-- {query}: {_describe_error(error)}",
                                file=sys.stderr,
                            )
        except KeyboardInterrupt:
            interrupted = True
            print("-- interrupted; flushing query log", file=sys.stderr)
        finally:
            qlog.close()
    print(f"recorded {qlog.written} record(s) -> {args.qlog}"
          + (f" ({failed} failed)" if failed else ""))
    if interrupted:
        return EXIT_INTERRUPT
    return EXIT_ERROR if failed else EXIT_OK


def _replay_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="re-run a captured workload and diff plan fingerprints "
        "and result checksums against the recording; exits non-zero on "
        "any divergence",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument(
        "qlog", metavar="QLOG", help="JSONL capture written by 'repro record'"
    )
    parser.add_argument(
        "--view", action="append", default=[], metavar="NAME=XAM",
        help="materialize a view before replaying (repeatable; must match "
        "the recording environment for a clean diff)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    _add_shards_argument(parser)
    args = parser.parse_args(argv)

    records = QueryLog.read_all(args.qlog)
    db = _load_database(args.document, args.view, announce=False)
    db = _shard_database(db, args.shards, announce=not args.json)
    report = replay_records(db, records)
    if args.json:
        import json as _json

        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_ERROR


def _optimize_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro optimize",
        description="plan tournament over a recorded workload: enumerate "
        "every S-equivalent rewriting of each distinct query, validate "
        "each candidate's result checksum against the recording, plain "
        "and instrumented (any divergence is a rewriting bug and "
        "fails the run), benchmark the survivors, and promote winners as "
        "pinned plans with a full per-query audit trail",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument(
        "qlog", metavar="QLOG", help="JSONL capture written by 'repro record'"
    )
    parser.add_argument(
        "--view", action="append", default=[], metavar="NAME=XAM",
        help="materialize a view before optimizing (repeatable; must match "
        "the recording environment for clean validation)",
    )
    parser.add_argument(
        "--audit-dir", metavar="DIR", default=None,
        help="write the per-query audit trail (candidates, verdicts, "
        "timings, winner, pins.json) under this directory",
    )
    parser.add_argument(
        "--runs", type=int, default=5,
        help="timed benchmark laps per validated candidate (default 5; "
        "the score is the trimmed mean)",
    )
    parser.add_argument(
        "--min-margin", type=float, default=0.05,
        help="fractional latency improvement over the cost model's pick "
        "required to promote a pin (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--max-candidates", type=int, default=32,
        help="cap on whole-query candidate combinations (default 32; "
        "the default pick is always included)",
    )
    parser.add_argument(
        "--no-pin", action="store_true",
        help="validation-only mode: run the tournament but promote nothing",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    from .core.replay import load_records
    from .core.tournament import run_tournament

    records = load_records(args.qlog)
    db = _load_database(args.document, args.view, announce=False)
    report = run_tournament(
        db,
        records,
        runs=args.runs,
        min_margin=args.min_margin,
        max_candidates=args.max_candidates,
        audit_dir=args.audit_dir,
        pin=not args.no_pin,
    )
    if args.json:
        import json as _json

        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
        if args.audit_dir:
            print(f"-- audit trail: {args.audit_dir}")
        if report.promotions and not args.no_pin and args.audit_dir:
            print(f"-- pins: {args.audit_dir}/pins.json "
                  f"(serve with --pins to apply)")
    return EXIT_OK if report.ok else EXIT_ERROR


def _profile_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="run a workload with attributed resource profiling "
        "(per-operator CPU + peak traced memory) and an optional "
        "continuous stack sampler; prints the per-query top-CPU "
        "operators and the cost-model calibration table",
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument(
        "--view", action="append", default=[], metavar="NAME=XAM",
        help="materialize a view before profiling (repeatable)",
    )
    parser.add_argument(
        "--queries", metavar="FILE",
        help="file with one query per line; default: read from stdin",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run the workload K times (more samples per operator)",
    )
    parser.add_argument(
        "--sample-hz", type=float, default=None, metavar="HZ",
        help="also run the continuous stack sampler at HZ samples/second",
    )
    parser.add_argument(
        "--flamegraph-out", metavar="PATH", default=None,
        help="write the sampler's aggregate as collapsed-stack text "
        "(requires --sample-hz; flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--top", type=int, default=3,
        help="top-CPU operators shown per query (default 3)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    if args.flamegraph_out and not args.sample_hz:
        parser.error("--flamegraph-out requires --sample-hz")

    from .engine.calibrate import calibrate_records
    from .engine.qlog import build_record

    queries = _read_queries(args.queries)
    if not queries:
        print("no queries to profile", file=sys.stderr)
        return EXIT_ERROR
    db = _load_database(args.document, args.view, announce=False, profile=True)
    # an explicit deep-dive: take the tracemalloc hit on every query so
    # the memory column is never a stale sample
    db.profile_memory_stride = 1
    failed = 0
    records: list[dict] = []
    with QueryService(db, sample_hz=args.sample_hz) as service:
        for _ in range(args.repeat):
            for query in queries:
                try:
                    result = service.query(query)
                except ReproError as error:
                    failed += 1
                    print(f"-- {query}: {_describe_error(error)}",
                          file=sys.stderr)
                    continue
                records.append(build_record(query, result, 0.0, "ok"))
        profiles = service.profiler.profiles()
        sampler = service.profiler.sampler
        if args.flamegraph_out and sampler is not None:
            with open(args.flamegraph_out, "w", encoding="utf-8") as handle:
                handle.write(sampler.collapsed() + "\n")
    calibration = calibrate_records(records)
    if args.json:
        import json as _json

        print(_json.dumps(
            {
                "profiles": [p.as_dict() for p in profiles],
                "calibration": calibration.as_dict(),
            },
            indent=2,
        ))
    else:
        for profile in profiles:
            print(f"== {profile.query}")
            print(f"  wall={profile.seconds * 1000:.2f}ms "
                  f"cpu={profile.cpu_ms:.2f}ms")
            for op in profile.top_cpu(args.top):
                print(f"  cpu {op['self_cpu_ms']:>9.3f}ms  {op['label']} "
                      f"(rows={op['actual']}, mem={op['peak_mem_kb']}KB)")
        print("--")
        print(calibration.render())
        if args.flamegraph_out:
            print(f"-- flamegraph: {args.flamegraph_out}")
    return EXIT_ERROR if failed else EXIT_OK


def _calibrate_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro calibrate",
        description="fit per-operator-class cost coefficients from a "
        "query log recorded with attributed profiling on "
        "('repro record --profile'); flags classes whose observed "
        "cpu-per-cost-unit diverges from the workload-wide trend",
    )
    parser.add_argument(
        "qlog", metavar="QLOG",
        help="JSONL capture written by 'repro record --profile'",
    )
    parser.add_argument(
        "--ratio-limit", type=float, default=3.0, metavar="F",
        help="flag classes whose coefficient is more than F× away from "
        "the workload-wide one (default 3.0)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    from .core.replay import load_records
    from .engine.calibrate import calibrate_records

    records = load_records(args.qlog)
    report = calibrate_records(records, ratio_limit=args.ratio_limit)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return EXIT_ERROR if report.empty else EXIT_OK


def _run_batch_settled(service: QueryService, session, queries: list[str]) -> list:
    """Submit a whole batch, then settle every future: results in
    submission order, exceptions captured per query instead of aborting
    the batch."""
    futures: list = []
    for q in queries:
        try:
            futures.append(
                service.submit(
                    q, session=session, timeout=service.default_timeout
                )
            )
        except QueryRejected as rejection:
            # admission shed it synchronously: a settled outcome for this
            # query, not a reason to abort the rest of the batch
            futures.append(rejection)
    outcomes: list = []
    for query, future in zip(queries, futures):
        if isinstance(future, QueryRejected):
            outcomes.append(future)
            continue
        try:
            outcomes.append(future.result(service.default_timeout))
        except TimeoutError:
            future.cancel()
            if hasattr(future, "cancel_query"):
                future.cancel_query()
            outcomes.append(QueryTimeout(f"timed out: {query!r}"))
        except ReproError as error:  # typed parse/storage/plan failure
            outcomes.append(error)
        # anything untyped is a bug in the engine, not a settled outcome:
        # let it propagate so it fails loudly instead of being masked
    return outcomes


def main(argv: list[str] | None = None) -> int:
    """Entry point of the shell (``python -m repro.cli doc.xml``), the
    ``explain`` one-shot (``python -m repro.cli explain doc.xml Q``), and
    the ``serve`` batch mode (``python -m repro.cli serve doc.xml …``)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return _explain_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "record":
        return _record_main(argv[1:])
    if argv and argv[0] == "replay":
        return _replay_main(argv[1:])
    if argv and argv[0] == "optimize":
        return _optimize_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "calibrate":
        return _calibrate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="XAM-based XML database shell"
    )
    parser.add_argument("document", help="XML document to load")
    parser.add_argument(
        "--view",
        action="append",
        default=[],
        metavar="NAME=XAM",
        help="materialize a view before querying (repeatable)",
    )
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument(
        "--stats",
        action="store_true",
        help="with --query: print per-operator metrics after the result",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker threads of the shell's query service (default 2)",
    )
    _add_admission_arguments(parser)
    args = parser.parse_args(argv)

    db = _load_database(args.document, args.view)
    # the shell's QueryService is created lazily by run_command; record
    # its constructor knobs now so the first query picks them up
    _SERVICE_SETTINGS[db] = {
        "max_workers": args.workers,
        "queue_capacity": args.queue_capacity,
    }

    if args.query:
        try:
            result = db.query(args.query, stats=args.stats)
        except ReproError as error:
            print(_describe_error(error), file=sys.stderr)
            return _exit_code_for(error)
        _print_result(result)
        if args.stats:
            _print_metrics(result)
        return EXIT_OK

    print("repro shell — .quit to exit, .views/.view/.drop/.explain/.stats/"
          ".trace/.metrics/.slow/.cache/.profile/.health/.summary")
    while True:
        try:
            line = input("xam> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not run_command(db, line):
            return 0


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())

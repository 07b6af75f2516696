#!/usr/bin/env python
"""Sharded differential smoke: one workload, N store layouts, zero diffs.

The sharded CI lane runs this script to prove physical data independence
across document partitionings (the coordinator of
``repro.core.coordinator``):

* ``--mode replay`` (default) — record the XMark battery against a
  single-store database, then replay the capture against an
  ``--shards``-way :class:`~repro.core.coordinator.ShardedDatabase` over
  the same corpus.  Any plan-fingerprint or result-checksum diff fails
  the job: a recorded workload must not be able to tell the layouts
  apart.  The lane also asserts that the capture holds view-answered
  executions — a workload answered on the base store alone would pass
  the diff check without exercising a single access module;

* ``--mode chaos`` — inject ``relation.scan@v_person:corrupt`` into a
  single store and into the ``--shards``-way coordinator, run the same
  queries on both, and demand fault parity: equal answers, equal
  ``QueryResult.degraded`` flags and equal degradation events (trace
  ids stripped).  The scenario is checked for non-vacuity: the single
  store must have re-routed through the S-equivalent ``v_person_twin``
  and still served the healthy answer.

Usage::

    PYTHONPATH=src python benchmarks/sharded_replay_smoke.py --shards 4
    PYTHONPATH=src python benchmarks/sharded_replay_smoke.py --shards 4 --mode chaos

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from repro import Database, QueryService
from repro.core.coordinator import ShardedDatabase
from repro.core.replay import replay_records
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog
from repro.workloads import XMARK_QUERIES, generate_xmark

VIEWS = [
    ("v_person", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_person_twin", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_item", "//regions//item[id:s]{/name[id:s, val]}"),
]

#: view-answered with non-empty output on this corpus — the query the
#: chaos scenario degrades and the replay capture answers through views
VIEW_QUERY = "for $p in //people/person return <r>{ $p/name/text() }</r>"

#: the chaos scenario's storage fault: every read of ``v_person`` fails
FAULT = "relation.scan@v_person:corrupt"


def build_corpus() -> list:
    return [
        generate_xmark(scale=1, seed=seed, name=f"xmark{seed}.xml")
        for seed in range(3)
    ]


def build_database(shards: int = 0) -> Database:
    if shards > 1:
        db: Database = ShardedDatabase(shards, metrics=MetricsRegistry())
    else:
        db = Database(metrics=MetricsRegistry())
    db.add_documents(build_corpus())
    for name, pattern in VIEWS:
        db.add_view(name, pattern)
    return db


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok  " if condition else "FAIL") + f"  {message}")
    if not condition:
        failures.append(message)


def run_replay(shards: int, qlog_path: str, failures: list) -> None:
    for stale in (qlog_path, *(f"{qlog_path}.{n}" for n in range(1, 4))):
        if os.path.exists(stale):
            os.remove(stale)
    qlog = QueryLog(qlog_path)
    with QueryService(build_database(), cache_capacity=64, qlog=qlog) as svc:
        for query in (*XMARK_QUERIES.values(), VIEW_QUERY):
            svc.query(query)
    qlog.close()
    records = QueryLog.read_all(qlog_path)
    expected = len(XMARK_QUERIES) + 1
    check(
        len(records) == expected,
        f"capture holds the whole workload ({len(records)}/{expected})",
        failures,
    )
    answered = sum(
        1
        for record in records
        if any(pattern["views"] for pattern in record.get("patterns", ()))
    )
    check(
        answered > 0,
        f"non-vacuity: {answered} recorded execution(s) answered through views",
        failures,
    )

    sharded = build_database(shards)
    report = replay_records(sharded, records)
    print(f"--  {report.render()}")
    check(
        report.replayed == expected and report.skipped == 0,
        "every recorded execution was replayed against the sharded layout",
        failures,
    )
    check(
        report.ok and report.matches == expected,
        f"zero diffs across layouts: single-store capture vs {shards} "
        f"shard(s) ({len(report.diffs)} diff(s))",
        failures,
    )
    sharded.close()


def outcome(result) -> tuple:
    """Answer, ``degraded`` flag and degradation events, trace ids
    stripped."""
    events = [
        re.sub(r" \[trace [^\]]*\]$", "", event)
        for event in result.degradation_events
    ]
    return (result.xml, result.values, result.tuples), result.degraded, events


def run_chaos(shards: int, failures: list) -> None:
    healthy = build_database().query(VIEW_QUERY)
    single, sharded = build_database(), build_database(shards)
    for db in (single, sharded):
        db.fault_injector = FaultInjector(FAULT)

    first = single.query(VIEW_QUERY)
    answer, degraded, events = outcome(first)
    check(
        degraded and any("v_person_twin" in event for event in events),
        f"non-vacuity: the single store re-routed through v_person_twin "
        f"({len(events)} event(s))",
        failures,
    )
    check(
        answer == outcome(healthy)[0] and len(first.xml) > 0,
        f"the re-routed answer is the healthy one ({len(first.xml)} row(s))",
        failures,
    )
    check(
        outcome(sharded.query(VIEW_QUERY)) == outcome(first),
        f"{shards} shard(s) degrade like the single store on the view query",
        failures,
    )
    diverged = [
        qid
        for qid, query in XMARK_QUERIES.items()
        if outcome(single.query(query)) != outcome(sharded.query(query))
    ]
    check(
        not diverged,
        f"fault parity over the XMark battery ({len(diverged)} diverged: "
        f"{', '.join(diverged)})",
        failures,
    )
    check(
        sharded.breakers.states() == single.breakers.states(),
        f"same breaker states ({sharded.breakers.states()})",
        failures,
    )
    sharded.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the re-housed layout (default 4)",
    )
    parser.add_argument(
        "--mode", choices=("replay", "chaos"), default="replay",
        help="replay = cross-layout differential; chaos = fault parity",
    )
    parser.add_argument(
        "--qlog", default="sharded_workload.jsonl",
        help="capture path for replay mode (kept afterwards; CI uploads it)",
    )
    args = parser.parse_args(argv)
    failures: list = []

    if args.mode == "replay":
        run_replay(args.shards, args.qlog, failures)
    else:
        run_chaos(args.shards, failures)

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nall sharded {args.mode} checks passed ({args.shards} shard(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Sharded differential smoke: one workload, N store layouts, zero diffs.

The sharded CI lane runs this script to prove physical data independence
across document partitionings (the scatter-gather coordinator of
``repro.core.coordinator``):

* ``--mode replay`` (default) — record the XMark battery against a
  single-store database, then replay the capture against an
  ``--shards``-way :class:`~repro.core.coordinator.ShardedDatabase` over
  the same corpus.  Any plan-fingerprint or result-checksum diff fails
  the job: a recorded workload must not be able to tell the layouts
  apart.  The lane also asserts the run genuinely scattered
  (``shard.fanout`` > 0) — a coordinator that silently fell back to its
  full store for every pattern would pass the diff check vacuously;

* ``--mode chaos`` — force one shard's access-module breakers open and
  assert the degradation protocol: the coordinator must keep answering
  with the surviving shards' rows, mark the result
  ``QueryResult.degraded``, and log a per-shard degradation event.  The
  scenario is checked for non-vacuity first (same query, no forcing →
  full undegraded rows), and closes by opening *every* shard's breakers
  and demanding the query then fails outright.

Usage::

    PYTHONPATH=src python benchmarks/sharded_replay_smoke.py --shards 4
    PYTHONPATH=src python benchmarks/sharded_replay_smoke.py --shards 4 --mode chaos

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import Database, QueryService
from repro.core.coordinator import ShardedDatabase
from repro.core.replay import replay_records
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog
from repro.errors import AccessModuleUnavailable
from repro.workloads import XMARK_QUERIES, generate_xmark

VIEWS = [
    ("v_person", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_person_twin", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_item", "//regions//item[id:s]{/name[id:s, val]}"),
]

#: view-answered with non-empty output on this corpus — the query the
#: chaos scenario degrades and the replay capture uses to prove genuine
#: view-path scatter
VIEW_QUERY = "for $p in //people/person return <r>{ $p/name/text() }</r>"


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


def counter_total(db: Database, family: str) -> float:
    series = db.metrics.snapshot().get(family, {}).get("series", [])
    return sum(entry.get("value", 0.0) for entry in series)


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
    fanout = counter_total(sharded, "shard.fanout")
    check(
        fanout > 0,
        f"the replay genuinely scattered (shard.fanout={fanout:g})",
        failures,
    )
    sharded.close()


def run_chaos(shards: int, failures: list) -> None:
    sharded = build_database(shards)
    views = [name for name, _pattern in VIEWS]

    baseline = sharded.query(VIEW_QUERY)
    check(
        not baseline.degraded and len(baseline.xml) > 0,
        f"non-vacuity: undegraded full answer first ({len(baseline.xml)} "
        "row(s))",
        failures,
    )
    check(
        baseline.counters.get("shard.fanout", 0) > 0,
        "non-vacuity: the chaos query takes the gather path",
        failures,
    )

    # pick a shard that actually holds documents, then open its breakers
    victim = next(
        index for index, shard in enumerate(sharded.shards) if shard.partition
    )
    for name in views:
        sharded.shards[victim].breakers.force_open(name)
    degraded = sharded.query(VIEW_QUERY)
    check(degraded.degraded, "result is marked degraded", failures)
    check(
        0 < len(degraded.xml) < len(baseline.xml),
        f"partial results: {len(degraded.xml)} of {len(baseline.xml)} row(s)",
        failures,
    )
    check(
        degraded.counters.get("shard.degraded", 0) >= 1,
        "shard.degraded counter recorded the drop",
        failures,
    )
    check(
        any(f"shard {victim}" in event for event in degraded.degradation_events),
        f"degradation event names shard {victim}",
        failures,
    )

    for shard in sharded.shards:
        for name in views:
            shard.breakers.force_open(name)
    try:
        sharded.query(VIEW_QUERY)
        check(False, "all shards open -> the query must fail", failures)
    except AccessModuleUnavailable as error:
        check(True, f"all shards open -> query fails ({error})", failures)
    sharded.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the re-housed layout (default 4)",
    )
    parser.add_argument(
        "--mode", choices=("replay", "chaos"), default="replay",
        help="replay = cross-layout differential; chaos = degraded partials",
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

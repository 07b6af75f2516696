#!/usr/bin/env python
"""Replay-regression smoke: record an XMark workload, replay it, diff.

The CI replay lane runs this script on every push to prove the capture →
replay loop is deterministic end to end:

1. **record** — the XMark query battery runs through a
   :class:`~repro.core.service.QueryService` with a file-backed query
   log, twice over, so the capture holds both cache-miss and cache-hit
   executions of every plan.  Each query is recorded under the default
   flags (the bare compiled batch plan) *and* with ``stats=True`` (the
   same plan run instrumented), and every record of a query must carry
   the same result checksum — the lane is *cross-mode*.  Between the
   passes, views come and go through the service: ``v_tmp``, which no
   battery query can use, and a twin of ``v_item``, which some can.  The
   catalog ends as it began, so the cached plans must be revalidated
   (``plan_cache.revalidated`` > 0 — the step cannot pass vacuously)
   and replay exactly as a fresh preparation would;
2. **replay** — a *fresh* database (same document generator, same seed,
   same views) re-runs the capture, each record under its recorded
   flags; any plan-fingerprint or result-checksum diff fails the job.
   Against unchanged state the diff count must be exactly zero — a
   non-zero diff means preparation or execution stopped being
   deterministic, which is precisely the regression this lane exists to
   catch;
3. **sentinel cross-check** — the run must have produced no plan flips
   (stable state ⇒ silent sentinel), and a deliberately poisoned
   statistics entry must produce both a sentinel flip and a replay diff
   (the detector must not pass vacuously).

The capture is left at ``--qlog`` (default ``replay_workload.jsonl``)
for CI to upload as a debuggable artifact.

Usage::

    PYTHONPATH=src python benchmarks/replay_smoke.py --qlog workload.jsonl

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import Database, QueryService
from repro.core.replay import replay_records
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog
from repro.workloads import XMARK_QUERIES, generate_xmark


#: the execution modes every query is recorded under: the bare compiled
#: plan (default flags) and the same plan run instrumented
MODES = ({}, {"stats": True})

#: views added and dropped between the record passes: one no battery query
#: can use, and one S-equivalent to ``v_item`` that several can
MUTATIONS = (
    ("v_tmp", "//location[id:s, val]"),
    ("v_item_twin", "//regions//item[id:s]{/name[id:s, val]}"),
)


def build_database() -> Database:
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=2, seed=0))
    # v_person and v_person_twin are S-equivalent: ranking races them on
    # statistics alone, so one poisoned entry is enough to flip the plan.
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_person_twin", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


def chosen_person_view(records) -> "tuple[str, str]":
    """The person view the recorded plans actually picked, plus a query
    that picked it (deterministic tie-break — but read both from the
    capture rather than assuming)."""
    for record in records:
        for pattern in record.get("patterns", ()):
            for view in pattern.get("views", ()):
                if view.startswith("v_person"):
                    return view, record["query"]
    raise SystemExit("capture never used a person view; workload drifted")


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok  " if condition else "FAIL") + f"  {message}")
    if not condition:
        failures.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--qlog", default="replay_workload.jsonl",
        help="capture path (kept afterwards; CI uploads it)",
    )
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="workload rounds to record (>=2 exercises the plan cache)",
    )
    args = parser.parse_args(argv)
    failures: list = []

    # -- record ------------------------------------------------------------
    for stale in (args.qlog, *(f"{args.qlog}.{n}" for n in range(1, 4))):
        if os.path.exists(stale):
            os.remove(stale)
    qlog = QueryLog(args.qlog)
    record_db = build_database()
    with QueryService(record_db, cache_capacity=64, qlog=qlog) as service:
        for round_number in range(args.rounds):
            if round_number:
                for name, text in MUTATIONS:
                    service.add_view(name, text)
                    service.drop_view(name)
            for query in XMARK_QUERIES.values():
                for flags in MODES:
                    service.query(query, **flags)
        check(
            service.sentinel.plan_flips == 0,
            "no plan flips while recording against stable state",
            failures,
        )
        revalidated = service.cache_stats().revalidated
        check(
            args.rounds < 2 or revalidated > 0,
            f"cached plans outlived the view mutations ({revalidated} "
            "revalidated)",
            failures,
        )
    qlog.close()
    expected = len(XMARK_QUERIES) * len(MODES) * args.rounds
    check(
        qlog.written == expected,
        f"capture holds the whole workload ({qlog.written}/{expected})",
        failures,
    )

    # -- cross-mode: plain and instrumented records agree -------------------
    records = QueryLog.read_all(args.qlog)
    checksums: dict = {}
    for record in records:
        checksums.setdefault(record["query"], set()).add(record["checksum"])
    split = sorted(query for query, seen in checksums.items() if len(seen) > 1)
    check(
        len(checksums) == len(XMARK_QUERIES) and not split,
        "plain and instrumented records of every query share one checksum "
        f"({len(split)} query(ies) split)",
        failures,
    )

    # -- replay against a fresh, identical database -------------------------
    report = replay_records(build_database(), records)
    print(f"--  {report.render()}")
    check(
        report.replayed == expected and report.skipped == 0,
        "every recorded execution was replayed",
        failures,
    )
    check(
        report.ok and report.matches == expected,
        "zero diffs on unchanged state, both modes replayed "
        f"({len(report.diffs)} diff(s))",
        failures,
    )

    # -- the detector must not pass vacuously ------------------------------
    winner, person = chosen_person_view(records)
    poisoned = build_database()
    poisoned.override_statistic(winner, 1e9)
    drifted = replay_records(poisoned, records)
    flagged = {diff.kind for diff in drifted.diffs}
    check(
        "fingerprint" in flagged,
        f"poisoned {winner} statistics surface as replay diffs "
        f"({sorted(flagged)})",
        failures,
    )
    fresh = build_database()
    with QueryService(fresh, cache_capacity=64, qlog=False) as sentinel_svc:
        sentinel_svc.query(person)
        fresh.override_statistic(winner, 1e9)
        sentinel_svc.query(person)
        check(
            sentinel_svc.sentinel.plan_flips >= 1,
            f"sentinel flags the flip when {winner}'s entry is poisoned",
            failures,
        )

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall replay checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

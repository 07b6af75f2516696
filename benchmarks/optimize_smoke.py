#!/usr/bin/env python
"""Optimize-lane smoke: record a workload, run the plan tournament, pin.

The CI optimize lane runs this script on every push to prove the
``repro optimize`` loop — enumerate → validate → benchmark → promote —
works end to end and never trades correctness for speed:

1. **record** — an XMark workload (the item-description query plus an
   unrelated person query) runs through a
   :class:`~repro.core.service.QueryService` against *honest*
   statistics; the capture's checksums and plan fingerprints are the
   tournament's ground truth;
2. **misrank** — a fresh, identical database gets one poisoned
   statistics entry (``v_item`` → 1e9) so the cost model's default pick
   for the description pattern flips to the genuinely slower
   ``v_item_ids`` ⨝ ``v_item_descriptions`` join.  This makes the lane
   non-vacuous: there is a real misranking for the tournament to find;
3. **tournament** — the full enumeration must hold every query's served
   plan (which the planner found by its cheapest-first search) and keep
   its candidate total; every candidate of every query must reproduce the
   recorded checksum under the recorded flags *and* as a compiled
   physical plan (zero divergences), and the tournament must promote at
   least one pinned plan with a measured margin — the single-view
   description plan rediscovered despite the poisoned ranking.  The
   query returns whole ``description`` elements, which the views store
   serialized and the base store re-serializes on every run, so the
   recorded plan beats the base store by a wide margin too;
4. **pinned replay** — with the promoted pins installed, replaying the
   capture against the poisoned database is diff-free (the pin restores
   the recorded plan), while a pin-less poisoned replay shows the
   fingerprint drift the pin repairs.  Stale-pin safety rides along: a
   catalog mutation drops the pin and the answer stays correct.

The audit trail is left at ``--audit-dir`` (default ``optimize_audit``)
and the capture at ``--qlog`` for CI to upload as debuggable artifacts.

Usage::

    PYTHONPATH=src python benchmarks/optimize_smoke.py --qlog w.jsonl

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from repro import Database, QueryService
from repro.core.replay import replay_records
from repro.core.tournament import run_tournament
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import QueryLog

DESCRIPTION_QUERY = "for $i in //regions//item return $i/description"
PERSON_QUERY = "for $p in //people/person return $p/name/text()"


def build_database(poisoned: bool = False) -> Database:
    """XMark database whose catalog supports both a single-view and a
    join access path for the description pattern.  ``poisoned=True``
    plants the misranking the tournament exists to catch: with
    ``v_item`` priced at a billion tuples the default pick becomes the
    two-view join, which is S-equivalent but measurably slower."""
    from repro.workloads import generate_xmark

    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=2, seed=0))
    db.add_view("v_item", "//regions//item[id:s]{/description[id:s, cont]}")
    db.add_view("v_item_ids", "//regions//item[id:s]")
    db.add_view("v_item_descriptions", "//regions//item/description[id:s, cont]")
    if poisoned:
        db.override_statistic("v_item", 1e9)
    return db


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok  " if condition else "FAIL") + f"  {message}")
    if not condition:
        failures.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--qlog", default="optimize_workload.jsonl",
        help="capture path (kept afterwards; CI uploads it)",
    )
    parser.add_argument(
        "--audit-dir", default="optimize_audit",
        help="tournament audit directory (kept afterwards; CI uploads it)",
    )
    parser.add_argument(
        "--runs", type=int, default=5,
        help="benchmark laps per candidate (trimmed-mean scored)",
    )
    args = parser.parse_args(argv)
    failures: list = []

    # -- record against honest statistics ----------------------------------
    if os.path.exists(args.qlog):
        os.remove(args.qlog)
    if os.path.isdir(args.audit_dir):
        shutil.rmtree(args.audit_dir)
    qlog = QueryLog(args.qlog)
    with QueryService(build_database(), qlog=qlog) as service:
        for query in (DESCRIPTION_QUERY, PERSON_QUERY):
            service.query(query)
    qlog.close()
    records = QueryLog.read_all(args.qlog)
    check(
        len(records) == 2 and all(r.get("outcome") == "ok" for r in records),
        f"capture holds the whole workload ({len(records)}/2 ok)",
        failures,
    )

    # -- the misranking must be real before the tournament runs ------------
    recorded = {r["query"]: r["fingerprint"] for r in records}
    tournament_db = build_database(poisoned=True)
    misranked = tournament_db.prepare(DESCRIPTION_QUERY, consult_pins=False)
    check(
        misranked.fingerprint != recorded[DESCRIPTION_QUERY],
        "poisoned statistics flip the default description plan "
        "(non-vacuity: there is a misranking to find)",
        failures,
    )

    # -- tournament: validate everything, promote the repair ---------------
    report = run_tournament(
        tournament_db,
        records,
        runs=args.runs,
        min_margin=0.02,
        audit_dir=args.audit_dir,
    )
    print(f"--  {report.render()}")
    candidates = sum(len(q.candidates) for q in report.queries)
    check(
        report.ok,
        "zero validation failures: every candidate reproduced the "
        f"recorded checksum in both execution modes "
        f"({len(report.divergences)} divergence(s))",
        failures,
    )
    # the tournament enumerates fully: base + 5 rewritings (v_item alone
    # and four two-view joins) for the description query, base only for
    # the person query (no view serves it)
    check(
        len(report.queries) == 2 and candidates == 7,
        f"tournament covered the distinct workload "
        f"({len(report.queries)} queries, {candidates}/7 candidates)",
        failures,
    )
    # the served plan comes from the cheapest-first search; candidate 0 is
    # marked default only when the full enumeration holds it
    check(
        all(q.candidates and q.candidates[0].default for q in report.queries),
        "every query's served plan is a member of the full enumeration",
        failures,
    )
    promotions = report.promotions
    check(
        len(promotions) >= 1,
        f"at least one pinned plan promoted ({len(promotions)})",
        failures,
    )
    described = next(
        (q for q in report.queries if q.query == DESCRIPTION_QUERY), None
    )
    check(
        described is not None and described.promoted and described.margin > 0.0,
        "the description query's misranked default lost to the recorded plan "
        + (f"({described.margin:.1%} margin)" if described else "(missing)"),
        failures,
    )
    for name in ("summary.json", "pins.json"):
        check(
            os.path.exists(os.path.join(args.audit_dir, name)),
            f"audit artifact {name} written",
            failures,
        )
    if described is not None:
        check(
            os.path.exists(
                os.path.join(args.audit_dir, described.slug, "winner.json")
            ),
            "promoted query's winner.json names the evidence",
            failures,
        )

    # -- pinned replay: the promotion repairs the poisoned plans -----------
    bare = replay_records(build_database(poisoned=True), records)
    check(
        not bare.ok and {d.kind for d in bare.diffs} == {"fingerprint"},
        "pin-less poisoned replay drifts on fingerprints only "
        f"({sorted({d.kind for d in bare.diffs})})",
        failures,
    )
    pinned = replay_records(tournament_db, records)
    print(f"--  pinned replay: {pinned.render()}")
    check(
        pinned.ok and pinned.matches == len(records),
        "replay with promoted pins installed is diff-free "
        f"({len(pinned.diffs)} diff(s))",
        failures,
    )

    # -- stale-pin safety: mutations drop the pin, answers stay right ------
    expected = next(r for r in records if r["query"] == DESCRIPTION_QUERY)
    tournament_db.add_view("v_late", "//closed_auction[id:s]")
    after = tournament_db.query(DESCRIPTION_QUERY)
    from repro.engine.qlog import result_checksum

    check(
        len(tournament_db.plan_pins) == 0,
        "catalog mutation invalidates every promoted pin",
        failures,
    )
    check(
        not after.pinned
        and result_checksum(after) == expected["checksum"],
        "post-mutation answer is unpinned yet checksum-identical",
        failures,
    )

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall optimize checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

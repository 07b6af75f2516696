#!/usr/bin/env python
"""Overload chaos lane: flood the service, demand typed sheds only.

The overload CI job runs this script to prove the admission-control spine
degrades *predictably* — wrong answers are never an acceptable overload
response.  8 client threads hammer a 2-worker service with a queue
capacity of 4 while every execution is slowed artificially.  The checks:
every completed query's checksum equals the unloaded ground truth (zero
divergences), a bounded nonzero fraction of queries is shed with typed
:class:`~repro.errors.QueryRejected`, readiness flips to *not ready*
under the storm, and flips back once traffic calms.

Usage::

    PYTHONPATH=src python benchmarks/overload_smoke.py

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import sys
import threading
import time

from repro import Database, QueryService
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import result_checksum
from repro.errors import QueryRejected
from repro.workloads import generate_xmark

FLOOD_QUERIES = [
    "for $p in //people/person return $p/name/text()",
    "//open_auctions/open_auction/initial/text()",
    "//regions//item/name/text()",
]

VIEWS = [
    ("v_person", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_item", "//regions//item[id:s]{/name[id:s, val]}"),
]


def build_database() -> Database:
    db = Database(metrics=MetricsRegistry())
    db.add_documents([generate_xmark(scale=1, seed=0)])
    for name, pattern in VIEWS:
        db.add_view(name, pattern)
    return db


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok  " if condition else "FAIL") + f"  {message}")
    if not condition:
        failures.append(message)


def run_flood(failures: list) -> None:
    print("== flood (8 clients, 2 workers, queue capacity 4)")
    db = build_database()
    truth = {q: result_checksum(db.query(q)) for q in FLOOD_QUERIES}

    original = db.execute_prepared

    def slowed(prepared, **kwargs):
        time.sleep(0.02)  # makes a 2-worker pool saturable by 8 clients
        return original(prepared, **kwargs)

    db.execute_prepared = slowed
    service = QueryService(db, max_workers=2, queue_capacity=4)
    executed = shed = divergences = unexpected = 0
    tally = threading.Lock()
    not_ready_seen = threading.Event()
    stop_sampling = threading.Event()

    def sampler() -> None:
        while not stop_sampling.is_set():
            if not service.ready():
                not_ready_seen.set()
            time.sleep(0.005)

    def client(seed: int) -> None:
        nonlocal executed, shed, divergences, unexpected
        for round_number in range(10):
            query = FLOOD_QUERIES[(seed + round_number) % len(FLOOD_QUERIES)]
            try:
                result = service.query(query, timeout=30)
            except QueryRejected:
                with tally:
                    shed += 1
                continue
            except Exception:  # anything untyped is an overload bug
                with tally:
                    unexpected += 1
                continue
            with tally:
                executed += 1
                if result_checksum(result) != truth[query]:
                    divergences += 1

    threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
    threads.append(threading.Thread(target=sampler, daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads[:-1]:
        thread.join(timeout=120)
    stop_sampling.set()
    threads[-1].join(timeout=5)

    total = 8 * 10
    check(
        executed + shed == total and unexpected == 0,
        f"every query ended typed: {executed} ok + {shed} shed = {total}, "
        f"{unexpected} untyped failure(s)",
        failures,
    )
    check(divergences == 0, "zero checksum divergences under flood", failures)
    check(
        0 < shed < total,
        f"bounded nonzero shed ({shed}/{total}, "
        f"admission: {service.admission.render()})",
        failures,
    )
    check(
        not_ready_seen.is_set(),
        "readiness flipped to not-ready during the storm",
        failures,
    )
    db.execute_prepared = original  # calm: full-speed queries, no shed
    for _ in range(40):
        service.query(FLOOD_QUERIES[0], timeout=30)
    check(service.ready(), "readiness recovered once traffic calmed", failures)
    service.shutdown()


def main() -> int:
    failures: list = []
    run_flood(failures)
    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall overload checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

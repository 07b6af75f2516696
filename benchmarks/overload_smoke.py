#!/usr/bin/env python
"""Overload chaos lane: flood the service, demand typed sheds only.

The overload CI job runs this script to prove the admission-control spine
(PR 8) degrades *predictably* — wrong answers are never an acceptable
overload response.  Two phases:

* ``--phase flood`` — 8 client threads hammer a 2-worker service with a
  queue capacity of 4 while every execution is slowed artificially.  The
  checks: every completed query's checksum equals the unloaded ground
  truth (zero divergences), a bounded nonzero fraction of queries is shed
  with typed :class:`~repro.errors.QueryRejected`, readiness flips to
  *not ready* under the storm, and flips back once traffic calms;

* ``--phase adaptive`` — the same workload through a fixed 8-worker pool
  and through the AIMD limiter, against a database whose per-query cost
  grows with concurrent in-flight executions (the contention curve the
  limiter exists to walk down).  The checks: the fixed pool genuinely
  degrades (p99 well above unloaded), the limiter shrinks below the
  worker count, and the adaptive steady-state p99 is no worse than the
  fixed pool's.

Usage::

    PYTHONPATH=src python benchmarks/overload_smoke.py            # all
    PYTHONPATH=src python benchmarks/overload_smoke.py --phase flood

Exit code 0 on success, 1 on any failed check.  Standard library only.
"""

from __future__ import annotations

import argparse
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


def percentile(samples: list, fraction: float) -> float:
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[index]


# -- phase 1: flood correctness ----------------------------------------------


def run_flood(failures: list) -> None:
    print("== phase: flood (8 clients, 2 workers, queue capacity 4)")
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


# -- phase 2: adaptive limiter vs fixed pool ----------------------------------


class ContentionShim:
    """Per-query cost that grows with concurrent executions: every query
    pays ``base`` seconds (so a loaded pool genuinely overlaps), and every
    in-flight query beyond ``free`` adds ``penalty`` seconds more — the
    convex contention curve (lock queues, cache thrash) an AIMD limiter
    exists to walk down."""

    def __init__(
        self, db, base: float = 0.005, free: int = 1, penalty: float = 0.02
    ):
        self._original = db.execute_prepared
        self.base = base
        self.free = free
        self.penalty = penalty
        self.inflight = 0
        self._lock = threading.Lock()

    def __call__(self, prepared, **kwargs):
        with self._lock:
            self.inflight += 1
            extra = max(0, self.inflight - self.free) * self.penalty
        try:
            time.sleep(self.base + extra)
            return self._original(prepared, **kwargs)
        finally:
            with self._lock:
                self.inflight -= 1


def _drive(service, clients: int, rounds: int, warmup: int) -> list:
    """Client-observed latencies, excluding each client's first
    ``warmup`` queries (the window the limiter needs to converge)."""
    samples: list = []
    lock = threading.Lock()

    def client(seed: int) -> None:
        for round_number in range(rounds):
            query = FLOOD_QUERIES[(seed + round_number) % len(FLOOD_QUERIES)]
            started = time.perf_counter()
            service.query(query, timeout=60)
            elapsed = time.perf_counter() - started
            if round_number >= warmup:
                with lock:
                    samples.append(elapsed)

    threads = [
        threading.Thread(target=client, args=(s,)) for s in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    return samples


def run_adaptive(failures: list) -> None:
    print("== phase: adaptive limiter vs fixed pool (contention curve)")
    db = build_database()
    shim = ContentionShim(db)
    db.execute_prepared = shim

    # unloaded reference: one client at a time pays no contention
    # penalty; the warmup also absorbs the three plan-cache misses
    with QueryService(db, max_workers=8, adaptive_limit=False) as svc:
        unloaded = _drive(svc, clients=1, rounds=20, warmup=5)
    unloaded_p99 = percentile(unloaded, 0.99)

    with QueryService(db, max_workers=8, adaptive_limit=False) as svc:
        fixed = _drive(svc, clients=8, rounds=40, warmup=10)
    fixed_p99 = percentile(fixed, 0.99)

    target = max(0.002, unloaded_p99)
    with QueryService(
        db, max_workers=8, adaptive_limit=True, target_latency=target
    ) as svc:
        adaptive = _drive(svc, clients=8, rounds=40, warmup=10)
        limit = svc.limiter.limit
        degraded = svc.limiter.degraded
    adaptive_p99 = percentile(adaptive, 0.99)

    print(
        f"--  p99 unloaded={unloaded_p99 * 1000:.1f}ms "
        f"fixed={fixed_p99 * 1000:.1f}ms "
        f"adaptive={adaptive_p99 * 1000:.1f}ms (limit {limit}/8)"
    )
    check(
        fixed_p99 >= 2.5 * unloaded_p99,
        f"the fixed pool genuinely degrades under contention "
        f"({fixed_p99 / unloaded_p99:.1f}x unloaded)",
        failures,
    )
    check(
        degraded and limit < 8,
        f"the limiter shrank below the worker count (limit={limit})",
        failures,
    )
    check(
        adaptive_p99 <= fixed_p99,
        f"adaptive steady-state p99 <= fixed pool p99 "
        f"({adaptive_p99 * 1000:.1f}ms vs {fixed_p99 * 1000:.1f}ms)",
        failures,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--phase", choices=("flood", "adaptive", "all"),
        default="all", help="which overload scenario to run (default all)",
    )
    args = parser.parse_args(argv)
    failures: list = []

    if args.phase in ("flood", "all"):
        run_flood(failures)
    if args.phase in ("adaptive", "all"):
        run_adaptive(failures)

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nall overload checks passed (phase: {args.phase})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

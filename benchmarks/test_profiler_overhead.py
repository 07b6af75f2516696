"""Profiler-on benchmark lane (ISSUE 10).

Side-by-side timings of the same instrumented XMark query with attributed
profiling off and on, plus the memory-sampled variant — the committed
baseline gates all three so a profiling-path regression (a hot clock
read, an unbounded tracemalloc window) shows up as a benchmark
regression, not just as a smoke-gate failure.
"""

import pytest

from repro import Database
from repro.engine.metrics import MetricsRegistry
from repro.workloads import generate_xmark

QUERY = "for $p in //people/person return $p/name/text()"


def _database(profile: bool) -> Database:
    db = Database(metrics=MetricsRegistry(), profile=profile)
    db.add_document(generate_xmark(scale=1, seed=0))
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


@pytest.fixture(scope="module")
def plain_db():
    return _database(profile=False)


@pytest.fixture(scope="module")
def profiled_db():
    db = _database(profile=True)
    # benchmark the common service configuration: CPU attributed on every
    # query, the tracemalloc window on the sampled stride
    return db


def test_bench_instrumented_unprofiled(benchmark, plain_db):
    """Baseline lane: instrumented (physical+stats) execution with the
    profiler off — what the other two lanes are measured against."""
    prepared = plain_db.prepare(QUERY)
    out = benchmark(
        lambda: plain_db.execute_prepared(prepared, stats=True)
    )
    assert out.tuples


def test_bench_profiled_attributed(benchmark, profiled_db):
    """Attributed profiling at the default memory-sampling stride: every
    execution pays the CPU clock reads, every Nth the tracemalloc
    window."""
    prepared = profiled_db.prepare(QUERY)
    out = benchmark(
        lambda: profiled_db.execute_prepared(
            prepared, stats=True
        )
    )
    assert sum(metrics.total_cpu_ns() for metrics in out.metrics) > 0


def test_bench_profiled_memory_every_query(benchmark, profiled_db):
    """Worst-case attributed profiling: the tracemalloc window on every
    execution (``repro profile``'s configuration)."""
    prepared = profiled_db.prepare(QUERY)
    stride = profiled_db.profile_memory_stride
    profiled_db.profile_memory_stride = 1
    try:
        out = benchmark(
            lambda: profiled_db.execute_prepared(
                prepared, stats=True
            )
        )
    finally:
        profiled_db.profile_memory_stride = stride
    assert any(
        node.peak_mem_bytes > 0
        for metrics in out.metrics
        for node in metrics.walk()
    )

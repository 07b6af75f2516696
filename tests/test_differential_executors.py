"""Differential harness: logical algebra vs compiled physical plan.

Every workload query must produce identical observable output — result
checksum *and* degradation flags — on the logical algebra
(:mod:`tests.reference`, the reference implementation) and as a compiled
batch plan (``stats=True``), including with circuit breakers forced
open.  Under armed chaos fault points each side must either reproduce a
fault-free, view-less oracle or fail with a typed
:class:`~repro.errors.ReproError`.

Each comparison runs two identically seeded databases (one per side)
rather than reusing one database: fault injectors and breaker boards are
stateful, and the contract under test is that the execution path is the
*only* difference between the runs."""

import pytest

from repro import Database
from repro.engine.breaker import OPEN
from repro.engine.faults import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import result_checksum
from repro.errors import ReproError
from repro.workloads import (
    DBLP_QUERIES,
    GeneratorConfig,
    XMARK_QUERIES,
    generate_dblp,
    generate_patterns,
    generate_xmark,
    pattern_to_query,
)
from tests.reference import reference_query

CHAOS_SPECS = [
    "relation.scan@v_person:corrupt",
    "relation.scan@v_item:transient:0.3:2",
    "*:latency:0.2",
]

#: the two execution paths under comparison: logical reference first
PATHS = (
    reference_query,
    lambda db, query: db.query(query, stats=True),
)

CHAOS_QUERIES = (
    "for $p in //people/person return $p/name/text()",
    "//regions//item/name/text()",
)


def make_xmark_db(views=True):
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=1, seed=0))
    if views:
        db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
        db.add_view("v_person_b", "//people/person[id:s]{/name[id:s, val]}")
        db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


def make_dblp_db():
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_dblp(scale=2, seed=1))
    db.add_view("v_article", "//dblp/article[id:s]{/title[id:s, val]}")
    db.add_view("v_author", "//dblp//author[id:s, val]")
    return db


def run_pair(make_db, query, configure=None):
    """The same query on two identically seeded databases differing only
    in execution path; returns the (logical, physical) outcomes."""
    results = []
    for run in PATHS:
        db = make_db()
        if configure is not None:
            configure(db)
        try:
            results.append(run(db, query))
        except Exception as error:
            results.append(error)
    return results


def assert_equivalent(query, logical, physical):
    if isinstance(logical, Exception) or isinstance(physical, Exception):
        # both modes must fail, and with the same typed error
        assert type(logical) is type(physical), (query, logical, physical)
        return
    assert result_checksum(logical) == result_checksum(physical), query
    assert logical.degraded == physical.degraded, query
    assert len(logical.degradation_events) == len(
        physical.degradation_events
    ), query


@pytest.mark.parametrize("query_id", sorted(XMARK_QUERIES))
def test_xmark_query_differential(query_id):
    query = XMARK_QUERIES[query_id]
    assert_equivalent(query, *run_pair(make_xmark_db, query))


@pytest.mark.parametrize("query_id", sorted(DBLP_QUERIES))
def test_dblp_query_differential(query_id):
    query = DBLP_QUERIES[query_id]
    assert_equivalent(query, *run_pair(make_dblp_db, query))


def test_random_pattern_differential():
    summary_db = make_xmark_db(views=False)
    config = GeneratorConfig(wildcard_probability=0.0)
    queries = []
    for size in (4, 6, 8):
        for pattern in generate_patterns(
            summary_db.summary, size=size, return_count=1,
            count=4, seed=size, config=config,
        ):
            queries.append(pattern_to_query(pattern))
    assert len(queries) == 12
    for query in queries:
        assert_equivalent(query, *run_pair(make_xmark_db, query))


@pytest.mark.parametrize("specs", CHAOS_SPECS)
@pytest.mark.parametrize("seed", [0, 7])
def test_chaos_differential(specs, seed):
    """Under seeded fault injection each mode either answers exactly as
    the fault-free, view-less oracle does or fails with a typed error —
    never a silently wrong answer."""

    def arm(db):
        db.fault_injector = FaultInjector(specs, seed=seed)

    oracle_db = make_xmark_db(views=False)
    for query in CHAOS_QUERIES:
        expected = result_checksum(oracle_db.query(query))
        for outcome in run_pair(make_xmark_db, query, configure=arm):
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ReproError), (query, outcome)
            else:
                assert result_checksum(outcome) == expected, query


def test_breakers_forced_open_differential():
    """With every view's breaker forced open, planning routes around the
    modules entirely — and both modes must land on the same base-store
    answer."""

    def trip(db):
        for name in ("v_person", "v_person_b", "v_item"):
            for _ in range(db.breakers.failure_threshold):
                db.breakers.record_failure(name, "forced open")
            assert db.breakers.state(name) == OPEN

    for query in CHAOS_QUERIES:
        logical, physical = run_pair(make_xmark_db, query, configure=trip)
        assert_equivalent(query, logical, physical)
        assert not isinstance(logical, Exception)
        assert not logical.used_views

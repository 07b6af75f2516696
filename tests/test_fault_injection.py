"""Chaos regression suite: fault injection, circuit breakers, and
rewriting-based graceful degradation.

The contract under test is the availability corollary of physical data
independence: under any injected storage fault the system either returns
the *same answer* as a fault-free run (possibly degraded, via another
S-equivalent access path) or raises a *typed* :class:`ReproError` — it
never silently returns a wrong answer.

The seeded sweep reads ``REPRO_CHAOS_SEED`` (default 0), which the CI
chaos lane varies across its matrix.
"""

import os
from collections import Counter

import pytest

from repro import Database, QueryService
from repro.core.service import RetryPolicy
from repro.engine.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.engine.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    parse_fault_specs,
    scope,
)
from repro.engine import faults
from repro.errors import (
    AccessModuleUnavailable,
    ReproError,
    StorageFault,
    TransientStorageFault,
)
from repro.workloads import generate_xmark

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
ITEM_QUERY = "//regions//item/name/text()"
QUERIES = [PERSON_QUERY, ITEM_QUERY]


def make_xmark_db() -> Database:
    """A fresh database per test: breakers and injectors are stateful."""
    db = Database()
    db.add_document(generate_xmark(scale=1, seed=0))
    # two S-equivalent modules for person, so degradation has somewhere
    # to re-route; item has a single view (its fallback is the base store)
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_person_b", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


def answers(result):
    """Order-insensitive answer multiset (S-equivalent plans may differ
    in production order)."""
    return Counter(result.values)


# ---------------------------------------------------------------------------
# FaultSpec / parsing / injector mechanics
# ---------------------------------------------------------------------------

class TestFaultSpecs:
    def test_parse_round_trip(self):
        text = "relation.scan@v_person:corrupt,*:transient:0.25,btree.lookup:latency:0.05"
        specs = parse_fault_specs(text)
        assert [s.render() for s in specs] == [
            "relation.scan@v_person:corrupt",
            "*:transient:0.25",
            "btree.lookup:latency:0.05",
        ]

    def test_times_budget_parses(self):
        (spec,) = parse_fault_specs("relation.scan:transient:1.0:2")
        assert spec.times == 2 and spec.probability == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(point="relation.scan", kind="meltdown")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec(point="relation.scam", kind="transient")

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(point="*", kind="transient", probability=1.5)

    def test_target_narrows(self):
        spec = FaultSpec(point="relation.scan", kind="corrupt", target="v")
        assert spec.matches("relation.scan", "v")
        assert not spec.matches("relation.scan", "w")
        assert not spec.matches("btree.lookup", "v")


class TestFaultInjector:
    def test_deterministic_for_fixed_seed(self):
        def fire_sequence(seed):
            injector = FaultInjector("*:transient:0.5", seed=seed)
            fired = []
            for _ in range(64):
                try:
                    injector.check("relation.scan", "r")
                    fired.append(False)
                except TransientStorageFault:
                    fired.append(True)
            return fired

        assert fire_sequence(7) == fire_sequence(7)
        assert fire_sequence(7) != fire_sequence(8)

    def test_times_budget_exhausts(self):
        injector = FaultInjector("relation.scan:transient:1.0:2", seed=0)
        for _ in range(2):
            with pytest.raises(TransientStorageFault):
                injector.check("relation.scan")
        injector.check("relation.scan")  # budget spent: no fault
        assert injector.injected == {"relation.scan:transient": 2}

    def test_reset_rewinds_budgets(self):
        injector = FaultInjector("relation.scan:corrupt:1.0:1", seed=0)
        with pytest.raises(AccessModuleUnavailable):
            injector.check("relation.scan")
        injector.check("relation.scan")
        injector.reset()
        with pytest.raises(AccessModuleUnavailable):
            injector.check("relation.scan")

    def test_latency_sleeps_instead_of_raising(self):
        slept = []
        injector = FaultInjector(
            "relation.scan:latency:0.25", seed=0, sleep=slept.append
        )
        injector.check("relation.scan")
        assert slept == [0.25]

    def test_module_check_is_noop_without_scope(self):
        # no scope active on this thread: must not raise however harsh
        # any configured injector elsewhere is
        faults.check("relation.scan", "anything")

    def test_scope_activates_and_deactivates(self):
        injector = FaultInjector("relation.scan:transient", seed=0)
        with scope(injector):
            with pytest.raises(TransientStorageFault):
                faults.check("relation.scan")
        faults.check("relation.scan")

    def test_typed_fault_carries_point_and_xam(self):
        injector = FaultInjector("btree.lookup@idx:corrupt", seed=0)
        with pytest.raises(AccessModuleUnavailable) as info:
            injector.check("btree.lookup", "idx")
        assert info.value.point == "btree.lookup"
        assert info.value.xam == "idx"
        assert info.value.corrupt
        assert isinstance(info.value, StorageFault)
        assert isinstance(info.value, ReproError)


class TestEnvInjector:
    def test_env_configures_and_caches(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "relation.scan:transient:1.0:1")
        monkeypatch.setenv(faults.ENV_SEED, "3")
        first = faults.injector_from_env()
        assert first is not None and first.seed == 3
        # same env → same instance, so trigger budgets persist
        assert faults.injector_from_env() is first
        monkeypatch.setenv(faults.ENV_SEED, "4")
        assert faults.injector_from_env() is not first
        monkeypatch.delenv(faults.ENV_FAULTS)
        assert faults.injector_from_env() is None


# ---------------------------------------------------------------------------
# Every fault point fires at its real call site
# ---------------------------------------------------------------------------

class TestFaultPointsAtCallSites:
    """Each named fault point, reached through the structure it guards —
    proving the instrumentation sits on the actual read path."""

    def test_relation_scan_fires_from_store_context(self):
        from repro.engine import Store

        store = Store()
        store.add("r", [])
        injector = FaultInjector("relation.scan@r:transient", seed=0)
        with scope(injector):
            context = store.context()
            with pytest.raises(TransientStorageFault):
                context["r"]

    def test_btree_lookup_fires_from_stored_relation(self):
        from repro.algebra import NestedTuple
        from repro.engine import Store

        store = Store()
        store.add("r", [NestedTuple({"a": 1})])
        injector = FaultInjector("btree.lookup@r:corrupt", seed=0)
        with scope(injector):
            with pytest.raises(AccessModuleUnavailable):
                store["r"].lookup(["a"], [1])

    def test_index_structural_fires_from_prepost_plane(self, bib_doc):
        from repro.indexes import PrePostPlane
        from repro.xmldata import id_of

        plane = PrePostPlane(bib_doc)
        ref = id_of(bib_doc.top, "s")
        with scope(FaultInjector("index.structural:transient", seed=0)):
            with pytest.raises(TransientStorageFault):
                plane.descendants(ref)

    def test_index_value_fires_from_index_lookup(self, bib_doc):
        from repro.algebra import NestedTuple
        from repro.engine import Store
        from repro.indexes import build_value_index
        from repro.storage import Catalog, index_lookup

        store, catalog = Store(), Catalog()
        entry = build_value_index(
            "byTitle", bib_doc, store, catalog, "book", ["title"]
        )
        with scope(FaultInjector("index.value@byTitle:corrupt", seed=0)):
            with pytest.raises(AccessModuleUnavailable):
                index_lookup(
                    entry, store, [NestedTuple({"e2.V": "Data on the Web"})]
                )

    def test_index_fulltext_fires_from_fulltext_lookup(self, bib_doc):
        from repro.engine import Store
        from repro.indexes import build_fulltext_index, fulltext_lookup
        from repro.storage import Catalog

        store, catalog = Store(), Catalog()
        entry = build_fulltext_index("fti", bib_doc, store, catalog)
        assert fulltext_lookup(entry, store, "Web")  # healthy path first
        with scope(FaultInjector("index.fulltext@fti:transient", seed=0)):
            with pytest.raises(TransientStorageFault):
                fulltext_lookup(entry, store, "Web")

    def test_blob_fetch_fires_from_fetch_content(self, bib_doc):
        from repro.engine import Store
        from repro.storage import Catalog
        from repro.storage.blob import build_content_store, fetch_content
        from repro.xmldata import id_of

        store, catalog = Store(), Catalog()
        (relation,) = build_content_store(bib_doc, store, catalog, ["title"])
        contents = fetch_content(store, relation)
        assert any("Data on the Web" in (c or "") for c in contents)
        title = next(
            node for node in bib_doc.elements() if node.label == "title"
        )
        narrowed = fetch_content(store, relation, node_id=id_of(title, "s"))
        assert len(narrowed) == 1
        with scope(FaultInjector(f"blob.fetch@{relation}:corrupt", seed=0)):
            with pytest.raises(AccessModuleUnavailable):
                fetch_content(store, relation)


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, timeout=30.0):
        clock = FakeClock()
        return CircuitBreaker(threshold, timeout, clock), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert breaker.record_failure("e1") == CLOSED
        assert breaker.record_failure("e2") == CLOSED
        assert breaker.record_failure("e3") == OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() == CLOSED
        assert breaker.record_failure() == OPEN

    def test_half_open_after_recovery_window(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        assert breaker.record_failure() == OPEN
        clock.advance(9.9)
        assert breaker.state == OPEN and not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN and breaker.allow()

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state == HALF_OPEN
        assert breaker.record_failure() == OPEN
        clock.advance(9.0)
        assert breaker.state == OPEN  # window restarted at the re-open

    def test_render_mentions_state_and_last_error(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure("disk on fire")
        assert "open" in breaker.render()
        assert "disk on fire" in breaker.render()


class TestBreakerBoard:
    def test_empty_board_is_healthy(self):
        board = BreakerBoard()
        assert len(board) == 0
        assert board.allows("anything")
        assert board.state("anything") == CLOSED
        assert board.unavailable_names() == set()
        assert "healthy" in board.render()

    def test_success_does_not_create_entries(self):
        board = BreakerBoard()
        board.record_success("v")
        assert len(board) == 0

    def test_unavailable_lists_open_only(self):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=1, recovery_timeout=10.0, clock=clock)
        board.record_failure("a")
        board.record_failure("b")
        assert board.unavailable_names() == {"a", "b"}
        clock.advance(11.0)
        # both are half-open now: probes allowed, nothing excluded
        assert board.unavailable_names() == set()
        assert board.states() == {"a": HALF_OPEN, "b": HALF_OPEN}


# ---------------------------------------------------------------------------
# Degradation through the Database
# ---------------------------------------------------------------------------

class TestGracefulDegradation:
    def test_permanent_fault_reroutes_to_sibling_view(self):
        db = make_xmark_db()
        oracle = answers(db.query(PERSON_QUERY))
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:corrupt", seed=CHAOS_SEED
        )
        result = db.query(PERSON_QUERY)
        assert answers(result) == oracle
        assert result.degraded
        assert any("v_person" in event for event in result.degradation_events)
        assert result.counters["degraded.reroutes"] >= 1.0

    def test_reroute_takes_the_cheapest_survivor(self):
        """The reroute search drops the failed view before validating, so
        it finds the cheapest full-enumeration rewriting avoiding that
        view — or none when no rewriting avoids it."""
        from repro.core import rewrite_pattern
        from repro.core.statistics import rank_rewritings
        from repro.engine.qlog import rewriting_signature
        from tests.rewrite_golden import CATALOG_14, VIEW_QUERIES

        db = Database()
        db.add_document(generate_xmark(scale=1, seed=0))
        for name, text in CATALOG_14:
            db.add_view(name, text)
        ctx = db.execution_context()

        def signature(rewriting):
            return rewriting and (rewriting.views, rewriting_signature(rewriting))

        checked = 0
        for query in VIEW_QUERIES.values():
            for unit in db.prepare(query).units:
                for resolution in unit.resolutions:
                    if resolution.rewriting is None:
                        continue
                    full = rewrite_pattern(
                        resolution.pattern, db.catalog, db.summary, max_results=None
                    )
                    for view in resolution.rewriting.views:
                        survivors = rank_rewritings(
                            [r for r in full if view not in r.views],
                            db.catalog,
                            db.summary,
                            statistics=ctx.statistics,
                        )
                        fallback = db._fallback_rewriting(
                            resolution.pattern, {view}, ctx
                        )
                        assert signature(fallback) == signature(
                            survivors[0] if survivors else None
                        ), (query, view)
                        checked += 1
        assert checked >= 9

    def test_reroute_compiles_uncached(self):
        """A degraded reroute runs compiled, but outside the plan's
        fingerprint-keyed artifact: the artifact gains no slot for it, and
        the next healthy execution reuses the cached closures."""
        db = make_xmark_db()
        prepared = db.prepare(PERSON_QUERY)
        healthy = db.execute_prepared(prepared)
        artifact = db.compiled_plans.get(
            prepared.fingerprint, db.catalog_version
        )
        slots = artifact.slots()
        assert slots  # the healthy run filled the artifact
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:corrupt", seed=CHAOS_SEED
        )
        degraded = db.execute_prepared(prepared)
        assert degraded.degraded
        assert degraded.counters["degraded.reroutes"] >= 1.0
        assert answers(degraded) == answers(healthy)
        assert artifact.slots() == slots
        db.fault_injector = None
        again = db.execute_prepared(prepared)
        assert not again.degraded
        assert again.counters.get("plan_compile.hit", 0) >= 1.0
        assert "plan_compile.miss" not in again.counters
        assert answers(again) == answers(healthy)

    def test_single_view_pattern_falls_back_to_base_store(self):
        db = make_xmark_db()
        oracle = answers(db.query(ITEM_QUERY))
        db.fault_injector = FaultInjector(
            "relation.scan@v_item:corrupt", seed=CHAOS_SEED
        )
        result = db.query(ITEM_QUERY)
        assert answers(result) == oracle
        assert result.degraded
        assert result.counters["degraded.base_fallbacks"] >= 1.0

    def test_breaker_opens_and_planner_avoids_module(self):
        db = make_xmark_db()
        oracle = answers(db.query(PERSON_QUERY))
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:corrupt", seed=CHAOS_SEED
        )
        threshold = db.breakers.failure_threshold
        for _ in range(threshold):
            result = db.query(PERSON_QUERY)
            assert answers(result) == oracle
        assert db.breakers.state("v_person") == OPEN
        assert "v_person" in db.health()
        # with the circuit open, fresh plans route around the module
        # *at planning time* — no degradation events at all
        clean = db.query(PERSON_QUERY)
        assert answers(clean) == oracle
        assert not clean.degraded
        assert all(
            "v_person" != view
            for resolution in clean.resolutions
            if resolution.rewriting is not None
            for view in resolution.rewriting.views
        )

    def test_transient_fault_propagates_typed_from_database(self):
        # the Database layer does not retry (that is the service's job):
        # a transient fault must surface as its typed error, not as a
        # wrong or silently empty answer
        db = make_xmark_db()
        db.fault_injector = FaultInjector(
            "relation.scan@v_person:transient", seed=CHAOS_SEED
        )
        with pytest.raises(TransientStorageFault):
            db.query(PERSON_QUERY)

    def test_explain_reports_health(self):
        db = make_xmark_db()
        db.breakers.record_failure("v_person", "boom")
        report = db.explain(PERSON_QUERY)
        assert report.health.get("v_person") == CLOSED
        assert "access modules:" in report.render()


# ---------------------------------------------------------------------------
# Retries through the QueryService
# ---------------------------------------------------------------------------

class TestServiceRetries:
    def make_service(self, db):
        return QueryService(
            db, max_workers=2, retry_policy=RetryPolicy(base_delay=0.001)
        )

    def test_transient_fault_absorbed_with_zero_degradation(self):
        db = make_xmark_db()
        with self.make_service(db) as service:
            oracle = answers(service.query(PERSON_QUERY))
            db.fault_injector = FaultInjector(
                "relation.scan@v_person:transient:1.0:2", seed=CHAOS_SEED
            )
            result = service.query(PERSON_QUERY)
            assert answers(result) == oracle
            assert not result.degraded
            assert result.counters["retry.attempts"] == 2.0
            assert result.counters["retry.recovered"] == 1.0
            # nothing reached the breakers: transients are not failures
            assert len(db.breakers) == 0

    def test_retries_exhaust_into_typed_error(self):
        db = make_xmark_db()
        with self.make_service(db) as service:
            db.fault_injector = FaultInjector(
                "relation.scan@v_person:transient", seed=CHAOS_SEED
            )
            with pytest.raises(TransientStorageFault):
                service.query(PERSON_QUERY)

    def test_degraded_result_evicts_cached_plan(self):
        db = make_xmark_db()
        with self.make_service(db) as service:
            service.query(PERSON_QUERY)
            assert len(service.cache) == 1
            db.fault_injector = FaultInjector(
                "relation.scan@v_person:corrupt", seed=CHAOS_SEED
            )
            result = service.query(PERSON_QUERY)
            assert result.degraded
            assert len(service.cache) == 0

    def test_latency_recorder_tags_failures(self):
        db = make_xmark_db()
        with self.make_service(db) as service:
            session = service.session("chaos")
            service.query(PERSON_QUERY, session=session)
            db.fault_injector = FaultInjector(
                "relation.scan@v_person:transient", seed=CHAOS_SEED
            )
            with pytest.raises(TransientStorageFault):
                service.query(PERSON_QUERY, session=session)
            assert session.latency.outcomes() == {"ok": 1, "error": 1}
            assert len(session.latency) == 2
            assert "outcomes=" in session.latency.render()


# ---------------------------------------------------------------------------
# The seeded sweep: match the oracle or fail typed — never silently wrong
# ---------------------------------------------------------------------------

class TestChaosSweep:
    """Every fault point × kind over the XMark workload.

    Probability < 1 makes the seeded RNG choose *when* to fire, so the
    sweep explores a different interleaving per seed (CI varies
    ``REPRO_CHAOS_SEED`` across its matrix).
    """

    @pytest.mark.parametrize("kind", ["transient", "corrupt"])
    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_fault_sweep_never_silently_wrong(self, point, kind):
        db = make_xmark_db()
        oracles = {q: answers(db.query(q)) for q in QUERIES}
        db.fault_injector = FaultInjector(
            f"{point}:{kind}:0.7", seed=CHAOS_SEED
        )
        for query in QUERIES:
            try:
                result = db.query(query)
            except ReproError:
                continue  # typed failure is an acceptable outcome
            assert answers(result) == oracles[query], (
                f"silent wrong answer under {point}:{kind} for {query!r}"
            )

    def test_latency_faults_never_change_answers(self):
        db = make_xmark_db()
        oracles = {q: answers(db.query(q)) for q in QUERIES}
        db.fault_injector = FaultInjector("*:latency:0.0005", seed=CHAOS_SEED)
        for query in QUERIES:
            result = db.query(query)
            assert answers(result) == oracles[query]
            assert not result.degraded

    def test_service_sweep_with_retries_and_degradation(self):
        db = make_xmark_db()
        with QueryService(
            db, max_workers=2, retry_policy=RetryPolicy(base_delay=0.0005)
        ) as service:
            oracles = {q: answers(service.query(q)) for q in QUERIES}
            db.fault_injector = FaultInjector(
                "relation.scan:transient:0.4,relation.scan:corrupt:0.2",
                seed=CHAOS_SEED,
            )
            for _ in range(3):
                for query in QUERIES:
                    try:
                        result = service.query(query)
                    except ReproError:
                        continue
                    assert answers(result) == oracles[query]

"""The concurrent query service: cache correctness, invalidation on every
mutation kind, timeouts/cancellation, and the multi-threaded smoke test
over XMark the ISSUE asks for."""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Database, QueryService
from repro.core.service import QueryTimeout, RetryPolicy
from repro.core.uload import QueryCancelled
from repro.errors import QueryRejected, TransientStorageFault
from repro.workloads import generate_xmark

from tests.conftest import BIB_XML

PERSON_QUERY = "for $p in //people/person return $p/name/text()"
AUCTION_QUERY = "//open_auctions/open_auction/initial/text()"
ITEM_QUERY = "//regions//item/name/text()"
CLOSED_QUERY = "//closed_auctions/closed_auction/price/text()"


@pytest.fixture()
def xmark_db():
    db = Database()
    db.add_document(generate_xmark(scale=1, seed=0))
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_item", "//regions//item[id:s]{/name[id:s, val]}")
    return db


@pytest.fixture()
def service(xmark_db):
    svc = QueryService(xmark_db, cache_capacity=16, max_workers=8)
    yield svc
    svc.shutdown()


def frozen(result):
    return [t.freeze() for t in result.tuples]


class TestCacheCorrectness:
    def test_hit_after_miss_returns_identical_tuples(self, service):
        first = service.query(PERSON_QUERY)
        second = service.query(PERSON_QUERY)
        assert frozen(first) == frozen(second)
        assert first.values == second.values
        assert first.xml == second.xml
        stats = service.cache_stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_counters_surface_in_result(self, service):
        miss = service.query(PERSON_QUERY, stats=True)
        hit = service.query(PERSON_QUERY, stats=True)
        assert miss.counters["plan_cache.miss"] == 1.0
        assert hit.counters["plan_cache.hit"] == 1.0
        assert hit.metrics, "stats=True should still record plan metrics"

    def test_counters_surface_in_explain(self, service):
        service.explain(PERSON_QUERY)
        report = service.explain(PERSON_QUERY)
        assert report.counters["plan_cache.hit"] == 1.0
        assert "plan_cache.hit" in report.render()

    def test_distinct_queries_cached_separately(self, service):
        service.query(PERSON_QUERY)
        service.query(AUCTION_QUERY)
        assert service.cache_stats().size == 2

    def test_whitespace_variants_share_one_entry(self, service):
        service.query(PERSON_QUERY)
        service.query("  " + PERSON_QUERY.replace(" return", "   return") + "  ")
        stats = service.cache_stats()
        assert stats.hits == 1 and stats.size == 1

    def test_matches_plain_database_results(self, xmark_db, service):
        direct = xmark_db.query(AUCTION_QUERY)
        via_service = service.query(AUCTION_QUERY)
        assert frozen(direct) == frozen(via_service)


class TestInvalidation:
    def test_register_xam_invalidates(self, service):
        service.query(AUCTION_QUERY)
        service.add_view(
            "v_auction", "//open_auctions/open_auction[id:s]{/initial[id:s, val]}"
        )
        assert service.cache_stats().invalidations >= 1
        result = service.query(AUCTION_QUERY)
        assert "v_auction" in result.used_views
        assert service.cache_stats().misses == 2  # re-prepared, not reused

    def test_drop_view_invalidates(self, service):
        before = service.query(PERSON_QUERY)
        assert "v_person" in before.used_views
        service.drop_view("v_person")
        after = service.query(PERSON_QUERY)
        assert "v_person" not in after.used_views
        assert sorted(before.values) == sorted(after.values)

    def test_load_document_invalidates(self, service):
        baseline = service.query("//book/title/text()")
        assert baseline.values == []
        service.add_document_xml(BIB_XML, "bib.xml")
        enriched = service.query("//book/title/text()")
        assert "Data on the Web" in enriched.values
        assert service.cache_stats().invalidations >= 1

    def test_refresh_statistics_invalidates(self, service):
        service.query(PERSON_QUERY)
        version = service.db.catalog_version
        service.refresh_statistics()
        assert service.db.catalog_version == version + 1
        service.query(PERSON_QUERY)
        stats = service.cache_stats()
        assert stats.misses == 2 and stats.invalidations >= 1

    def test_lru_eviction_respects_capacity(self, xmark_db):
        with QueryService(xmark_db, cache_capacity=2, max_workers=2) as svc:
            for query in (PERSON_QUERY, AUCTION_QUERY, ITEM_QUERY, CLOSED_QUERY):
                svc.query(query)
            stats = svc.cache_stats()
            assert stats.size == 2
            assert stats.evictions == 2


class TestTimeoutAndCancellation:
    def test_timeout_raises_query_timeout(self, xmark_db):
        original = xmark_db.prepare

        def slow_prepare(*args, **kwargs):
            time.sleep(0.4)
            return original(*args, **kwargs)

        xmark_db.prepare = slow_prepare
        with QueryService(xmark_db, max_workers=1) as svc:
            with pytest.raises(QueryTimeout):
                svc.query(PERSON_QUERY, timeout=0.05)

    def test_should_stop_cancels_between_units(self, xmark_db):
        prepared = xmark_db.prepare(PERSON_QUERY)
        with pytest.raises(QueryCancelled):
            xmark_db.execute_prepared(prepared, should_stop=lambda: True)

    def test_shutdown_rejects_new_queries(self, xmark_db):
        svc = QueryService(xmark_db, max_workers=1)
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.query(PERSON_QUERY)


class TestAdmissionControl:
    """Overload protection at the service boundary: bounded-queue sheds,
    the queued-then-shed cancellation race, the retry bound, and a
    cancellation landing while a breaker is half-open (the probe must
    stay un-judged)."""

    def test_queue_full_sheds_with_typed_rejection(self, xmark_db):
        release = threading.Event()
        original = xmark_db.prepare

        def gated_prepare(*args, **kwargs):
            release.wait(10)
            return original(*args, **kwargs)

        xmark_db.prepare = gated_prepare
        svc = QueryService(xmark_db, max_workers=1, queue_capacity=1)
        try:
            blocker = svc.submit(PERSON_QUERY, timeout=30)
            time.sleep(0.05)  # the worker picks it up: queue depth 0
            queued = svc.submit(AUCTION_QUERY, timeout=30)  # depth 1 = cap
            with pytest.raises(QueryRejected) as rejection:
                svc.submit(ITEM_QUERY, timeout=30)
            assert rejection.value.reason == "queue_full"
            assert rejection.value.priority == "interactive"
            assert svc.admission.shed == 1
            release.set()
            blocker.result(timeout=30)
            queued.result(timeout=30)
        finally:
            release.set()
            xmark_db.prepare = original
            svc.shutdown()

    def test_queued_then_shed_race(self, xmark_db):
        """A query admitted while healthy whose deadline expires in the
        queue is shed by the worker that dequeues it — never executed,
        never a wrong answer, a typed rejection instead."""
        release = threading.Event()
        original = xmark_db.prepare

        def gated_prepare(*args, **kwargs):
            release.wait(10)
            return original(*args, **kwargs)

        xmark_db.prepare = gated_prepare
        svc = QueryService(xmark_db, max_workers=1)
        try:
            blocker = svc.submit(PERSON_QUERY, timeout=30)
            time.sleep(0.05)  # worker is now parked inside the blocker
            queued = svc.submit(AUCTION_QUERY, timeout=0.05)
            time.sleep(0.1)  # the queued deadline expires while waiting
            release.set()
            blocker.result(timeout=30)
            with pytest.raises(QueryRejected) as rejection:
                queued.result(timeout=30)
            assert rejection.value.reason == "queued_deadline"
        finally:
            release.set()
            xmark_db.prepare = original
            svc.shutdown()

    def test_retries_stop_at_max_attempts(self, xmark_db):
        """The only bound on transient-fault retries is the policy's
        ``max_attempts`` (and the deadline): a query that faults on every
        execution runs exactly that many times, then raises; retrying
        never touches the circuit breakers."""
        original = xmark_db.execute_prepared
        calls = {"count": 0}

        def always_faulting(prepared, **kwargs):
            calls["count"] += 1
            raise TransientStorageFault("injected read fault", xam="v_person")

        xmark_db.execute_prepared = always_faulting
        svc = QueryService(xmark_db, max_workers=1)
        breakers_before = xmark_db.breakers.states()
        exhausted_before = svc.metrics.counter_total("retry.exhausted")
        try:
            with pytest.raises(TransientStorageFault):
                svc.query(PERSON_QUERY, timeout=30)
            assert calls["count"] == RetryPolicy().max_attempts
            exhausted = svc.metrics.counter_total("retry.exhausted")
            assert exhausted - exhausted_before == 1.0
            assert xmark_db.breakers.states() == breakers_before
        finally:
            xmark_db.execute_prepared = original
            svc.shutdown()

    def test_cancelled_while_breaker_half_open(self, xmark_db):
        """A query cancelled mid-probe must leave a half-open breaker
        half-open: the cancelled run judged nothing, so the next query is
        still the recovery probe (and its success closes the breaker)."""
        board = xmark_db.breakers
        board.force_open("v_person", "probe rehearsal")
        board.breaker("v_person").recovery_timeout = 0.0
        assert board.state("v_person") == "half-open"

        stop_set = threading.Event()
        original = xmark_db.prepare

        def gated_prepare(*args, **kwargs):
            stop_set.wait(10)  # hold the worker until the cancel landed
            return original(*args, **kwargs)

        xmark_db.prepare = gated_prepare
        svc = QueryService(xmark_db, max_workers=1)
        try:
            future = svc.submit(PERSON_QUERY, timeout=30)
            future.cancel_query()  # cooperative stop before execution
            stop_set.set()
            with pytest.raises(QueryCancelled):
                future.result(timeout=30)
            assert board.state("v_person") == "half-open"
            xmark_db.prepare = original
            result = svc.query(PERSON_QUERY, timeout=30)
            assert "v_person" in result.used_views
            assert board.state("v_person") == "closed"
        finally:
            xmark_db.prepare = original
            stop_set.set()
            svc.shutdown()


class TestSigtermUnderSaturation:
    """SIGTERM during a saturated serve exits promptly with code 130 —
    the atexit guard cancels the queued futures so the worker pool's
    interpreter-exit join cannot hang (satellite regression test)."""

    def test_sigterm_exits_130_promptly(self, tmp_path):
        document = tmp_path / "bib.xml"
        document.write_text(BIB_XML, encoding="utf-8")
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title/text()\n" * 50, encoding="utf-8")
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(document),
                "--queries", str(queries), "--repeat", "2000",
                "--workers", "1", "--queue-capacity", "4",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(repo_root),
        )
        # the saturation signal: serve prints a shed query's outcome only
        # from inside its signal-handling loop, once the queue is full
        saturated = threading.Event()

        def drain():
            for line in process.stdout:
                if line.startswith(b"  rejected [queue_full]"):
                    saturated.set()

        threading.Thread(target=drain, daemon=True).start()
        try:
            assert saturated.wait(60), "serve never shed a query"
            assert process.poll() is None, "serve finished before SIGTERM"
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                pytest.fail("serve did not exit within 10s of SIGTERM")
            assert process.returncode == 130
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestSessions:
    def test_sessions_record_latency_percentiles(self, service):
        session = service.session("alice")
        for _ in range(5):
            session.query(PERSON_QUERY)
        assert len(session.latency) == 5
        p50 = session.latency.percentile(50)
        p99 = session.latency.percentile(99)
        assert p50 is not None and p99 is not None and p50 <= p99
        assert 50 in session.latency.percentiles((50, 99))
        assert "p50=" in session.latency.render()

    def test_named_session_is_stable_and_autonames_unique(self, service):
        assert service.session("alice") is service.session("alice")
        assert service.session().name != service.session().name
        assert len(service.sessions()) >= 2

    def test_empty_recorder(self, service):
        fresh = service.session("idle")
        assert fresh.latency.percentile(50) is None
        assert fresh.latency.render() == "no queries recorded"


class TestConcurrentSmoke:
    """≥8 threads, mixed cached/uncached queries, one mid-run catalog
    mutation — results must be deterministic (acceptance criterion)."""

    QUERIES = [PERSON_QUERY, AUCTION_QUERY, ITEM_QUERY, CLOSED_QUERY]

    def test_eight_thread_smoke(self, xmark_db):
        reference = {
            q: sorted(frozen(xmark_db.query(q))) for q in self.QUERIES
        }
        svc = QueryService(xmark_db, cache_capacity=16, max_workers=8)
        errors: list = []
        mismatches: list = []
        started = threading.Barrier(9)
        mutated = threading.Event()

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                started.wait()
                session = svc.session(f"reader-{seed}")
                for i in range(12):
                    query = rng.choice(self.QUERIES)
                    result = session.query(query, timeout=30)
                    if sorted(frozen(result)) != reference[query]:
                        mismatches.append((seed, i, query))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((seed, error))

        def mutator() -> None:
            try:
                started.wait()
                time.sleep(0.02)  # land mid-run
                svc.add_view(
                    "v_closed",
                    "//closed_auctions/closed_auction[id:s]{/price[id:s, val]}",
                )
                mutated.set()
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(("mutator", error))

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(8)]
        threads.append(threading.Thread(target=mutator))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        svc.shutdown()

        assert not errors, errors
        assert not mismatches, mismatches
        assert mutated.is_set()
        stats = svc.cache_stats()
        assert stats.hits > 0, "repeated queries must hit the cache"
        assert stats.misses > 0
        # every reader finished all its queries
        assert sum(len(s.latency) for s in svc.sessions()) == 8 * 12

    NICK_QUERY = "//people/person/nick/text()"
    NICK_DOC = "<site><people><person><nick>Bo</nick></person></people></site>"

    def test_prepare_racing_mutations_never_uses_a_stale_memo(self, xmark_db):
        """Readers prepare while a writer adds a view and then a document
        whose new path makes a so far useless view serve a query.  The
        facts the search memoises per view are stamped with the summary
        generation, so any prepare *started after* the writer is done must
        plan exactly as a database built from scratch in the final state
        does."""
        queries = self.QUERIES + [self.NICK_QUERY]
        xmark_db.add_view("v_nick", "//person[id:s]{/nick[id:s, val]}")
        svc = QueryService(xmark_db, cache_capacity=16, max_workers=8)
        for query in queries:  # fill the per-view memos under the old state
            xmark_db.prepare(query)
        assert xmark_db.catalog["v_nick"].search_memo is not None
        errors: list = []
        stale: list = []
        late_prepares: list = []
        started = threading.Barrier(9)
        mutated = threading.Event()
        expected: dict = {}

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                started.wait()
                deadline = time.monotonic() + 60
                while len(late_prepares) < 40 and time.monotonic() < deadline:
                    query = rng.choice(queries)
                    settled = mutated.is_set()
                    try:
                        prepared = xmark_db.prepare(query)
                    except RuntimeError:
                        # the summary is re-finalized in place: a search
                        # overlapping that may see it unfinalized
                        assert not settled
                        continue
                    if settled:
                        late_prepares.append(query)
                        if prepared.fingerprint != expected[query]:
                            stale.append((seed, query))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((seed, error))

        def mutator() -> None:
            try:
                started.wait()
                time.sleep(0.02)  # land mid-run
                svc.add_view(
                    "v_closed",
                    "//closed_auctions/closed_auction[id:s]{/price[id:s, val]}",
                )
                svc.add_document_xml(self.NICK_DOC, "nick.xml")
                fresh = Database()
                fresh.add_documents(xmark_db.documents)
                for entry in xmark_db.catalog:
                    fresh.add_view(entry.name, entry.pattern)
                expected.update(
                    {query: fresh.prepare(query).fingerprint for query in queries}
                )
                mutated.set()
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(("mutator", error))
                mutated.set()

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(8)]
        threads.append(threading.Thread(target=mutator))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        svc.shutdown()

        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(late_prepares) >= 40 and self.NICK_QUERY in late_prepares
        assert not stale, stale
        # the new path did change a plan: the view now answers the query
        nick = xmark_db.prepare(self.NICK_QUERY)
        assert [r.access_path for unit in nick.units for r in unit.resolutions] == [
            "rewriting"
        ]

    def test_repeatable_across_runs(self, xmark_db):
        """The same mixed workload twice yields identical result sets —
        determinism independent of thread scheduling."""
        outcomes = []
        for _ in range(2):
            with QueryService(xmark_db, cache_capacity=8, max_workers=8) as svc:
                results = svc.run_batch(self.QUERIES * 4)
                outcomes.append([sorted(frozen(r)) for r in results])
        assert outcomes[0] == outcomes[1]

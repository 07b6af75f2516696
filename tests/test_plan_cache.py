"""Unit tests of the versioned LRU plan cache (engine/plan_cache.py)."""

import threading

from repro.engine.plan_cache import CacheStats, PlanCache, normalize_query


class TestNormalizeQuery:
    def test_whitespace_insensitive(self):
        assert normalize_query("  //a/b  ") == "//a/b"
        assert normalize_query("for  $x in\n//a\treturn $x") == (
            "for $x in //a return $x"
        )

    def test_identity_on_normal_text(self):
        assert normalize_query("//a/b/text()") == "//a/b/text()"


class TestLRU:
    def test_capacity_respected(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a becomes most recent
        cache.put("c", 3)  # evicts b, not a
        assert "a" in cache
        assert "b" not in cache

    def test_put_overwrites_without_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats().evictions == 0

    def test_minimum_capacity_enforced(self):
        try:
            PlanCache(capacity=0)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("capacity=0 should be rejected")


class TestVersioning:
    def test_version_mismatch_is_invalidation_and_miss(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "plan", version=1)
        value, outcome = cache.lookup("q", version=2)
        assert value is None and outcome == "stale"
        assert "q" not in cache  # stale entry dropped eagerly
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.misses == 1
        assert stats.hits == 0

    def test_same_version_hits(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "plan", version=7)
        value, outcome = cache.lookup("q", version=7)
        assert value == "plan" and outcome == "hit"

    def test_probe_hands_back_a_stale_entry_uncounted(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "plan", version=1)
        assert cache.probe("q", version=2) == ("plan", "stale")
        assert "q" in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 0)

    def test_settle_valid_restamps_as_a_hit(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "plan", version=1)
        value, _outcome = cache.probe("q", version=2)
        cache.settle("q", value, 2, valid=True)
        assert cache.lookup("q", version=2) == ("plan", "hit")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.revalidated) == (2, 0, 1)

    def test_settle_invalid_drops_as_a_miss(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "plan", version=1)
        value, _outcome = cache.probe("q", version=2)
        cache.settle("q", value, 2, valid=False)
        assert "q" not in cache
        stats = cache.stats()
        assert (stats.misses, stats.invalidations, stats.revalidated) == (1, 1, 0)

    def test_settle_leaves_a_concurrent_put_alone(self):
        cache = PlanCache(capacity=4)
        cache.put("q", "old", version=1)
        value, _outcome = cache.probe("q", version=2)
        cache.put("q", "new", version=2)
        cache.settle("q", value, 2, valid=False)
        assert cache.lookup("q", version=2) == ("new", "hit")

    def test_restamp_moves_the_stamp_uncounted(self):
        cache = PlanCache(capacity=4)
        cache.put("artifact", "closures", version=1)
        cache.restamp("artifact", 3)
        cache.restamp("absent", 3)
        assert cache.lookup("artifact", version=3) == ("closures", "hit")
        assert cache.stats().revalidated == 0

    def test_purge_stale_drops_only_old_versions(self):
        cache = PlanCache(capacity=8)
        cache.put("old1", 1, version=1)
        cache.put("old2", 2, version=1)
        cache.put("new", 3, version=2)
        assert cache.purge_stale(version=2) == 2
        assert cache.keys() == ["new"]
        assert cache.stats().invalidations == 2

    def test_clear_counts_invalidations(self):
        cache = PlanCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats().invalidations == 2


class TestStats:
    def test_counters_and_hit_rate(self):
        cache = PlanCache(capacity=2)
        cache.get("nope")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.size == 1 and stats.capacity == 2
        assert "hit_rate" in stats.as_dict()
        assert "size=1/2" in stats.render()

    def test_empty_hit_rate_is_zero(self):
        assert PlanCache().stats().hit_rate == 0.0


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = PlanCache(capacity=16)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    key = f"q{(seed * 7 + i) % 24}"
                    if i % 3 == 0:
                        cache.put(key, i, version=i % 2)
                    else:
                        cache.get(key, version=i % 2)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats.lookups + stats.invalidations > 0

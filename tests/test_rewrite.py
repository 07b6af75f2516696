"""Tests for the Chapter 5 rewriting engine: every §5.2 enabler, the
§5.5 plan→pattern machinery, and answer agreement with direct evaluation."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import evaluate_pattern, parse_pattern, rewrite_pattern
from repro.core.plan_pattern import GlueCondition, merged_patterns
from repro.engine import Store
from repro.storage import Catalog, materialize_view
from repro.summary import PathSummary, build_enhanced_summary
from repro.xmldata import load
from tests.rewrite_golden import CATALOG_14


AUCTION = (
    "<site><regions>"
    "<item><name>Fish</name><description><parlist>"
    "<listitem><keyword>rare</keyword><keyword>big</keyword></listitem>"
    "<listitem><text>plain</text></listitem>"
    "</parlist></description><mail>m</mail></item>"
    "<item><name>Rock</name><mail>m</mail></item>"
    "</regions></site>"
)


@pytest.fixture()
def env():
    doc = load(AUCTION)
    return doc, build_enhanced_summary(doc)


def setup_views(doc, views):
    store, catalog = Store(), Catalog()
    for name, text in views.items():
        materialize_view(name, text, doc, store, catalog)
    return store, catalog


def check_rewriting(rewriting, store, query, doc):
    got = sorted(t.freeze() for t in rewriting.plan.evaluate(store.context()))
    want = sorted(
        t.project(rewriting.plan.schema()).freeze()
        for t in evaluate_pattern(query, doc)
    )
    assert got == want, f"{rewriting} answers differ"


class TestSingleView:
    def test_identical_view(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//item[id:s]"})
        query = parse_pattern("//item[id:s]")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings and rewritings[0].kind == "single"
        check_rewriting(rewritings[0], store, query, doc)

    def test_summary_closes_path_gap(self, env):
        """//parlist/listitem answers //description//listitem because the
        summary forces the path (§5.2's third opportunity)."""
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//parlist/listitem[id:s]"})
        query = parse_pattern("//description//listitem[id:s]")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        check_rewriting(rewritings[0], store, query, doc)

    def test_gap_not_closable_without_summary(self, env):
        doc, _ = env
        loose = PathSummary.from_paths(
            ["/site/regions/item/description/parlist/listitem",
             "/site/regions/item/listitem"]
        )
        store, catalog = setup_views(doc, {"v": "//parlist/listitem[id:s]"})
        query = parse_pattern("//item//listitem[id:s]")
        assert rewrite_pattern(query, catalog, loose) == []

    def test_compensating_selection(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//keyword[id:s, val]"})
        query = parse_pattern('//keyword[id:s, val="rare"]')
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        assert "σ" in rewritings[0].plan.pretty() or "~" in rewritings[0].plan.pretty()
        check_rewriting(rewritings[0], store, query, doc)

    def test_view_predicate_must_be_weaker(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": '//keyword[id:s, val="big"]'})
        query = parse_pattern("//keyword[id:s]")
        assert rewrite_pattern(query, catalog, summary) == []

    def test_view_without_needed_attr_fails(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//keyword[id:s]"})
        query = parse_pattern("//keyword[id:s, val]")
        assert rewrite_pattern(query, catalog, summary) == []


class TestNavigation:
    def test_content_navigation(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//listitem[id:s, cont]"})
        query = parse_pattern("//listitem[id:s]{/keyword[val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        assert any("nav" in r.plan.pretty() for r in rewritings)
        for rewriting in rewritings:
            check_rewriting(rewriting, store, query, doc)

    def test_navigation_cannot_supply_ids(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"v": "//listitem[id:s, cont]"})
        query = parse_pattern("//listitem[id:s]{/keyword[id:s]}")
        assert rewrite_pattern(query, catalog, summary) == []


class TestJoins:
    def test_equality_join_on_shared_node(self, env):
        doc, summary = env
        store, catalog = setup_views(
            doc,
            {
                "names": "//item[id:s]{/name[id:s, val]}",
                "keywords": "//item[id:s]{//keyword[id:s, val]}",
            },
        )
        query = parse_pattern(
            "//item[id:s]{/name[id:s, val], //keyword[id:s, val]}"
        )
        rewritings = rewrite_pattern(query, catalog, summary)
        joins = [r for r in rewritings if r.kind == "join"]
        assert joins
        for rewriting in joins:
            check_rewriting(rewriting, store, query, doc)

    def test_structural_join_without_common_node(self, env):
        """§5.2: V1 and V2 have no common node but structural IDs let them
        combine."""
        doc, summary = env
        store, catalog = setup_views(
            doc,
            {"items": "//item[id:s]", "names": "//name[id:s, val]"},
        )
        query = parse_pattern("//item[id:s]{/name[val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        check_rewriting(rewritings[0], store, query, doc)

    def test_order_ids_cannot_join_structurally(self, env):
        doc, summary = env
        store, catalog = setup_views(
            doc,
            {"items": "//item[id:o]", "names": "//name[id:o, val]"},
        )
        query = parse_pattern("//item[id:o]{/name[val]}")
        assert rewrite_pattern(query, catalog, summary) == []


class TestParentDerivation:
    def test_dewey_ids_derive_missing_parents(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"lis": "//listitem[id:p]"})
        query = parse_pattern("//parlist[id:p]")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        assert "derive" in rewritings[0].plan.pretty()
        check_rewriting(rewritings[0], store, query, doc)

    def test_structural_ids_cannot_derive(self, env):
        doc, summary = env
        store, catalog = setup_views(doc, {"lis": "//listitem[id:s]"})
        query = parse_pattern("//parlist[id:s]")
        assert rewrite_pattern(query, catalog, summary) == []


class TestUnion:
    def test_union_of_path_partitions(self):
        doc = load("<a><b><c>1</c></b><d><c>2</c></d></a>")
        summary = build_enhanced_summary(doc)
        store, catalog = setup_views(
            doc, {"bc": "//b/c[id:s]", "dc": "//d/c[id:s]"}
        )
        query = parse_pattern("//a//c[id:s]")
        rewritings = rewrite_pattern(query, catalog, summary)
        unions = [r for r in rewritings if r.kind == "union"]
        assert unions
        check_rewriting(unions[0], store, query, doc)

    def test_incomplete_union_rejected(self):
        doc = load("<a><b><c>1</c></b><d><c>2</c></d><e><c>3</c></e></a>")
        summary = build_enhanced_summary(doc)
        store, catalog = setup_views(
            doc, {"bc": "//b/c[id:s]", "dc": "//d/c[id:s]"}
        )
        query = parse_pattern("//a//c[id:s]")
        assert [r for r in rewrite_pattern(query, catalog, summary) if r.kind == "union"] == []


class TestOptionalAndNested:
    def test_nested_view_serves_nested_query(self, env):
        doc, summary = env
        store, catalog = setup_views(
            doc, {"v": "//item[id:s]{/no:name[id:s, val]}"}
        )
        query = parse_pattern("//item[id:s]{/no:name[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        check_rewriting(rewritings[0], store, query, doc)

    def test_flat_view_regroups_into_nested_query(self, env):
        doc, summary = env
        store, catalog = setup_views(
            doc, {"v": "//item[id:s]{/o:name[id:s, val]}"}
        )
        query = parse_pattern("//item[id:s]{/no:name[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert rewritings
        assert "γⁿ" in rewritings[0].plan.pretty()
        check_rewriting(rewritings[0], store, query, doc)

    def test_strict_view_cannot_serve_optional_query(self, env):
        doc, summary = env
        # description is NOT on every item: a strict-join view loses items
        store, catalog = setup_views(
            doc, {"v": "//item[id:s]{//listitem[id:s]}"}
        )
        query = parse_pattern("//item[id:s]{//o:listitem[id:s]}")
        assert rewrite_pattern(query, catalog, summary) == []


class TestPlanPattern:
    def test_join_plan_expands_to_single_pattern_under_tight_summary(self, env):
        _doc, summary = env
        items = parse_pattern("//item[id:s]")
        names = parse_pattern("//name[id:s, val]")
        for node in items.nodes():
            node.name = "u0:" + node.name
        for node in names.nodes():
            node.name = "u1:" + node.name
        glue = GlueCondition("parent", 0, "u0:e1", 1, "u1:e1")
        union = list(merged_patterns([items, names], [glue], summary))
        assert len(union) == 1
        pattern, aliases = union[0]
        tags = [n.tag for n in pattern.nodes()]
        assert "item" in tags and "name" in tags

    def test_ambiguous_relation_yields_union(self):
        """§5.5's point: a plan may be equivalent only to a *union* of
        patterns (the same-label node occurs on two incomparable paths)."""
        summary = PathSummary.from_paths(["/a/b/c", "/a/c/b"])
        left = parse_pattern("//b[id:s]")
        right = parse_pattern("//c[id:s]")
        for node in left.nodes():
            node.name = "u0:" + node.name
        for node in right.nodes():
            node.name = "u1:" + node.name
        glue = GlueCondition("ancestor", 0, "u0:e1", 1, "u1:e1")
        union = list(merged_patterns([left, right], [glue], summary))
        assert len(union) == 1  # only /a/b/c has b above c
        glue_rev = GlueCondition("ancestor", 0, "u1:e1", 1, "u0:e1")
        union_rev = list(merged_patterns([right, left], [glue_rev], summary))
        assert len(union_rev) == 1


class TestEnumerationCap:
    """``max_results`` must truncate only after the final sort: stopping
    mid-enumeration made the returned set depend on catalog registration
    order, hiding cheaper rewritings registered late."""

    PAD_VIEW = "//item[id:s]{/o:name[id:s, val]}"  # flat; needs a regroup

    def _catalog(self, doc, pads):
        views = {f"pad{i}": self.PAD_VIEW for i in range(pads)}
        # registered last, so every pad (and every pad-pair join) is
        # enumerated before the one join that can use these:
        views["items"] = "//item[id:s]"
        views["names"] = "//name[id:s, val]"
        return setup_views(doc, views)

    def test_best_join_enumerated_last_survives_cap(self, env):
        doc, summary = env
        store, catalog = self._catalog(doc, pads=3)
        query = parse_pattern("//item[id:s]{/no:name[id:s, val]}")
        # 3 single rewritings (pads) come first in enumeration order, then
        # pad-pair joins — the items⨝names join is enumerated last.  The
        # old early break stopped join enumeration the moment the cap
        # filled, so that join was invisible at any cap it would have
        # sorted into.
        capped = rewrite_pattern(query, catalog, summary, max_results=5)
        assert len(capped) == 5
        assert ("items", "names") in [r.views for r in capped]
        check_rewriting(
            next(r for r in capped if r.views == ("items", "names")),
            store, query, doc,
        )

    def test_cap_is_postsort_prefix_of_full_enumeration(self, env):
        doc, summary = env
        store, catalog = self._catalog(doc, pads=3)
        query = parse_pattern("//item[id:s]{/no:name[id:s, val]}")
        full = rewrite_pattern(query, catalog, summary, max_results=None)
        assert len(full) > 5
        for cap in (1, 3, 5, len(full), len(full) + 10):
            capped = rewrite_pattern(query, catalog, summary, max_results=cap)
            assert [(r.kind, r.views) for r in capped] == [
                (r.kind, r.views) for r in full[:cap]
            ]

    def test_default_cap_still_bounds_the_result(self, env):
        doc, summary = env
        store, catalog = self._catalog(doc, pads=12)
        query = parse_pattern("//item[id:s]{/no:name[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert len(rewritings) == 10
        counts = [r.plan.operator_count() for r in rewritings]
        assert counts == sorted(counts)


class TestRanking:
    def test_plans_sorted_by_size(self, env):
        doc, summary = env
        store, catalog = setup_views(
            doc,
            {
                "exact": "//item[id:s]{/name[val]}",
                "items": "//item[id:s]",
                "names": "//name[id:s, val]",
            },
        )
        query = parse_pattern("//item[id:s]{/name[val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert len(rewritings) >= 2
        counts = [r.plan.operator_count() for r in rewritings]
        assert counts == sorted(counts)
        assert rewritings[0].views == ("exact",)


# ---------------------------------------------------------------------------
# The search does each piece of work once — and answers exactly as before
# ---------------------------------------------------------------------------

class TestGolden:
    def test_search_reproduces_the_pre_optimisation_answers(self):
        """Ordered rewritings (kind, views, signature) and every
        (view, query) / (query, view) containment verdict, byte for byte
        as recorded on the commit before the search was optimised."""
        from tests.rewrite_golden import GOLDEN_PATH, SEEDS, answers, render

        assert render({str(seed): answers(seed) for seed in SEEDS}) == (
            GOLDEN_PATH.read_text()
        )


class TestMembersOnDemand:
    """``_validate`` merges and tests a union's members one at a time; it
    must answer and count exactly as the eager reference, which merges
    every member before it tests any, on every candidate the search
    enumerates for the ``plan_cold`` battery (XMark scale 2, the 14-view
    catalog)."""

    def test_lazy_validation_matches_the_eager_reference(self, monkeypatch):
        import dataclasses
        from collections import Counter

        from repro.core import rewrite
        from repro.engine.qlog import rewriting_signature
        from repro.workloads import XMARK_QUERIES
        from repro.xquery import extract, parse_query
        from tests.reference import reference_validate
        from tests.rewrite_golden import VIEW_QUERIES, environment

        summary, catalog = environment(0)
        queries = {**VIEW_QUERIES, **XMARK_QUERIES}
        queries.pop("q07")  # in no bench battery
        lazy = rewrite._validate
        seen: Counter = Counter()

        def both(search, skeleton):
            # the reference runs on a twin of the search's mutable state
            twin = dataclasses.replace(
                search,
                stats=dataclasses.replace(search.stats),
                flattened=dict(search.flattened),
                verdicts=dict(search.verdicts),
            )
            expected = reference_validate(twin, skeleton)
            actual = lazy(search, skeleton)
            assert (actual is None) == (expected is None), skeleton.views
            assert search.stats == twin.stats, skeleton.views
            assert list(search.verdicts.items()) == list(twin.verdicts.items())
            if actual is not None:
                assert rewriting_signature(actual) == rewriting_signature(expected)
                assert [p.to_text() for p in actual.equivalent_patterns] == [
                    p.to_text() for p in expected.equivalent_patterns
                ]
                seen["members > 1"] += len(actual.equivalent_patterns) > 1
            seen[len(skeleton.uses), actual is not None] += 1
            return actual

        monkeypatch.setattr(rewrite, "_validate", both)
        for text in queries.values():
            for unit in extract(parse_query(text)).units:
                for pattern in unit.patterns:
                    rewrite_pattern(pattern, catalog, summary, max_results=None)
        # the battery reaches accepted and rejected joins, and unions of
        # several members, whose order the comparison pins
        assert seen[2, True] and seen[2, False] and seen["members > 1"]


class TestCheapestFirst:
    """``rewrite_pattern(cost=...)`` validates candidates cheapest first and
    stops early, yet the ranker picks from it exactly what it picks from
    the full enumeration — on the benchmark catalog, every catalog missing
    one view, and statistics that are unknown or poisoned."""

    #: views whose statistics are pinned far off, as in the optimize lane's
    #: poisoned database
    POISON = {"v_item": 1e9, "v_person": 1e9}

    @pytest.fixture(scope="class")
    def battery(self):
        from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_xmark
        from repro.xquery import extract, parse_query
        from tests.rewrite_golden import VIEW_QUERIES

        summary = build_enhanced_summary(generate_xmark(scale=2, seed=0))
        queries = {**VIEW_QUERIES, **XMARK_QUERIES, **DBLP_QUERIES}
        queries.pop("q07")  # in no bench battery
        patterns = [
            (qid, pattern)
            for qid, text in queries.items()
            for unit in extract(parse_query(text)).units
            for pattern in unit.patterns
        ]
        return summary, patterns

    @staticmethod
    def _statistics(catalog, summary, unknown=(), overrides=None):
        from repro.core.statistics import CatalogStatistics

        class Statistics(CatalogStatistics):
            def relation_size(self, name):
                if name in unknown:
                    return None
                return super().relation_size(name)

        return Statistics(catalog, summary, overrides=overrides)

    def _picks(self, summary, patterns, pool, **statistics):
        """Check every pattern; return ``{qid: picked views}``."""
        from functools import partial

        from repro.core.statistics import rank_rewritings, views_cost
        from repro.engine.qlog import rewriting_signature

        catalog = Catalog()
        for name, text in pool:
            catalog.register(name, text)
        provider = self._statistics(catalog, summary, **statistics)
        cost = partial(views_cost, statistics=provider)

        def best(rewritings):
            ranked = rank_rewritings(
                rewritings, catalog, summary, statistics=provider
            )
            return [(r.views, rewriting_signature(r)) for r in ranked[:1]]

        picks = {}
        for qid, pattern in patterns:
            full_relevant, cheap_relevant = [], []
            full = rewrite_pattern(
                pattern, catalog, summary, max_results=None, relevant=full_relevant
            )
            cheap = rewrite_pattern(
                pattern,
                catalog,
                summary,
                max_results=None,
                relevant=cheap_relevant,
                cost=cost,
            )
            assert best(cheap) == best(full), (qid, pattern.to_text())
            assert cheap_relevant == full_relevant, qid
            assert len(cheap) <= len(full)
            for views, _signature in best(cheap):
                picks[qid, pattern.to_text()] = views
        return picks

    def test_benchmark_catalog(self, battery):
        summary, patterns = battery
        assert len(self._picks(summary, patterns, CATALOG_14)) >= 10

    @pytest.mark.parametrize("left_out", [name for name, _text in CATALOG_14])
    def test_catalog_missing_one_view(self, battery, left_out):
        from repro.core.containment import PatternFacts
        from repro.core.rewrite import relevant_views

        summary, patterns = battery
        catalog = Catalog()
        for name, text in CATALOG_14:
            catalog.register(name, text)
        # a view irrelevant to a pattern changes none of its rewritings
        # (TestRelevance), so only the patterns it is relevant to can move
        affected = [
            (qid, pattern)
            for qid, pattern in patterns
            if any(
                entry.name == left_out
                for entry in relevant_views(PatternFacts(pattern, summary), catalog)
            )
        ]
        pool = [(name, text) for name, text in CATALOG_14 if name != left_out]
        self._picks(summary, affected, pool)

    def test_unknown_statistics(self, battery):
        summary, patterns = battery
        unknown = ("v_keywords", "v_initial")
        picks = self._picks(summary, patterns, CATALOG_14, unknown=unknown)
        # some pick reads a view without statistics: the search reached a
        # bucket with unknown > 0
        assert any(set(views) & set(unknown) for views in picks.values())

    def test_poisoned_statistics(self, battery):
        summary, patterns = battery
        honest = self._picks(summary, patterns, CATALOG_14)
        poisoned = self._picks(summary, patterns, CATALOG_14, overrides=self.POISON)
        assert honest != poisoned  # the poison moves some pick


@pytest.fixture(scope="module")
def xmark_env():
    from repro.workloads import generate_xmark

    return build_enhanced_summary(generate_xmark(scale=1, seed=5))


#: return-node labels the random patterns draw from: paths that overlap
#: partly (name, text, keyword occur under several parents), so that the
#: annotation filter both rejects and lets through
_RETURN_LABELS = ["name", "keyword", "text", "description", "item", "listitem"]


def _random_pattern(summary, seed, size, returns, labels, optional_probability):
    import random

    from repro.workloads import GeneratorConfig, generate_pattern
    from tests.rewrite_golden import MAX_EMBEDDINGS, embedding_count

    config = GeneratorConfig(
        return_labels=tuple(labels), optional_probability=optional_probability
    )
    pattern = generate_pattern(summary, size, returns, random.Random(seed), config)
    assume(embedding_count(pattern, summary) <= MAX_EMBEDDINGS)
    return pattern


class TestPreFilters:
    """The pre-filter may only reject what the decision procedure — the
    oracle — would have rejected."""

    _shape = dict(
        size=st.integers(2, 5),
        returns=st.integers(1, 2),
        labels=st.permutations(_RETURN_LABELS).map(lambda labels: labels[:2]),
        optional_probability=st.sampled_from([0.0, 0.3]),
    )

    @settings(max_examples=150, deadline=None)
    @given(seeds=st.tuples(*[st.integers(0, 10_000)] * 3), **_shape)
    def test_annotation_filter_rejects_only_non_containments(
        self, xmark_env, seeds, **shape
    ):
        from repro.core.containment import (
            PatternFacts,
            contained_in,
            may_be_contained,
        )

        pattern, *views = (
            PatternFacts(_random_pattern(xmark_env, seed, **shape), xmark_env)
            for seed in seeds
        )
        for container in ([views[0]], [views[1]], views):
            if not may_be_contained(pattern, container):
                assert not contained_in(pattern, container)
        # a pattern is contained in itself: the filter must let that through
        assert may_be_contained(pattern, [pattern])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), **_shape)
    def test_filter_never_changes_the_rewritings(self, xmark_env, seed, **shape):
        from repro.core import rewrite
        from repro.engine.qlog import rewriting_signature
        from tests.rewrite_golden import CATALOG_14

        query = _random_pattern(xmark_env, seed, **shape)

        def search() -> list:
            catalog = Catalog()
            for name, text in CATALOG_14:
                catalog.register(name, text)
            found = rewrite_pattern(query, catalog, xmark_env, max_results=None)
            return [(r.kind, r.views, rewriting_signature(r)) for r in found]

        filtered = search()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rewrite, "may_be_contained", lambda p, views: True)
            assert search() == filtered


class TestSearchStats:
    def _run(self, env, views, query):
        from repro.core.rewrite import SearchStats

        doc, summary = env
        _store, catalog = setup_views(doc, views)
        stats = SearchStats()
        rewrite_pattern(
            parse_pattern(query), catalog, summary, max_results=None, stats=stats
        )
        return stats

    def test_counts_repeat_exactly(self, env):
        views = {"items": "//item[id:s]", "names": "//name[id:s, val]"}
        query = "//item[id:s]{/no:name[id:s, val]}"
        first, second = self._run(env, views, query), self._run(env, views, query)
        assert first == second
        assert first.containment_tests > 0

    def test_annotation_prefilter_is_counted(self, env):
        # "mails" reaches no path the query's return node takes
        stats = self._run(
            env,
            {"mails": "//mail[id:s, val]", "names": "//name[id:s, val]"},
            "//name[id:s, val]",
        )
        assert stats.prefilter_rejected > 0

    def test_product_truncation_is_counted(self):
        from repro.core import rewrite
        from repro.core.rewrite import SearchStats

        stats = SearchStats()
        # 9 options for each of 2 return nodes = 81 > 64 combinations
        combos = rewrite._product([list(range(9)), list(range(9))], stats)
        assert len(combos) == rewrite.MAX_COMBINATIONS
        assert stats.product_truncated == 1

    def test_psi_cap_is_counted(self, env, monkeypatch):
        from repro.core import containment

        monkeypatch.setattr(containment, "MAX_PSI_ASSIGNMENTS", 0)
        stats = self._run(
            env,
            {"cheap": "//item[id:s]{/name[val=Fish]}"},
            "//item[id:s]{/name[val=Rock]}",
        )
        assert stats.psi_capped > 0

    def test_memoised_view_facts_are_counted(self, env):
        from repro.core.rewrite import SearchStats

        doc, summary = env
        _store, catalog = setup_views(doc, {"names": "//name[id:s, val]"})
        query = parse_pattern("//name[id:s, val]")
        cold, warm = SearchStats(), SearchStats()
        rewrite_pattern(query, catalog, summary, stats=cold)
        rewrite_pattern(query, catalog, summary, stats=warm)
        assert warm.memo_hits == cold.memo_hits + 1  # the one view's facts


class TestViewMemoLifetime:
    """Facts kept on a catalog entry are functions of (view pattern,
    summary generation) and must die with either."""

    NICK_VIEW = "//person[id:s]{/nick[id:s, val]}"
    NICK_QUERY = "//person[id:s]{/nick[id:s, val]}"

    def _db(self):
        from repro import Database

        db = Database.from_xml(
            "<site><people><person><name>Ann</name></person></people></site>"
        )
        db.add_view("v_nick", self.NICK_VIEW)
        db.add_view("v_names", "//name[id:s, val]")
        return db

    def test_new_summary_path_revives_a_useless_view(self):
        db = self._db()
        assert db.rewrite("//name[id:s, val]")  # fills v_nick's memo too
        stale = db.catalog["v_nick"].search_memo
        assert stale is not None and stale.annotations  # filled: no nick path
        assert db.rewrite(self.NICK_QUERY) == []
        db.add_document_xml(
            "<site><people><person><nick>Bo</nick></person></people></site>",
            "nick.xml",
        )
        found = db.rewrite(self.NICK_QUERY)
        assert [r.views for r in found][:1] == [("v_nick",)]
        fresh = db.catalog["v_nick"].search_memo
        assert fresh is not stale and fresh.current_for(db.summary)
        assert not stale.current_for(db.summary)

    def test_reannotated_edges_start_a_new_generation(self, env):
        doc, summary = env
        _store, catalog = setup_views(doc, {"names": "//name[id:s, val]"})
        rewrite_pattern(parse_pattern("//name[id:s, val]"), catalog, summary)
        memo = catalog["names"].search_memo
        summary.node_for_path("/site/regions/item/mail").edge_annotation = "*"
        assert not memo.current_for(summary)

    def test_drop_and_reregister_under_the_same_name(self):
        db = self._db()
        query = "//name[id:s, val]"
        assert [r.views for r in db.rewrite(query)] == [("v_names",)]
        db.drop_view("v_names")
        assert db.rewrite(query) == []
        # same name, different pattern: nothing of the old entry survives
        db.add_view("v_names", "//person[id:s]")
        assert db.catalog["v_names"].search_memo is None
        assert db.rewrite(query) == []
        assert [r.views for r in db.rewrite("//person[id:s]")] == [("v_names",)]

    def test_memo_is_per_summary(self, env):
        doc, summary = env
        _store, catalog = setup_views(doc, {"names": "//name[id:s, val]"})
        query = parse_pattern("//name[id:s, val]")
        assert rewrite_pattern(query, catalog, summary)
        other = PathSummary.from_paths(["/site/people/person/name"])
        assert rewrite_pattern(query, catalog, other)
        assert catalog["names"].search_memo.summary is other


# ---------------------------------------------------------------------------
# Relevance: which views a search could use
# ---------------------------------------------------------------------------

class TestRelevance:
    """A view the relevance predicate calls irrelevant to a pattern changes
    none of its rewritings: the search over the catalog with and without
    that view answers the same.  This is what lets a cached plan survive
    the view's mutation."""

    #: the view mutate_mix adds and drops
    LOCATION = ("v_location", "//location[id:s, val]")
    #: the three places a <name> occurs in XMark: with them, //name has
    #: union rewritings
    NAME_PARTS = [
        ("v_item_name", "//item/name[id:s, val]"),
        ("v_category_name", "//category/name[id:s, val]"),
        ("v_person_name", "//person/name[id:s, val]"),
    ]

    @pytest.fixture(scope="class")
    def summary(self):
        from repro.workloads import generate_xmark

        return build_enhanced_summary(generate_xmark(scale=1, seed=0))

    @staticmethod
    def _search(pattern, pool, summary, relevant=None):
        from repro.engine.qlog import rewriting_signature

        catalog = Catalog()
        for name, text in pool:
            catalog.register(name, text)
        found = rewrite_pattern(
            pattern, catalog, summary, max_results=None, relevant=relevant
        )
        answer = [[r.kind, list(r.views), rewriting_signature(r)] for r in found]
        return answer, catalog

    def _irrelevant_views_change_nothing(self, pattern, pool, summary) -> set:
        """Check every view of ``pool`` the predicate calls irrelevant;
        returns the rewriting kinds those checks covered."""
        from repro.core import rewrite
        from repro.core.containment import PatternFacts
        from repro.core.rewrite import relevant_views

        reported: list = []
        answer, catalog = self._search(pattern, pool, summary, reported)
        # the search reports exactly what the predicate computes on its own
        assert reported == relevant_views(PatternFacts(pattern, summary), catalog)
        # ... and searching every view instead finds nothing more
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                rewrite, "_relevant_views", lambda search, candidates: search.views
            )
            assert self._search(pattern, pool, summary)[0] == answer
        relevant = {entry.name for entry in reported}
        covered: set = set()
        for index, (name, _text) in enumerate(pool):
            if name in relevant:
                continue
            without, _catalog = self._search(
                pattern, pool[:index] + pool[index + 1 :], summary
            )
            assert without == answer, f"{name} changed {pattern.to_text()}"
            covered.update(kind for kind, _views, _signature in answer)
        return covered

    def test_irrelevant_views_change_no_rewriting(self, summary):
        from repro.workloads import generate_patterns
        from tests.rewrite_golden import CATALOG_14, MAX_EMBEDDINGS, embedding_count

        pool = CATALOG_14 + [self.LOCATION]
        patterns = [
            # a pair-plan case: open_auction IDs from one view, initial
            # values from another
            parse_pattern("//open_auctions/open_auction[id:s]{/initial[val]}"),
            # v_descr serves the keywords only by navigating its content
            parse_pattern("//description//keyword[val]"),
        ]
        for size, returns in ((3, 1), (4, 2)):
            generated = generate_patterns(summary, size, returns, 8, seed=size)
            affordable = [
                pattern
                for pattern in generated
                if embedding_count(pattern, summary) <= MAX_EMBEDDINGS // 4
            ]
            patterns.extend(affordable[:3])
        covered = set()
        for pattern in patterns:
            covered |= self._irrelevant_views_change_nothing(pattern, pool, summary)
        assert "join" in covered and "single" in covered

    def test_irrelevant_views_change_no_union(self, summary):
        from tests.rewrite_golden import CATALOG_14

        pool = CATALOG_14 + [self.LOCATION] + self.NAME_PARTS
        pattern = parse_pattern("//name[id:s, val]")
        assert "union" in self._irrelevant_views_change_nothing(pattern, pool, summary)

    def test_union_member_that_serves_nothing_is_relevant(self):
        """A view contained in the query can join a union without serving
        any return node (here: an unsatisfiable one, contained in
        everything) — the predicate's second half keeps it relevant."""
        from repro.core.containment import PatternFacts
        from repro.core.rewrite import view_is_relevant

        doc = load("<a><b><c>1</c></b><d><c>2</c></d></a>")
        summary = build_enhanced_summary(doc)
        query = PatternFacts(parse_pattern("//a//c[id:s]"), summary)
        catalog = Catalog()
        empty = catalog.register("empty", "//e/c[id:s]")
        other = catalog.register("other", "//b[id:s]")
        assert view_is_relevant(query, empty, PatternFacts(empty.pattern, summary))
        assert not view_is_relevant(query, other, PatternFacts(other.pattern, summary))

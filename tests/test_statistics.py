"""Tests for summary-based cardinality estimation and rewriting ranking."""

import pytest

from repro.core import evaluate_pattern, parse_pattern, pattern_from_path, rewrite_pattern
from repro.core.statistics import (
    estimate_pattern_cardinality,
    estimate_view_size,
    rank_rewritings,
)
from repro.engine import Store
from repro.storage import Catalog, materialize_view
from repro.summary import build_enhanced_summary
from repro.xmldata import load


@pytest.fixture()
def env():
    doc = load(
        "<lib>"
        + "".join(
            f"<book><title>T{i}</title><author>A</author><author>B</author></book>"
            for i in range(10)
        )
        + "<journal><title>J</title></journal></lib>"
    )
    return doc, build_enhanced_summary(doc)


class TestEstimates:
    def test_exact_on_single_path(self, env):
        doc, summary = env
        pattern = pattern_from_path("//book")
        estimate = estimate_pattern_cardinality(pattern, summary)
        assert estimate.expected == pytest.approx(10)

    def test_join_multiplies_children_per_parent(self, env):
        doc, summary = env
        pattern = parse_pattern("//book[id:s]{/author[id:s]}")
        estimate = estimate_pattern_cardinality(pattern, summary)
        actual = len(evaluate_pattern(pattern, doc))
        assert estimate.expected == pytest.approx(actual)  # 20 pairs

    def test_semijoin_filters_instead_of_multiplying(self, env):
        doc, summary = env
        pattern = parse_pattern("//book[id:s]{/s:author}")
        estimate = estimate_pattern_cardinality(pattern, summary)
        assert estimate.expected == pytest.approx(10)

    def test_outer_join_never_drops_parents(self, env):
        doc, summary = env
        # journals have no authors; //*{/o:author} keeps them
        pattern = parse_pattern("//title[id:s]{/o:missing}")
        estimate = estimate_pattern_cardinality(pattern, summary)
        assert estimate.expected >= 10

    def test_nested_edge_keeps_parent_multiplicity(self, env):
        doc, summary = env
        pattern = parse_pattern("//book[id:s]{/nj:author[val]}")
        estimate = estimate_pattern_cardinality(pattern, summary)
        assert estimate.expected == pytest.approx(10)

    def test_predicates_apply_selectivity(self, env):
        doc, summary = env
        plain = estimate_pattern_cardinality(
            pattern_from_path("//title", store=("V",)), summary
        )
        filtered = estimate_pattern_cardinality(
            pattern_from_path("//title", store=("V",), value_equals="T1"), summary
        )
        assert filtered.expected < plain.expected

    def test_multiple_embeddings_sum(self, env):
        doc, summary = env
        pattern = pattern_from_path("//title")
        estimate = estimate_pattern_cardinality(pattern, summary)
        assert len(estimate.per_embedding) == 2  # book/title + journal/title
        assert estimate.expected == pytest.approx(11)

    def test_view_size_matches_materialization(self, env):
        doc, summary = env
        store, catalog = Store(), Catalog()
        entry = materialize_view("v", "//book[id:s]", doc, store, catalog)
        assert estimate_view_size(entry.pattern, summary) == pytest.approx(
            len(store["v"])
        )


class TestRanking:
    def test_prefers_smaller_views(self, env):
        doc, summary = env
        store, catalog = Store(), Catalog()
        # two single-view rewritings for //book: one exact view, one via
        # a bigger view set joined structurally
        materialize_view("small", "//book[id:s]{/title[id:s, val]}", doc, store, catalog)
        materialize_view("books", "//book[id:s]", doc, store, catalog)
        materialize_view("titles", "//title[id:s, val]", doc, store, catalog)
        query = parse_pattern("//book[id:s]{/title[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary)
        assert len(rewritings) >= 2
        ranked = rank_rewritings(rewritings, catalog, summary, store)
        assert ranked[0].views == ("small",)

    def test_statistics_less_view_still_beats_full_base_scan(self, env):
        """A view with *unknown* statistics must not poison its plan's
        cost to infinity.  Two joins both touch the stats-less ``books``
        view; one partner is tiny, the other is a scan of everything.
        Under the old ``inf`` pricing both plans collapsed to infinite
        volume and the tie fell to enumeration order — which put the full
        scan first.  The ``(unknown, known_volume, ops)`` key lets the
        known part of the plan separate them."""
        doc, summary = env
        store, catalog = Store(), Catalog()
        materialize_view("books", "//book[id:s]", doc, store, catalog)
        # twin title views: only the pinned sizes differ
        materialize_view("base_scan", "//title[id:s, val]", doc, store, catalog)
        materialize_view("titles", "//title[id:s, val]", doc, store, catalog)

        class Stub:
            def relation_size(self, name):
                return {"base_scan": 100000.0, "titles": 5.0}.get(name)

            def pattern_cardinality(self, pattern):
                return None

        query = parse_pattern("//book[id:s]{/title[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary, max_results=None)
        joins = [r for r in rewritings if "books" in r.views]
        assert {("books", "base_scan"), ("books", "titles")} <= {
            r.views for r in joins
        }
        ranked = rank_rewritings(joins, catalog, summary, statistics=Stub())
        assert ranked[0].views == ("books", "titles")

    def test_fewer_unknown_views_rank_first(self, env):
        """Rewritings touching fewer statistics-less views win outright;
        among all-unknown plans the smallest plan wins — deterministic
        order even under a complete statistics blackout."""
        doc, summary = env
        store, catalog = Store(), Catalog()
        materialize_view("small", "//book[id:s]{/title[id:s, val]}", doc, store, catalog)
        materialize_view("books", "//book[id:s]", doc, store, catalog)
        materialize_view("titles", "//title[id:s, val]", doc, store, catalog)

        class Blackout:
            def relation_size(self, name):
                return None

            def pattern_cardinality(self, pattern):
                return None

        query = parse_pattern("//book[id:s]{/title[id:s, val]}")
        rewritings = rewrite_pattern(query, catalog, summary, max_results=None)
        ranked = rank_rewritings(
            rewritings, catalog, summary, statistics=Blackout()
        )
        # single-view exact match: one unknown view and the fewest
        # operators — first under the new key, inf-tied before
        assert ranked[0].views == ("small",)

        class TitlesKnown:
            def relation_size(self, name):
                return 11.0 if name == "titles" else None

            def pattern_cardinality(self, pattern):
                return None

        join_pairs = [r for r in rewritings if len(r.views) == 2]
        assert join_pairs
        mixed = rank_rewritings(
            join_pairs, catalog, summary, statistics=TitlesKnown()
        )
        # ("books","titles") has one unknown view; all-unknown pairs have
        # two — unknown count dominates the ordering
        assert "titles" in mixed[0].views

    def test_estimated_and_actual_ranking_agree_here(self, env):
        doc, summary = env
        store, catalog = Store(), Catalog()
        materialize_view("small", "//journal[id:s]", doc, store, catalog)
        materialize_view("big", "//book[id:s]", doc, store, catalog)
        query = parse_pattern("//journal[id:s]")
        rewritings = rewrite_pattern(query, catalog, summary)
        with_store = rank_rewritings(rewritings, catalog, summary, store)
        without = rank_rewritings(rewritings, catalog, summary)
        assert [r.views for r in with_store] == [r.views for r in without]


def generic_estimate(pattern, summary):
    """``estimate_pattern_cardinality`` over the unpruned generic walk."""
    from repro.core.canonical import admits_label
    from repro.core.embedding import iter_embeddings
    from repro.core.statistics import DEFAULT_PREDICATE_SELECTIVITY, _estimate_embedding

    estimates, seen = [], set()
    for embedding in iter_embeddings(
        pattern,
        summary.root,
        lambda snode: list(snode.children.values()),
        lambda node, snode: admits_label(node, snode.label),
    ):
        key = tuple(
            (node.name, snode.number if snode is not None else None)
            for node, snode in sorted(embedding.items(), key=lambda kv: kv[0].name)
        )
        if key not in seen:
            seen.add(key)
            estimates.append(
                _estimate_embedding(pattern, embedding, DEFAULT_PREDICATE_SELECTIVITY)
            )
    return sum(estimates), tuple(estimates)


class TestOneEstimatePerPattern:
    def test_pruned_walk_is_bit_identical(self):
        """``//`` steps skip summary subtrees without the sought label but
        keep the generic walk's order, so every sum is the same float."""
        from tests.rewrite_golden import battery, environment

        summary, catalog = environment(0)
        patterns = [pattern for _id, pattern in battery(summary, 0)]
        patterns += [entry.pattern for entry in catalog.views()]
        for pattern in patterns:
            estimate = estimate_pattern_cardinality(pattern, summary)
            assert (estimate.expected, estimate.per_embedding) == generic_estimate(
                pattern, summary
            ), pattern.to_text()

    def test_prepare_estimates_each_pattern_once(self, monkeypatch):
        """The resolution's estimate serves the compiled plan's
        ``PatternAccess`` too; an override still wins over the kept one."""
        from repro import Database
        from repro.core import statistics

        calls = []
        original = statistics.estimate_pattern_cardinality

        def counting(pattern, summary, *args):
            calls.append(pattern.to_text())
            return original(pattern, summary, *args)

        monkeypatch.setattr(statistics, "estimate_pattern_cardinality", counting)
        db = Database()
        db.add_document_xml("<lib><book><title>T</title></book></lib>")
        db.add_view("v", "//book[id:s]{/title[id:s, val]}")
        ctx = db.execution_context()
        prepared = db.prepare(
            "for $b in //book return <r>{ $b/title/text() }</r>", context=ctx
        )
        patterns = [r.pattern for unit in prepared.units for r in unit.resolutions]
        assert sorted(calls) == sorted(pattern.to_text() for pattern in patterns)
        ctx.statistics.overrides[patterns[0].to_text()] = 7
        assert ctx.statistics.pattern_cardinality(patterns[0]) == 7.0

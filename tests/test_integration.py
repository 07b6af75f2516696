"""Cross-module integration tests: the full pipeline on synthetic XMark
data, all storage models side by side, and physical-engine execution of
rewritten plans."""

import pytest

from repro import Database
from repro.core import evaluate_pattern, is_equivalent, parse_pattern
from repro.engine import Store
from repro.storage import (
    Catalog,
    build_path_partitioned_store,
    build_tag_partitioned_store,
    materialize_view,
)
from repro.summary import build_enhanced_summary
from repro.workloads import XMARK_QUERIES, generate_xmark
from repro.xquery import collections_context, alg_path, parse_query
from tests.conftest import run_plan
from tests.reference import reference_query


@pytest.fixture(scope="module")
def xdb(xmark_doc):
    db = Database()
    db.add_document(xmark_doc)
    return db


class TestXMarkEndToEnd:
    QUERIES = [
        "q01", "q02", "q05", "q06", "q10", "q13", "q17", "q18", "q19",
    ]

    @pytest.mark.parametrize("query_id", QUERIES)
    def test_base_store_answers_xmark_queries(self, xdb, query_id):
        result = xdb.query(XMARK_QUERIES[query_id])
        assert result.xml or result.values or result.tuples == []

    def test_views_preserve_answers_on_xmark(self, xmark_doc):
        db = Database()
        db.add_document(xmark_doc)
        query = "for $i in //regions//item return <out>{ $i/name/text() }</out>"
        baseline = db.query(query, prefer_views=False)
        db.add_view("item_names", "//item[id:s]{/o:name[id:s, val]}")
        rewritten = db.query(query)
        assert rewritten.used_views == ["item_names"]
        assert rewritten.xml == baseline.xml

    def test_physical_and_logical_agree_on_views(self, xmark_doc):
        db = Database()
        db.add_document(xmark_doc)
        db.add_view("item_names", "//item[id:s]{/o:name[id:s, val]}")
        query = "//item/name/text()"
        physical = db.query(query)
        assert physical.values == reference_query(db, query).values


class TestStorageModelAgreement:
    """The same query answered from tag- and path-partitioned stores."""

    def answer_from_tag_store(self, doc):
        store, catalog = Store(), Catalog()
        build_tag_partitioned_store(doc, store, catalog)
        from repro.algebra import Project, Scan, StructuralJoin

        def scan(name, alias):
            return Project(
                Scan(name, ["ID"]), [f"{alias}.ID"], sources={f"{alias}.ID": "ID"}
            )

        plan = StructuralJoin(
            scan("tag_book", "b"), scan("tag_title", "t"), "b.ID", "t.ID", axis="child"
        )
        return {t["t.ID"] for t in run_plan(plan, store.context(), store.scan_orders())}

    def answer_from_path_store(self, doc, summary):
        store, catalog = Store(), Catalog()
        build_path_partitioned_store(doc, store, catalog, summary)
        title = summary.node_for_path("/library/book/title")
        return {t["ID"] for t in store[f"path_{title.number}"]}

    def test_same_ids_from_both_stores(self, bib_doc, bib_summary):
        assert self.answer_from_tag_store(bib_doc) == self.answer_from_path_store(
            bib_doc, bib_summary
        )

    def test_pattern_evaluation_is_the_reference(self, bib_doc):
        pattern = parse_pattern("//book{/title[id:s]}")
        reference = {
            t["e2.ID"] for t in evaluate_pattern(pattern, bib_doc)
        }
        assert reference == self.answer_from_tag_store(bib_doc)


class TestPathTranslationOnXMark:
    @pytest.mark.parametrize(
        "text",
        [
            "//regions//item/name/text()",
            "//people/person/emailaddress/text()",
            "//open_auctions/open_auction/initial/text()",
        ],
    )
    def test_alg_path_matches_database(self, xmark_doc, text):
        db = Database()
        db.add_document(xmark_doc)
        via_db = sorted(db.query(text).values)
        plan = alg_path(parse_query(text))
        ctx = collections_context(xmark_doc)
        via_algebra = sorted(
            v for t in plan.evaluate(ctx) for v in t.attrs.values() if v is not None
        )
        assert via_db == via_algebra


class TestContainmentRewritingConsistency:
    """If the rewriter accepts a single-view plan, the view pattern and
    query pattern must be provably related; spot-check the converse too."""

    def test_equivalent_views_always_rewrite(self, xmark_doc, xmark_summary):
        store, catalog = Store(), Catalog()
        query = parse_pattern("//regions//item[id:s]")
        view = parse_pattern("//regions//item[id:s]")
        materialize_view("v", view, xmark_doc, store, catalog)
        assert is_equivalent(query, view, xmark_summary)
        from repro.core import rewrite_pattern

        assert rewrite_pattern(query, catalog, xmark_summary)

    def test_rewriting_answers_match_on_xmark(self, xmark_doc, xmark_summary):
        from repro.core import rewrite_pattern

        store, catalog = Store(), Catalog()
        materialize_view(
            "v", "//person[id:s]{/o:emailaddress[id:s, val]}", xmark_doc, store, catalog
        )
        query = parse_pattern("//person[id:s]{/emailaddress[val]}")
        rewritings = rewrite_pattern(query, catalog, xmark_summary)
        assert rewritings
        got = sorted(
            t.freeze() for t in rewritings[0].plan.evaluate(store.context())
        )
        want = sorted(
            t.project(rewritings[0].plan.schema()).freeze()
            for t in evaluate_pattern(query, xmark_doc)
        )
        assert got == want

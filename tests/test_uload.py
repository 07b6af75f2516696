"""Tests for the ULoad facade: end-to-end physical data independence.

The key invariant: for any query in the battery, the answer is the same
whether it is computed from the base store or from whatever views the
catalog happens to hold — only the access paths change.
"""

import pytest

from repro import Database
from tests.conftest import AUCTION_XML, BIB_XML
from tests.reference import reference_query

QUERY_BATTERY = [
    "//item/name/text()",
    "//regions//item",
    "for $x in //item return <res>{ $x/name/text() }</res>",
    "for $x in //item[mail] return <res>{ $x/name/text() }</res>",
    "for $x in //item return <res>{ $x/name/text(), for $y in $x//listitem return <key>{ $y/keyword }</key> }</res>",
    "for $x in //listitem where $x/keyword = 'rare' return <hit>{ $x/keyword/text() }</hit>",
]

VIEW_SETS = {
    "exact-nested": {
        "items_full": "//item[id:s]{/s:mail, /no:name[val], //no:listitem[id:s]{/no:keyword[cont]}}",
        "items_plain": "//item[id:s, cont]",
        "names": "//item[id:s]{/o:name[id:s, val]}",
        "listitems": "//listitem[id:s, cont]{/o:keyword[id:s, val]}",
    },
    "fragmented": {
        "items": "//item[id:s, cont]",
        "names2": "//name[id:s, val]",
        "listitems2": "//listitem[id:s, cont]",
        "keywords": "//keyword[id:s, val, cont]",
    },
}


@pytest.fixture()
def db():
    return Database.from_xml(AUCTION_XML, "auction.xml")


class TestBaseline:
    def test_base_store_answers(self, db):
        result = db.query("//item/name/text()")
        assert result.values == ["Fish", "Rock"]
        assert result.used_views == []

    def test_flwr_with_construction(self, db):
        result = db.query(
            "for $x in //item return <res>{ $x/name/text() }</res>"
        )
        assert result.xml == ["<res>Fish</res>", "<res>Rock</res>"]

    def test_explain_reports_base(self, db):
        (resolution,) = db.explain("//item/name/text()")
        assert resolution.access_path == "base"


class TestIndependence:
    @pytest.mark.parametrize("view_set", sorted(VIEW_SETS))
    @pytest.mark.parametrize("query", QUERY_BATTERY)
    def test_same_answer_under_any_view_set(self, db, view_set, query):
        baseline = db.query(query, prefer_views=False)
        for name, text in VIEW_SETS[view_set].items():
            db.add_view(name, text)
        with_views = db.query(query)
        assert with_views.xml == baseline.xml
        assert with_views.values == baseline.values

    def test_views_actually_used_when_available(self, db):
        db.add_view("names", "//item[id:s]{/o:name[id:s, val]}")
        result = db.query("//item/name/text()")
        assert result.used_views == ["names"]

    def test_dropping_a_view_changes_access_path(self, db):
        db.add_view("names", "//item[id:s]{/o:name[id:s, val]}")
        assert db.query("//item/name/text()").used_views == ["names"]
        db.drop_view("names")
        assert db.query("//item/name/text()").used_views == []

    def test_prefer_views_false_forces_base(self, db):
        db.add_view("names", "//item[id:s]{/o:name[id:s, val]}")
        result = db.query("//item/name/text()", prefer_views=False)
        assert result.used_views == []


class TestPhysicalEngine:
    def test_physical_execution_matches_logical(self, db):
        db.add_view("names", "//item[id:s]{/o:name[id:s, val]}")
        logical = reference_query(db, "//item/name/text()")
        physical = db.query("//item/name/text()")
        assert logical.values == physical.values
        assert physical.used_views == ["names"]


class TestRewriteAPI:
    def test_rewrite_exposed(self, db):
        db.add_view("items", "//item[id:s]")
        rewritings = db.rewrite("//item[id:s]")
        assert rewritings and rewritings[0].views == ("items",)

    def test_rewrite_accepts_patterns(self, db):
        from repro.core import parse_pattern

        db.add_view("items", "//item[id:s]")
        assert db.rewrite(parse_pattern("//item[id:s]"))


class TestMultipleDocuments:
    def test_summary_and_views_cover_all_documents(self):
        db = Database()
        db.add_document_xml("<r><a>1</a></r>", "one.xml")
        db.add_document_xml("<r><a>2</a><b/></r>", "two.xml")
        db.add_view("as", "//a[id:s, val]")
        result = db.query("//a/text()")
        assert sorted(result.values) == ["1", "2"]
        assert result.used_views == ["as"]


class TestBibliography:
    def test_bib_queries(self):
        db = Database.from_xml(BIB_XML, "bib.xml")
        db.add_view("titles", "//book[id:s]{/title[id:s, val]}")
        result = db.query("//book/title/text()")
        assert result.values == ["Data on the Web", "The Syntactic Web"]
        assert result.used_views == ["titles"]

    def test_filtered_bib_query(self):
        db = Database.from_xml(BIB_XML, "bib.xml")
        base = db.query(
            'for $b in //book where $b/title = "Data on the Web" return <hit>{ $b/author/text() }</hit>'
        )
        assert base.xml == ["<hit>AbiteboulSuciu</hit>"]

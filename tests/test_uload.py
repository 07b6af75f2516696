"""Tests for the ULoad facade: end-to-end physical data independence.

The key invariant: for any query in the battery, the answer is the same
whether it is computed from the base store or from whatever views the
catalog happens to hold — only the access paths change.
"""

import gc
import types

import pytest

from repro import Database, QueryService
from repro.core import embedding, parse_pattern, uload
from repro.core.embedding import evaluate_pattern
from repro.engine.plan_cache import normalize_query
from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_dblp, generate_xmark
from repro.xmldata import Document, XMLNode, load
from repro.xmldata.node import TagIndex
from tests.conftest import AUCTION_XML, BIB_XML
from tests.reference import reference_query
from tests.rewrite_golden import VIEW_QUERIES

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


class TestCorpusWideAnnotations:
    """Summary edge annotations hold over every document, in whatever
    order the documents are loaded (thesis §4.2.2)."""

    #: in ``A`` one person has no emailaddress; in ``B`` the only one has
    A = (
        "<site><people><person><name>Ann</name></person>"
        "<person><name>Bob</name><emailaddress>b@x</emailaddress></person>"
        "</people></site>"
    )
    B = (
        "<site><people><person><name>Cy</name>"
        "<emailaddress>c@x</emailaddress></person></people></site>"
    )
    QUERY = "for $p in //people/person return <r>{ $p/name/text() }</r>"

    @pytest.mark.parametrize("bulk", [False, True], ids=["one-by-one", "bulk"])
    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_view_answer_equals_the_base_store(self, order, bulk):
        docs = [load(getattr(self, name), f"{name}.xml") for name in order.upper()]
        db = Database()
        if bulk:
            db.add_documents(docs)
        else:
            for doc in docs:
                db.add_document(doc)
        db.add_view("v", "//people/person[id:s]{/name[id:s, val], /emailaddress}")
        edge = db.summary.node_for_path("/site/people/person/emailaddress")
        assert edge.edge_annotation == "*"
        expected = ["<r>Ann</r>", "<r>Bob</r>", "<r>Cy</r>"]
        assert sorted(db.query(self.QUERY, prefer_views=False).xml) == expected
        assert sorted(db.query(self.QUERY).xml) == expected


def counting_compiles(monkeypatch) -> list:
    """Count :func:`compile_pattern` calls, wherever they are made from;
    returns the list of compiled pattern texts."""
    calls: list = []
    original = embedding.compile_pattern

    def counted(pattern):
        calls.append(pattern.to_text())
        return original(pattern)

    monkeypatch.setattr(embedding, "compile_pattern", counted)
    monkeypatch.setattr(uload, "compile_pattern", counted)
    return calls


def reachable(root) -> list:
    """What a closure tree holds: cells, defaults, bound receivers and
    containers are followed, a function's globals are not."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, types.MethodType):
            stack.extend((obj.__self__, obj.__func__))
        else:
            stack.extend(gc.get_referents(obj))
    return found


def base_plans(prepared):
    """``(pattern, evaluator)`` of every base-store resolution."""
    return [
        (resolution.pattern, unit.base_evaluators[index])
        for unit in prepared.units
        for index, resolution in enumerate(unit.resolutions)
        if resolution.rewriting is None
    ]


class TestBaseEvaluators:
    """A base-store pattern is compiled once, when its plan is prepared,
    and the plan's evaluator serves every document and execution."""

    QUERY = XMARK_QUERIES["q04"]

    @staticmethod
    def corpus(count=8):
        return [generate_xmark(scale=1, seed=seed) for seed in range(count)]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_repeated_executions_compile_each_pattern_once(self, shards, monkeypatch):
        db = Database()
        db.add_documents(self.corpus())
        if shards > 1:
            db = db.shard(shards)
        expected = db.query(self.QUERY, prefer_views=False).xml
        calls = counting_compiles(monkeypatch)
        prepared = db.prepare(self.QUERY, prefer_views=False)
        patterns = [pattern.to_text() for pattern, _ in base_plans(prepared)]
        assert patterns and calls == patterns
        for _ in range(3):
            assert db.execute_prepared(prepared).xml == expected
        assert calls == patterns

    def test_store_view_over_several_documents_compiles_once(self, monkeypatch):
        docs = self.corpus(3)
        db = Database()
        db.add_documents(docs)
        pattern = parse_pattern("//person[id:s]{/name[val]}")
        calls = counting_compiles(monkeypatch)
        db.add_view("v", pattern)
        assert calls == [pattern.to_text()]
        expected = [t for doc in docs for t in evaluate_pattern(pattern, doc)]
        assert list(db.store["v"]) == expected

    def test_a_cached_plan_holds_no_document(self):
        db = Database()
        db.add_documents(self.corpus(2))
        with QueryService(db, max_workers=1) as service:
            expected = service.query(self.QUERY).xml
            assert service.query(self.QUERY).xml == expected
            prepared = service.cache.get(
                (normalize_query(self.QUERY), True), db.catalog_version
            )
        evaluators = [evaluator for _, evaluator in base_plans(prepared)]
        assert evaluators
        held = [obj for e in evaluators for obj in reachable(e)]
        assert sum(isinstance(obj, types.FunctionType) for obj in held) > 5
        assert not [obj for obj in held if isinstance(obj, (Document, TagIndex, XMLNode))]
        # the walk does see a document a closure binds
        index = db.documents[0].index
        assert any(obj is index for obj in reachable(lambda: index))

    def test_plans_sharing_a_fingerprint_keep_their_own_patterns(self):
        db = Database()
        db.add_documents(self.corpus(2))
        queries = ["//keyword/text()", "//initial/text()"]
        expected = {q: db.query(q, prefer_views=False).values for q in queries}
        assert expected[queries[0]] != expected[queries[1]]
        prepared = [db.prepare(q) for q in queries]
        assert prepared[0].fingerprint == prepared[1].fingerprint
        with QueryService(db, max_workers=1) as service:
            for _lap in range(3):
                for query in queries:
                    assert service.query(query).values == expected[query]

    #: battery → (queries, its documents)
    BATTERIES = {
        "xmark": (XMARK_QUERIES, lambda: [generate_xmark(scale=1, seed=0)]),
        "dblp": (DBLP_QUERIES, lambda: [generate_dblp(scale=2, seed=1)]),
        "views": (VIEW_QUERIES, lambda: [generate_xmark(scale=1, seed=s) for s in (0, 1)]),
    }

    @pytest.mark.parametrize("battery", sorted(BATTERIES))
    def test_cached_evaluators_answer_like_a_fresh_evaluation(self, battery):
        queries, docs = self.BATTERIES[battery]
        db = Database()
        db.add_documents(docs())
        with QueryService(db, max_workers=1) as service:
            for query in queries.values():
                service.query(query, prefer_views=False)
                service.query(query, prefer_views=False)
                prepared = service.cache.get(
                    (normalize_query(query), False), db.catalog_version
                )
                plans = base_plans(prepared)
                assert plans, query
                for pattern, evaluator in plans:
                    for doc in db.documents:
                        fresh = evaluate_pattern(pattern, doc)
                        assert evaluator(doc) == fresh, (battery, pattern.to_text())

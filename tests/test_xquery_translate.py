"""Tests for the §3.3.1 algebraic translation of path queries: the
full/alg rules over tag-derived collections, checked against direct
pattern evaluation and through the physical engine."""

import pytest

from repro.core import evaluate_pattern, pattern_from_path
from repro.xquery import alg_path, alg_query, collections_context, full_path, parse_query
from repro.xmldata import load
from tests.conftest import run_plan


DOC = load(
    "<bib><book><year>1999</year><title>Data on the Web</title>"
    "<author>A</author><author>B</author></book>"
    "<book><year>2001</year><title>Web2</title></book></bib>"
)
CTX = collections_context(DOC)


def values(plan):
    return sorted(
        v for t in plan.evaluate(CTX) for v in t.attrs.values() if v is not None
    )


class TestTranslationRules:
    def test_descendant_step_is_collection_scan(self):
        plan, alias = full_path(parse_query("//book"))
        assert "Scan(R_book)" in plan.pretty()
        assert alias == "s1"

    def test_root_step_uses_set_difference(self):
        plan, _ = full_path(parse_query("/bib/book"))
        assert "\\" in plan.pretty()

    def test_root_step_excludes_non_roots(self):
        # //book is never a root element here: /book must be empty
        plan = alg_path(parse_query("/book"))
        assert plan.evaluate(CTX) == []
        assert alg_path(parse_query("/bib")).evaluate(CTX) != []

    def test_child_chains_become_structural_joins(self):
        plan, _ = full_path(parse_query("//book/title"))
        assert plan.join_count() == 1

    def test_qualifier_becomes_semijoin(self):
        plan, _ = full_path(parse_query("//book[author]"))
        assert "⋉" in plan.pretty()


class TestAgreementWithPatterns:
    @pytest.mark.parametrize(
        "text, path, attr",
        [
            ("//book/title/text()", "//book/title", "V"),
            ("//book/author/text()", "//book/author", "V"),
            ("/bib/book/title", "/bib/book/title", "C"),
            ("//book[author]/title/text()", None, None),
            ("//book[year = 1999]/title/text()", None, None),
        ],
    )
    def test_alg_matches_pattern_evaluation(self, text, path, attr):
        plan = alg_path(parse_query(text))
        got = sorted(
            v for t in plan.evaluate(CTX) for v in t.attrs.values() if v is not None
        )
        if path is not None:
            pattern = pattern_from_path(path, store=(attr,))
            want = sorted(
                t.first(f"{pattern.nodes()[-1].name}.{attr}")
                for t in evaluate_pattern(pattern, DOC)
            )
            assert got == want
        assert got  # all sample queries are non-empty

    def test_missing_tag_evaluates_empty(self):
        plan = alg_path(parse_query("//nothing/title"))
        assert plan.evaluate(CTX) == []

    def test_duplicate_elimination(self):
        # the two author Cont values are distinct but a //book//book-style
        # query would multiply without π⁰; check dedup on a same-value case
        doc = load("<a><b><t>x</t></b><b><t>x</t></b></a>")
        ctx = collections_context(doc)
        plan = alg_path(parse_query("//b/t/text()"))
        assert len(plan.evaluate(ctx)) == 1  # π⁰ eliminates duplicates


class TestPhysicalExecution:
    @pytest.mark.parametrize(
        "text",
        [
            "//book/title/text()",
            "/bib/book/author/text()",
            "//book[year = 1999]/title",
            "//book[author]/title/text()",
        ],
    )
    def test_logical_physical_agreement(self, text):
        plan = alg_path(parse_query(text))
        logical = sorted(t.freeze() for t in plan.evaluate(CTX))
        physical = sorted(t.freeze() for t in run_plan(plan, CTX))
        assert logical == physical


class TestQualifierAxes:
    def test_descendant_qualifier(self):
        plan = alg_path(parse_query("//book[//keyword]/title"))
        # no keywords in this document: qualifier filters everything out
        assert plan.evaluate(CTX) == []

    def test_attribute_qualifier(self):
        doc = load('<bib><book id="b1"><title>T</title></book><book><title>U</title></book></bib>')
        ctx = collections_context(doc)
        plan = alg_path(parse_query('//book[@id = "b1"]/title/text()'))
        assert [t.attrs for t in plan.evaluate(ctx)] == [{"s3.Val": "T"}]

    def test_stacked_qualifiers(self):
        plan = alg_path(parse_query("//book[author][year]/title/text()"))
        out = plan.evaluate(CTX)
        assert [v for t in out for v in t.attrs.values()] == ["Data on the Web"]


class TestAlgQuery:
    def test_path_query_delegates(self):
        plans = alg_query(parse_query("//book/title"))
        assert len(plans) == 1

    def test_flwr_produces_pattern_access_plan(self):
        plans = alg_query(
            parse_query("for $x in //book return <r>{ $x/title }</r>")
        )
        assert "PatternAccess" in plans[0].pretty()
        assert "xml[" in plans[0].pretty()

    def test_sequence_yields_one_plan_per_item(self):
        plans = alg_query(parse_query("//book/title, //book/author"))
        assert len(plans) == 2

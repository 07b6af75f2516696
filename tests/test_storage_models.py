"""Tests for the storage models of §2.1/§2.3: every builder loads the
expected relations, registers describing XAMs, and the QEP-shape claims
(blob beats path-partitioning on recomposition) hold."""

import pytest

from repro.algebra import Scan, StructuralJoin, plan_shape
from repro.engine import Store
from repro.storage import (
    Catalog,
    build_content_store,
    build_document_blob,
    build_edge_store,
    build_node_store,
    build_path_partitioned_store,
    build_shredded_store,
    build_structural_store,
    build_tag_partitioned_store,
    build_universal_store,
    build_xrel_store,
    materialize_view,
)
from tests.conftest import run_plan


@pytest.fixture()
def loaded(bib_doc):
    store, catalog = Store(), Catalog()
    return bib_doc, store, catalog


class TestEdgeAndUniversal:
    def test_edge_relation_has_one_row_per_edge(self, loaded):
        doc, store, catalog = loaded
        build_edge_store(doc, store, catalog)
        non_text = [
            n for n in doc.nodes() if n.kind in ("element", "attribute")
        ]
        assert len(store["edge"]) == len(non_text)
        assert "edge_elements" in catalog

    def test_edge_values_capture_text_and_attributes(self, loaded):
        doc, store, catalog = loaded
        build_edge_store(doc, store, catalog)
        values = {t["value"] for t in store["value"]}
        assert "Data on the Web" in values
        assert "1999" in values

    def test_universal_one_row_per_element(self, loaded):
        doc, store, catalog = loaded
        build_universal_store(doc, store, catalog)
        assert len(store["universal"]) == doc.count("element")
        row = store["universal"].tuples[1]  # a book row
        assert row["target_title"] is not None
        # missing children are ⊥
        assert any(t["target_@year"] is None for t in store["universal"])

    def test_universal_xam_is_wide_with_optional_children(self, loaded):
        doc, store, catalog = loaded
        build_universal_store(doc, store, catalog)
        pattern = catalog["universal"].pattern
        assert all(e.optional for e in pattern.nodes()[0].edges)


class TestShredded:
    def test_one_relation_per_element_type(self, loaded):
        doc, store, catalog = loaded
        names = build_shredded_store(doc, store, catalog)
        assert set(names) >= {"shred_book", "shred_title", "shred_author"}

    def test_inlining_of_single_leaf_children(self, loaded):
        doc, store, catalog = loaded
        build_shredded_store(doc, store, catalog)
        book_row = store["shred_book"].tuples[0]
        # title occurs exactly once per book and is a leaf → inlined
        assert book_row["titleValue"] == "Data on the Web"
        # author repeats → not inlined
        assert "authorValue" not in book_row

    def test_parent_columns(self, loaded):
        doc, store, catalog = loaded
        build_shredded_store(doc, store, catalog)
        title_row = store["shred_title"].tuples[0]
        assert title_row["parentType"] == "book"


class TestXRel:
    def test_path_table(self, loaded):
        doc, store, catalog = loaded
        build_xrel_store(doc, store, catalog)
        paths = {t["pathexpr"] for t in store["path"]}
        assert "/library/book/title" in paths

    def test_region_encoding_answers_containment(self, loaded):
        doc, store, catalog = loaded
        build_xrel_store(doc, store, catalog)
        by_path = {}
        for t in store["element"]:
            by_path.setdefault(t["pathID"], []).append(t)
        paths = {t["pathexpr"]: t["pathID"] for t in store["path"]}
        book = by_path[paths["/library/book"]][0]
        title = by_path[paths["/library/book/title"]][0]
        # Dietz containment: anc.pre < desc.pre ∧ desc.post < anc.post
        assert book["start"] < title["start"] and title["end"] < book["end"]

    def test_attribute_xams_registered(self, loaded):
        doc, store, catalog = loaded
        build_xrel_store(doc, store, catalog)
        assert "xrel_attr_year" in catalog


class TestNativeModels:
    def test_node_store_has_all_nodes(self, bib_doc):
        store, catalog = Store(), Catalog()
        build_node_store(bib_doc, store, catalog)
        assert len(store["main"]) == bib_doc.count()
        assert len(store["name"]) == len(
            {n.label for n in bib_doc.nodes() if n.kind != "text"}
        )

    def test_structural_store_drops_parent_pointers(self, bib_doc):
        store, catalog = Store(), Catalog()
        build_structural_store(bib_doc, store, catalog)
        assert "parentID" not in store["main"].tuples[0]

    def test_tag_partitioning(self, bib_doc):
        store, catalog = Store(), Catalog()
        names = build_tag_partitioned_store(bib_doc, store, catalog)
        assert "tag_book" in names
        assert len(store["tag_book"]) == 2
        assert len(store["tag_author"]) == 4

    def test_path_partitioning(self, bib_doc, bib_summary):
        store, catalog = Store(), Catalog()
        build_path_partitioned_store(bib_doc, store, catalog, bib_summary)
        book_path = bib_summary.node_for_path("/library/book")
        relation = store[f"path_{book_path.number}"]
        assert len(relation) == 2
        # value paths store (ID, value)
        text_path = bib_summary.node_for_path("/library/book/title/#text")
        assert store[f"path_{text_path.number}"].tuples[0]["value"]

    def test_path_partition_xams_use_tag_chains(self, bib_doc, bib_summary):
        store, catalog = Store(), Catalog()
        build_path_partitioned_store(bib_doc, store, catalog, bib_summary)
        book_path = bib_summary.node_for_path("/library/book")
        pattern = catalog[f"path_{book_path.number}"].pattern
        assert [n.tag for n in pattern.nodes()] == ["library", "book"]


class TestBlob:
    def test_content_store(self, bib_doc):
        store, catalog = Store(), Catalog()
        build_content_store(bib_doc, store, catalog, ["book"])
        contents = [t["content"] for t in store["bookContent"]]
        assert any("Abiteboul" in c for c in contents)

    def test_document_blob(self, bib_doc):
        store, catalog = Store(), Catalog()
        name = build_document_blob(bib_doc, store, catalog)
        assert len(store[name]) == 1
        assert catalog[name].pattern.nodes()[0].store_content


class TestQEPShapes:
    """The §2.1.1 motivating comparison: recomposing marked-up content is
    one join on the blob store (QEP₉) versus a join cascade on the
    path-partitioned store (QEP₈)."""

    @staticmethod
    def scan(name, columns, alias):
        from repro.algebra import Project

        sources = {f"{alias}.{c}": c for c in columns}
        return Project(Scan(name, columns), list(sources), sources=sources)

    def qep_blob(self, doc, summary):
        store, catalog = Store(), Catalog()
        build_tag_partitioned_store(doc, store, catalog)
        build_content_store(doc, store, catalog, ["listitem"])
        plan = StructuralJoin(
            self.scan("tag_item", ["ID"], "i"),
            self.scan("listitemContent", ["ID", "content"], "li"),
            "i.ID",
            "li.ID",
            axis="descendant",
        )
        return plan, store

    def qep_fragmented(self, doc, summary):
        store, catalog = Store(), Catalog()
        build_path_partitioned_store(doc, store, catalog, summary)
        item = summary.node_for_path("/site/regions/item")
        li = summary.node_for_path(
            "/site/regions/item/description/parlist/listitem"
        )
        kw = summary.node_for_path(
            "/site/regions/item/description/parlist/listitem/keyword"
        )
        kw_text = summary.node_for_path(
            "/site/regions/item/description/parlist/listitem/keyword/#text"
        )
        plan = StructuralJoin(
            StructuralJoin(
                self.scan(f"path_{item.number}", ["ID"], "i"),
                self.scan(f"path_{li.number}", ["ID"], "li"),
                "i.ID",
                "li.ID",
                axis="descendant",
            ),
            StructuralJoin(
                self.scan(f"path_{kw.number}", ["ID"], "kw"),
                self.scan(f"path_{kw_text.number}", ["ID", "value"], "t"),
                "kw.ID",
                "t.ID",
                axis="child",
            ),
            "li.ID",
            "kw.ID",
            axis="descendant",
        )
        return plan, store

    def test_blob_plan_is_smaller(self, auction_doc, auction_summary):
        blob_plan, _ = self.qep_blob(auction_doc, auction_summary)
        frag_plan, _ = self.qep_fragmented(auction_doc, auction_summary)
        assert plan_shape(blob_plan)["joins"] < plan_shape(frag_plan)["joins"]

    def test_both_plans_execute(self, auction_doc, auction_summary):
        for builder in (self.qep_blob, self.qep_fragmented):
            plan, store = builder(auction_doc, auction_summary)
            out = run_plan(plan, store.context(), store.scan_orders())
            assert out  # the first item has listitems/keywords


class TestCatalogSwap:
    """Physical data independence: changing the storage is a catalog
    update, never an optimizer change."""

    def test_register_unregister(self, bib_doc):
        store, catalog = Store(), Catalog()
        entry = materialize_view("v", "//book[id:s]", bib_doc, store, catalog)
        assert "v" in catalog and not entry.is_index
        catalog.unregister("v")
        assert "v" not in catalog

    def test_views_vs_indexes_partition(self, bib_doc):
        store, catalog = Store(), Catalog()
        materialize_view("plain", "//book[id:s]", bib_doc, store, catalog)
        materialize_view("keyed", "//book[id:s]{/title[val!]}", bib_doc, store, catalog)
        assert [e.name for e in catalog.views()] == ["plain"]
        assert [e.name for e in catalog.indexes()] == ["keyed"]

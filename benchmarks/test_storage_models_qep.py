"""E7 — the §2.1 storage-model comparison: the same query under different
physical layouts, comparing plan shapes and execution times.

The motivating claims:

* a custom materialized view answers the query with a single scan
  (QEP₃ on book-author-title);
* the unfragmented/content store answers content recomposition with one
  structural join (QEP₉), versus a join cascade on the path-partitioned
  store (QEP₈);
* all layouts return the same answer — only the catalog changes.
"""

import pytest

from repro.algebra import Project, Scan, StructuralJoin, plan_shape
from repro.engine import Store, compile_plan
from repro.engine.batch import compile_batch
from repro.storage import (
    Catalog,
    build_content_store,
    build_path_partitioned_store,
    build_tag_partitioned_store,
    materialize_view,
)
from repro.summary import build_enhanced_summary


def execute(plan, context, scan_orders):
    """Compile a logical plan and run it on the batch engine."""
    return compile_batch(compile_plan(plan, scan_orders))(context).tuples


def scan(name, columns, alias):
    sources = {f"{alias}.{c}": c for c in columns}
    return Project(Scan(name, columns), list(sources), sources=sources)


@pytest.fixture(scope="module")
def summary(xmark_doc):
    return build_enhanced_summary(xmark_doc)


def blob_setup(xmark_doc):
    store, catalog = Store(), Catalog()
    build_tag_partitioned_store(xmark_doc, store, catalog)
    build_content_store(xmark_doc, store, catalog, ["listitem"])
    plan = StructuralJoin(
        scan("tag_item", ["ID"], "i"),
        scan("listitemContent", ["ID", "content"], "li"),
        "i.ID",
        "li.ID",
        axis="descendant",
    )
    return plan, store


def fragmented_setup(xmark_doc, summary):
    store, catalog = Store(), Catalog()
    build_path_partitioned_store(xmark_doc, store, catalog, summary)
    li_paths = [
        node
        for node in summary.nodes()
        if node.label == "listitem" and "item" in node.path_labels()
    ]
    item_paths = [node for node in summary.nodes() if node.label == "item"]
    plans = []
    for item_path in item_paths:
        for li_path in li_paths:
            if not item_path.is_ancestor_of(li_path):
                continue
            plans.append(
                StructuralJoin(
                    scan(f"path_{item_path.number}", ["ID"], "i"),
                    scan(f"path_{li_path.number}", ["ID"], "li"),
                    "i.ID",
                    "li.ID",
                    axis="descendant",
                )
            )
    from repro.algebra import Union

    return Union(*plans), store


def view_setup(xmark_doc):
    store, catalog = Store(), Catalog()
    entry = materialize_view(
        "item_listitems",
        "//item[id:s]{//listitem[id:s, cont]}",
        xmark_doc,
        store,
        catalog,
    )
    return Scan(entry.relation, ["e1.ID", "e2.ID", "e2.C"]), store


def test_qep9_blob(benchmark, xmark_doc):
    plan, store = blob_setup(xmark_doc)
    out = benchmark(lambda: list(execute(plan, store.context(), store.scan_orders())))
    assert out


def test_qep8_fragmented(benchmark, xmark_doc, summary):
    plan, store = fragmented_setup(xmark_doc, summary)
    out = benchmark(lambda: list(execute(plan, store.context(), store.scan_orders())))
    assert out


def test_qep3_materialized_view(benchmark, xmark_doc):
    plan, store = view_setup(xmark_doc)
    out = benchmark(lambda: list(execute(plan, store.context(), store.scan_orders())))
    assert out


def test_plan_shapes_and_agreement(benchmark, xmark_doc, summary):
    def assemble():
        blob_plan, blob_store = blob_setup(xmark_doc)
        frag_plan, frag_store = fragmented_setup(xmark_doc, summary)
        view_plan, view_store = view_setup(xmark_doc)
        return (
            plan_shape(blob_plan),
            plan_shape(frag_plan),
            plan_shape(view_plan),
            len(list(execute(blob_plan, blob_store.context(), blob_store.scan_orders()))),
            len(list(execute(frag_plan, frag_store.context(), frag_store.scan_orders()))),
        )

    blob, frag, view, blob_rows, frag_rows = benchmark.pedantic(
        assemble, rounds=1, iterations=1
    )
    print("\n[§2.1 QEP shapes] joins per layout:")
    print(f"  materialized view (QEP3): {view['joins']} joins, {view['scans']} scan(s)")
    print(f"  blob/content     (QEP9): {blob['joins']} join(s)")
    print(f"  path-partitioned (QEP8): {frag['joins']} joins")
    assert view["joins"] == 0 and view["scans"] == 1
    assert blob["joins"] < frag["joins"]
    assert blob_rows == frag_rows  # same (item, listitem) pairs

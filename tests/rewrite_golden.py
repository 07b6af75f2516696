"""The rewrite-search golden: what ``rewrite_pattern`` and ``is_contained``
answer on a fixed battery, recorded once on the commit *before* the search
was optimised (``python tests/rewrite_golden.py`` rewrites
``tests/data/rewrite_golden.json``) and compared byte for byte by
``tests/test_rewrite.py``.

Per XMark seed 0-2 (scale 2, the ``plan_cold`` document) over the 14-view
benchmark catalog: every pattern extracted from the ten view queries, the
19 XMark queries and DBLP ``d01``-``d08`` (unsatisfiable here — the empty
answer is part of the contract), plus 72 seeded §4.6 random patterns (216
over the three seeds).
Per pattern: the ordered ``[kind, views, rewriting_signature]`` list of
``rewrite_pattern(..., max_results=None)`` (each plan checked to scan
exactly the views it names) and the ``is_contained`` verdict
of every (view, query) and (query, view) pair as two bit strings in
catalog order.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.algebra.plans import scans_used
from repro.core import is_contained, parse_pattern, rewrite_pattern
from repro.engine.qlog import rewriting_signature
from repro.storage import Catalog
from repro.summary import build_enhanced_summary
from repro.workloads import (
    DBLP_QUERIES,
    XMARK_QUERIES,
    generate_patterns,
    generate_xmark,
)
from repro.xquery import extract, parse_query

GOLDEN_PATH = Path(__file__).parent / "data" / "rewrite_golden.json"
SEEDS = (0, 1, 2)

#: the 14-view catalog of bench/workloads.py (CATALOG_14), restated because
#: tests import nothing from bench/
CATALOG_14 = [
    ("v_person", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_item", "//regions//item[id:s]{/name[id:s, val]}"),
    ("v_items", "//item[id:s]"),
    ("v_names", "//name[id:s, val]"),
    ("v_item_names", "//item[id:s]{/o:name[id:s, val]}"),
    ("v_listitems", "//listitem[id:s, cont]"),
    ("v_item_lis", "//item[id:s]{//no:listitem[id:s, cont]}"),
    ("v_keywords", "//keyword[id:s, val]"),
    ("v_people", "//person[id:s]"),
    ("v_emails", "//person[id:s]{/o:emailaddress[id:s, val]}"),
    ("v_auctions", "//open_auction[id:s]"),
    ("v_initial", "//initial[id:s, val]"),
    ("v_descr", "//description[id:s, cont]"),
    ("v_quantity", "//quantity[id:s, val]"),
]

#: the ten view-answerable queries of bench/workloads.py (VIEW_QUERIES)
VIEW_QUERIES = {
    "v01": "for $p in //people/person return <r>{ $p/name/text() }</r>",
    "v02": "for $i in //regions//item return <r>{ $i/name/text() }</r>",
    "v03": "for $p in //person return <e>{ $p/emailaddress/text() }</e>",
    "v04": "for $o in //open_auction return <o>{ $o/initial/text() }</o>",
    "v05": "//keyword/text()",
    "v06": "for $l in //listitem return <k>{ $l//keyword/text() }</k>",
    "v07": "for $i in //item return <q>{ $i/quantity/text() }</q>",
    "v08": "//initial/text()",
    "v09": (
        "for $x in //item[mailbox] return <res>{ $x/name/text(), "
        "for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>"
    ),
    "v10": "for $i in //regions//item return $i/name/text()",
}

#: (pattern size, return nodes) cells of the random battery, 6 patterns per
#: cell and seed: 72 per seed, 216 in all
RANDOM_CELLS = [(size, returns) for size in (3, 4, 5, 6) for returns in (1, 2, 3)]
RANDOM_PER_CELL = 6
#: generated patterns with more summary embeddings than this are skipped: a
#: handful of ``//*``-heavy ones (up to 10 940 embeddings) took 1-2 minutes
#: *each* before the optimisation, which no tier-1 test can afford
MAX_EMBEDDINGS = 200


def environment(seed: int):
    """The summary and (unmaterialised) catalog of one XMark seed."""
    summary = build_enhanced_summary(generate_xmark(scale=2, seed=seed))
    catalog = Catalog()
    for name, text in CATALOG_14:
        catalog.register(name, parse_pattern(text))
    return summary, catalog


def embedding_count(pattern, summary) -> int:
    """How many embeddings the pattern has into the summary — counted here,
    independently of the code under test."""

    def count(node, snode) -> int:
        total = 1
        for edge in node.edges:
            below = snode.children.values() if edge.axis == "/" else snode.descendants()
            tag = edge.child.tag
            total *= sum(
                count(edge.child, candidate)
                for candidate in below
                if (
                    candidate.label == tag
                    if tag is not None
                    else not candidate.label.startswith(("@", "#"))
                )
            )
        return total

    return count(pattern.root, summary.root)


def battery(summary, seed: int) -> list:
    """``(id, pattern)`` pairs: query patterns, then the random ones."""
    queries = {**VIEW_QUERIES, **XMARK_QUERIES, **DBLP_QUERIES}
    queries.pop("q07")  # a three-way cartesian product, in no bench battery
    patterns = []
    for qid, text in queries.items():
        units = extract(parse_query(text)).units
        found = [pattern for unit in units for pattern in unit.patterns]
        patterns.extend((f"{qid}#{i}", pattern) for i, pattern in enumerate(found))
    for size, returns in RANDOM_CELLS:
        generated = generate_patterns(
            summary, size, returns, 4 * RANDOM_PER_CELL,
            seed=1000 * seed + 10 * size + returns,
        )
        affordable = [
            pattern
            for pattern in generated
            if embedding_count(pattern, summary) <= MAX_EMBEDDINGS
        ][:RANDOM_PER_CELL]
        assert len(affordable) == RANDOM_PER_CELL, (size, returns)
        patterns.extend(
            (f"r{size}.{returns}.{i}", pattern) for i, pattern in enumerate(affordable)
        )
    return patterns


def answers(seed: int) -> dict:
    """What the search answers for one seed, in JSON-ready form."""
    summary, catalog = environment(seed)
    views = catalog.views()
    out = {}
    for pattern_id, pattern in battery(summary, seed):
        rewritings = rewrite_pattern(pattern, catalog, summary, max_results=None)
        for r in rewritings:  # every plan reads the views it names
            assert sorted(scans_used(r.plan)) == sorted(r.views), (pattern_id, r)
        out[pattern_id] = {
            "pattern": pattern.to_text(),
            "rewritings": [
                [r.kind, list(r.views), rewriting_signature(r)] for r in rewritings
            ],
            "view_in_query": "".join(
                "01"[is_contained(v.pattern, pattern, summary)] for v in views
            ),
            "query_in_view": "".join(
                "01"[is_contained(pattern, v.pattern, summary)] for v in views
            ),
        }
    return out


def render(golden: dict) -> str:
    return json.dumps(golden, indent=0, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render({str(seed): answers(seed) for seed in SEEDS}))

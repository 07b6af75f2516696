"""Corpora, view catalogs, query batteries and fixtures of the five workloads.

Everything the program sees is generated here from the benchmark seed:
the XMark/DBLP generator seeds and the per-pass shuffle of the battery.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import Database, QueryService
from repro.core.coordinator import ShardedDatabase
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import result_checksum
from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_dblp, generate_xmark

#: the two views of the smoke lanes (benchmarks/metrics_smoke.py)
SMOKE_VIEWS = [
    ("v_person", "//people/person[id:s]{/name[id:s, val]}"),
    ("v_item", "//regions//item[id:s]{/name[id:s, val]}"),
]

#: the 12-view pool of benchmarks/test_sec_5_6_rewriting.py, restated here
#: because bench/ imports nothing outside src/
VIEW_POOL = [
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

CATALOG_14 = SMOKE_VIEWS + VIEW_POOL

#: the views whose queries are answered by one scan each; shard_scatter
#: keeps to these because join rewritings over several documents diverge
#: at HEAD (README, "Findings")
SINGLE_VIEWS = [
    (name, text)
    for name, text in CATALOG_14
    if name in ("v_person", "v_item", "v_emails", "v_keywords", "v_initial")
]

#: the ten view-answerable queries, in the order ISSUE 11 lists them
VIEW_QUERIES = {
    "v01": "for $p in //people/person return <r>{ $p/name/text() }</r>",
    "v02": "for $i in //regions//item return <r>{ $i/name/text() }</r>",
    "v03": "for $p in //person return <e>{ $p/emailaddress/text() }</e>",
    "v04": "for $o in //open_auction return <o>{ $o/initial/text() }</o>",
    "v05": "//keyword/text()",
    "v06": "for $l in //listitem return <k>{ $l//keyword/text() }</k>",
    "v07": "for $i in //item return <q>{ $i/quantity/text() }</q>",
    "v08": "//initial/text()",
    # the nested query of thesis Fig. 5.2 (examples/auction_views.py); with
    # the 14-view catalog its one pattern resolves to the base store
    "v09": (
        "for $x in //item[mailbox] return <res>{ $x/name/text(), "
        "for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>"
    ),
    "v10": "for $i in //regions//item return $i/name/text()",
}

#: q07 is a three-way cartesian product (40 s at scale 16): excluded
XMARK_19 = {qid: text for qid, text in XMARK_QUERIES.items() if qid != "q07"}

#: the catalog mutation of mutate_mix (and of every workload's mutation probe)
MUTATION_VIEW = ("v_tmp", "//location[id:s, val]")
MUTATE_EVERY = 20


def _ids(queries: dict, *skip: str) -> dict:
    return {qid: text for qid, text in queries.items() if qid not in skip}


@dataclass(frozen=True)
class Spec:
    """What one workload is made of."""

    name: str
    #: (scale, offset added to the benchmark seed) per XMark document
    xmark: tuple
    dblp_scale: int = 0
    views: tuple = ()
    queries: tuple = ()  # (qid, text) pairs
    shards: int = 0
    cache_capacity: int = 128
    mutate: bool = False
    #: floor on the share of battery patterns answered from views — a
    #: view workload must not silently fall back to the base store
    min_view_resolution: float = 0.0


SPECS = {
    "plan_cold": Spec(
        name="plan_cold",
        xmark=((2, 0),),
        views=tuple(CATALOG_14),
        queries=tuple({**VIEW_QUERIES, **XMARK_19}.items()),
        cache_capacity=1,
    ),
    "view_warm": Spec(
        name="view_warm",
        xmark=((16, 0),),
        views=tuple(CATALOG_14),
        queries=tuple(_ids(VIEW_QUERIES, "v09").items()),
        min_view_resolution=0.8,
    ),
    "base_warm": Spec(
        name="base_warm",
        xmark=((16, 0),),
        dblp_scale=20,
        queries=tuple({**XMARK_19, **DBLP_QUERIES}.items()),
    ),
    "shard_scatter": Spec(
        name="shard_scatter",
        xmark=tuple((2, offset) for offset in range(8)),
        views=tuple(SINGLE_VIEWS),
        # of the single-view queries only v08 verifies for every seed on a
        # multi-document store; q08/q09 also read v_person inside their
        # value join.  q14 is left out: its 0-3 answers straddle the
        # sentinel's misestimate threshold, so whether statistics refreshes
        # churn the plan cache would depend on the seed (README, "Findings")
        queries=tuple(
            {"v08": VIEW_QUERIES["v08"], **_ids(XMARK_19, "q14")}.items()
        ),
        shards=4,
    ),
    "mutate_mix": Spec(
        name="mutate_mix",
        xmark=((16, 0),),
        views=tuple(CATALOG_14),
        queries=tuple(_ids(VIEW_QUERIES, "v09").items()),
        mutate=True,
        min_view_resolution=0.8,
    ),
}


def generate_documents(spec: Spec, seed: int) -> list:
    docs = [
        generate_xmark(scale=scale, seed=seed + offset, name=f"xmark{offset}.xml")
        for scale, offset in spec.xmark
    ]
    if spec.dblp_scale:
        docs.append(generate_dblp(scale=spec.dblp_scale, seed=seed))
    return docs


def new_database(shards: int = 0, **kwargs) -> Database:
    """A database with a private metrics registry (no cross-run state)."""
    if shards:
        return ShardedDatabase(shards, metrics=MetricsRegistry(), **kwargs)
    return Database(metrics=MetricsRegistry(), **kwargs)


def row_count(result) -> int:
    return len(result.xml) + len(result.values) or len(result.tuples)


def reference_answers(spec: Spec, docs: list) -> dict:
    """The correctness oracle: ``{qid: [checksum, rows]}`` from a second,
    view-less database evaluating every battery query on the base store."""
    oracle = new_database(tracer=False)
    oracle.add_documents(docs)
    answers = {}
    for qid, text in spec.queries:
        result = oracle.query(text, prefer_views=False)
        answers[qid] = [result_checksum(result), row_count(result)]
    return answers


@dataclass
class Fixture:
    """One set-up of a workload: store, service, battery and oracle."""

    spec: Spec
    docs: list
    db: Database
    service: QueryService
    reference: dict
    #: seconds spent in each set-up step (generate, load, views, service)
    steps: dict

    def check(self, qid: str, result) -> bool:
        checksum, rows = self.reference[qid]
        return row_count(result) == rows and result_checksum(result) == checksum

    def close(self) -> None:
        self.service.shutdown()
        if isinstance(self.db, ShardedDatabase):
            self.db.close()


def build(spec: Spec, seed: int, reference: dict | None = None) -> Fixture:
    """Generate, load, materialise views and start the service, timing
    each step; the oracle is built outside the timed steps."""
    steps = {}
    started = time.perf_counter()
    docs = generate_documents(spec, seed)
    steps["generate"] = time.perf_counter() - started

    started = time.perf_counter()
    db = new_database(spec.shards)
    db.add_documents(docs)
    steps["load"] = time.perf_counter() - started

    started = time.perf_counter()
    for name, text in spec.views:
        db.add_view(name, text)
    steps["views"] = time.perf_counter() - started

    # one worker, otherwise default construction: memory qlog ring, tracer
    # on, sentinel on — the production tax is part of the number
    started = time.perf_counter()
    service = QueryService(db, max_workers=1, cache_capacity=spec.cache_capacity)
    steps["service"] = time.perf_counter() - started

    if reference is None:
        reference = reference_answers(spec, docs)
    return Fixture(spec, docs, db, service, reference, steps)


def pass_operations(spec: Spec, rng: random.Random) -> list:
    """The operations of one pass: the shuffled battery, or for a mutating
    workload two mutation cycles — ``add``, 19 queries, ``drop``, 19
    queries — drawn from consecutive shuffles of the battery.  A cycle
    opens with its mutation so that every pass, the first included, runs
    its queries against freshly invalidated plans."""
    battery = list(spec.queries)
    if not spec.mutate:
        rng.shuffle(battery)
        return battery
    stream = []
    while len(stream) < 2 * (MUTATE_EVERY - 1):
        rng.shuffle(battery)
        stream.extend(battery)
    half = MUTATE_EVERY - 1
    return ["add"] + stream[:half] + ["drop"] + stream[half : 2 * half]

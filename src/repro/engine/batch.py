"""Batch (columnar-block) execution: the one physical engine.

:func:`compile_batch` lowers a compiled physical plan
(:mod:`repro.engine.physical`) into one specialized closure per operator,
each consuming and producing a :class:`Block` (the tuple list plus lazily
extracted parallel arrays of structural IDs and the order descriptor).
The closure tree *is* the compiled artifact the fingerprint-keyed plan
cache stores (:class:`repro.engine.plan_cache.CompiledPlanArtifact`).

The thesis' §1.2.3 algorithms live on here as block passes:

* every operator produces tuples in a deterministic order (sorts reuse
  :func:`~repro.engine.orderdesc.sort_key_for` and Python's stable sort,
  which reproduces the B+-tree Sort_φ's duplicate-bucket order; hash
  joins and group-bys keep insertion/first-seen order);
* children are evaluated in a fixed order (build side first for
  hash/nested-loops joins and difference, ancestors before descendants
  for the stack-tree joins), so seeded chaos fault injection draws the
  same RNG sequence on every run;
* the StackTreeDesc/StackTreeAnc structural joins run as merge passes
  over pre-extracted sorted ID arrays — the same stack discipline,
  integer-indexed.

``PLogicalFallback`` materializes its child blocks and evaluates a clone
of its logical operator over them; the clone is local to the call, so a
cached plan holds no data of the query that last ran it.

Metrics stay exact: each closure reads its operator's ``metrics`` node at
call time and accumulates actual rows per block and inclusive wall time
per operator.
"""

from __future__ import annotations

import copy
import time
import tracemalloc
from typing import Callable, Iterator, List, Optional, Sequence

from ..algebra.model import NULL, NestedTuple, concat
from ..algebra.operators import BaseTuples
from ..xmldata.ids import DeweyID, StructuralID
from .context import EXEC_CTX_KEY
from .orderdesc import sort_key_for
from .physical import (
    PBase,
    PConcat,
    PDifference,
    PFilter,
    PHashGroupBy,
    PHashJoin,
    PLogicalFallback,
    PNestedLoopsJoin,
    PProject,
    PScan,
    PSort,
    PStackTreeAnc,
    PStackTreeDesc,
    PhysicalOperator,
)

__all__ = [
    "Block",
    "BatchFn",
    "compile_batch",
]

#: a compiled batch closure: evaluation context in, one Block out
BatchFn = Callable[[Optional[dict]], "Block"]


def _emit_variant(
    kind: str,
    anc: NestedTuple,
    matches: list[NestedTuple],
    nest_as: str,
    right_columns: Sequence[str],
) -> Iterator[NestedTuple]:
    if kind == "j":
        for m in matches:
            yield concat(anc, m)
    elif kind == "o":
        if matches:
            for m in matches:
                yield concat(anc, m)
        else:
            yield concat(anc, NestedTuple({c: NULL for c in right_columns}))
    elif kind == "s":
        if matches:
            yield anc
    elif kind == "nj":
        if matches:
            yield anc.with_attrs(**{nest_as: matches})
    elif kind == "no":
        yield anc.with_attrs(**{nest_as: matches})
    else:  # pragma: no cover - guarded by constructors
        raise AssertionError(kind)


def _sid(t: NestedTuple, attr: str):
    value = t.get(attr)
    if value is None:
        return None
    if not isinstance(value, (StructuralID, DeweyID)):
        raise TypeError(
            f"structural join attribute {attr!r} holds {type(value).__name__}, "
            "which is not a structural identifier"
        )
    return value


def _pre(identifier) -> tuple:
    if isinstance(identifier, StructuralID):
        return (identifier.pre,)
    return identifier.path  # DeweyID: document order = path order


def _is_rel(anc_id, desc_id, axis: str) -> bool:
    if axis == "child":
        return anc_id.is_parent_of(desc_id)
    return anc_id.is_ancestor_of(desc_id)


def _covers(anc_id, desc_id) -> bool:
    """Whether desc is inside anc's interval (ancestor-descendant test,
    used for stack maintenance regardless of the join axis)."""
    return anc_id.is_ancestor_of(desc_id)


class Block:
    """One batch of tuples flowing between operators.

    ``tuples`` is the row list (never mutated by consumers — operators
    build fresh lists); ``order`` is the order descriptor the block is
    sorted by (``None`` = unordered).  Column arrays are extracted lazily
    and cached, so a structural join asking for the ID and pre-rank
    columns of its sorted inputs pays the per-tuple attribute walk once.
    """

    __slots__ = ("tuples", "order", "_columns")

    def __init__(self, tuples: List[NestedTuple], order: Optional[str] = None):
        self.tuples = tuples
        self.order = order
        self._columns: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.tuples)

    def _cache(self) -> dict:
        if self._columns is None:
            self._columns = {}
        return self._columns

    def column(self, attr: str) -> list:
        """Parallel array of ``t.get(attr)`` values."""
        cache = self._cache()
        col = cache.get(("v", attr))
        if col is None:
            col = cache[("v", attr)] = [t.get(attr) for t in self.tuples]
        return col

    def id_column(self, attr: str) -> list:
        """Parallel array of validated structural identifiers."""
        cache = self._cache()
        col = cache.get(("id", attr))
        if col is None:
            col = cache[("id", attr)] = [_sid(t, attr) for t in self.tuples]
        return col

    def pre_column(self, attr: str) -> list:
        """Parallel array of document-order (pre) ranks of the IDs."""
        cache = self._cache()
        col = cache.get(("pre", attr))
        if col is None:
            col = cache[("pre", attr)] = [_pre(i) for i in self.id_column(attr)]
        return col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block n={len(self.tuples)} order={self.order!r}>"


# ---------------------------------------------------------------------------
# Per-operator closure builders
# ---------------------------------------------------------------------------

def _observed(op: PhysicalOperator, fn: BatchFn) -> BatchFn:
    """Wrap a closure with metrics accounting against the operator's
    (dynamically attached) metrics node: inclusive wall time per call,
    actual rows per block."""
    clock = time.perf_counter

    def run(context):
        m = op.metrics
        if m is None:
            return fn(context)
        if op.profiled:
            # attributed profiling: the closure runs its whole block in
            # one call, so open/close snapshots bound the operator exactly
            m.executions += 1
            mem_base = tracemalloc.get_traced_memory()[0]
            started = clock()
            cpu_started = time.thread_time_ns()
            block = fn(context)
            m.cpu_ns += time.thread_time_ns() - cpu_started
            m.elapsed += clock() - started
            peak = tracemalloc.get_traced_memory()[0] - mem_base
            if peak > m.peak_mem_bytes:
                m.peak_mem_bytes = peak
            m.rows_out += len(block.tuples)
            return block
        m.executions += 1
        started = clock()
        block = fn(context)
        m.elapsed += clock() - started
        m.rows_out += len(block.tuples)
        return block

    return run


def _scan(op: PScan) -> BatchFn:
    name, missing_ok, order = op.name, op.missing_ok, op.output_order

    def fn(context):
        if context is None or name not in context:
            if missing_ok:
                return Block([], order)
            raise KeyError(f"base relation {name!r} missing from context")
        # context[name] fires the relation.scan fault point; the copy
        # keeps store state unaliased
        return Block(list(context[name]), order)

    return fn


def _base(op: PBase) -> BatchFn:
    def fn(context):
        return Block(list(op.tuples), op.output_order)

    return fn


def _filter(op: PFilter, child: BatchFn) -> BatchFn:
    predicate, order = op.predicate, op.output_order

    def fn(context):
        return Block(
            [t for t in child(context).tuples if predicate(t)], order
        )

    return fn


def _project(op: PProject, child: BatchFn) -> BatchFn:
    columns, renames, dedup = op.columns, op.renames, op.dedup
    order = op.output_order

    def fn(context):
        rows = child(context).tuples
        if renames:
            projected = [t.project(columns).rename(renames) for t in rows]
        else:
            projected = [t.project(columns) for t in rows]
        if dedup:
            seen: set = set()
            kept = []
            for p in projected:
                key = p.freeze()
                if key not in seen:
                    seen.add(key)
                    kept.append(p)
            projected = kept
        return Block(projected, order)

    return fn


def _sort(op: PSort, child: BatchFn) -> BatchFn:
    # Python's stable sort over sort_key_for reproduces the B+-tree's
    # order exactly: equal keys append to a bucket in insertion order
    # there, and stability preserves input order here.
    key = sort_key_for(op.path)
    path = op.path

    def fn(context):
        return Block(sorted(child(context).tuples, key=key), path)

    return fn


def _group_by(op: PHashGroupBy, child: BatchFn) -> BatchFn:
    keys, nest_as, order = op.keys, op.nest_as, op.output_order

    def fn(context):
        groups: dict = {}
        heads: dict = {}
        first_seen: list = []
        for t in child(context).tuples:
            head = t.project(keys)
            key = head.freeze()
            if key not in groups:
                groups[key] = []
                heads[key] = head
                first_seen.append(key)
            groups[key].append(t.drop(keys))
        return Block(
            [
                heads[key].with_attrs(**{nest_as: groups[key]})
                for key in first_seen
            ],
            order,
        )

    return fn


def _hash_join(op: PHashJoin, left: BatchFn, right: BatchFn) -> BatchFn:
    left_attr, right_attr = op.left_attr, op.right_attr
    kind, nest_as, right_columns = op.kind, op.nest_as, op.right_columns
    order = op.output_order

    def fn(context):
        # build side first (the order seeded fault draws are made in)
        table: dict = {}
        for r in right(context).tuples:
            key = r.first(right_attr)
            if key is not None:
                table.setdefault(key, []).append(r)
        out: list = []
        if kind == "j":
            append = out.append
            for lt in left(context).tuples:
                key = lt.first(left_attr)
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket:
                    for m in bucket:
                        append(concat(lt, m))
        else:
            extend = out.extend
            for lt in left(context).tuples:
                key = lt.first(left_attr)
                matches = table.get(key, []) if key is not None else []
                extend(
                    _emit_variant(kind, lt, matches, nest_as, right_columns)
                )
        return Block(out, order)

    return fn


def _nested_loops(op: PNestedLoopsJoin, left: BatchFn, right: BatchFn) -> BatchFn:
    match, kind = op.match, op.kind
    nest_as, right_columns = op.nest_as, op.right_columns
    order = op.output_order

    def fn(context):
        right_rows = right(context).tuples  # blocks on the right input
        out: list = []
        extend = out.extend
        for lt in left(context).tuples:
            matches = [r for r in right_rows if match(lt, r)]
            extend(_emit_variant(kind, lt, matches, nest_as, right_columns))
        return Block(out, order)

    return fn


def _stack_tree_desc(op: PStackTreeDesc, left: BatchFn, right: BatchFn) -> BatchFn:
    anc_attr, desc_attr, axis = op.anc_attr, op.desc_attr, op.axis
    order = op.output_order

    def fn(context):
        anc_block = left(context)
        desc_block = right(context)
        anc_rows = anc_block.tuples
        desc_rows = desc_block.tuples
        anc_ids = anc_block.id_column(anc_attr)
        anc_pres = anc_block.pre_column(anc_attr)
        desc_ids = desc_block.id_column(desc_attr)
        desc_pres = desc_block.pre_column(desc_attr)
        out: list = []
        append = out.append
        stack: list = []  # (anc_id, anc_tuple)
        a, n_anc = 0, len(anc_rows)
        for d in range(len(desc_rows)):
            desc_id = desc_ids[d]
            desc_pre = desc_pres[d]
            # Push every ancestor starting before this descendant.
            while a < n_anc and anc_pres[a] < desc_pre:
                anc_id = anc_ids[a]
                while stack and not _covers(stack[-1][0], anc_id):
                    stack.pop()
                stack.append((anc_id, anc_rows[a]))
                a += 1
            while stack and not _covers(stack[-1][0], desc_id):
                stack.pop()
            desc_tuple = desc_rows[d]
            for anc_id, anc_tuple in stack:
                if _is_rel(anc_id, desc_id, axis):
                    append(concat(anc_tuple, desc_tuple))
        return Block(out, order)

    return fn


def _stack_tree_anc(op: PStackTreeAnc, left: BatchFn, right: BatchFn) -> BatchFn:
    anc_attr, desc_attr, axis = op.anc_attr, op.desc_attr, op.axis
    kind, nest_as, right_columns = op.kind, op.nest_as, op.right_columns
    order = op.output_order

    def fn(context):
        anc_block = left(context)
        desc_block = right(context)
        anc_rows = anc_block.tuples
        desc_rows = desc_block.tuples
        anc_ids = anc_block.id_column(anc_attr)
        anc_pres = anc_block.pre_column(anc_attr)
        desc_ids = desc_block.id_column(desc_attr)
        desc_pres = desc_block.pre_column(desc_attr)
        out: list = []
        # stack entries: [anc_id, anc_tuple, matches, anc_pre]
        stack: list = []
        pending: list = []  # popped ancestors not yet emitted (anc order)

        def flush_pending() -> None:
            # pop order is deepest-first; restore ancestor (pre) order
            pending.sort(key=lambda e: e[3])
            for _anc_id, anc_tuple, matches, _p in pending:
                out.extend(
                    _emit_variant(kind, anc_tuple, matches, nest_as, right_columns)
                )
            pending.clear()

        a = d = 0
        n_anc, n_desc = len(anc_rows), len(desc_rows)
        while a < n_anc or d < n_desc:
            advance_anc = d >= n_desc or (
                a < n_anc and anc_pres[a] < desc_pres[d]
            )
            if advance_anc:
                anc_id = anc_ids[a]
                while stack and not _covers(stack[-1][0], anc_id):
                    pending.append(stack.pop())
                if not stack:
                    flush_pending()
                stack.append([anc_id, anc_rows[a], [], anc_pres[a]])
                a += 1
            else:
                desc_id = desc_ids[d]
                while stack and not _covers(stack[-1][0], desc_id):
                    pending.append(stack.pop())
                if not stack:
                    flush_pending()
                desc_tuple = desc_rows[d]
                for entry in stack:
                    if _is_rel(entry[0], desc_id, axis):
                        entry[2].append(desc_tuple)
                d += 1
        while stack:
            pending.append(stack.pop())
        flush_pending()
        return Block(out, order)

    return fn


def _concat(op: PConcat, parts: List[BatchFn]) -> BatchFn:
    order = op.output_order

    def fn(context):
        out: list = []
        for part in parts:
            out.extend(part(context).tuples)
        return Block(out, order)

    return fn


def _difference(op: PDifference, left: BatchFn, right: BatchFn) -> BatchFn:
    order = op.output_order

    def fn(context):
        # right side first: its multiplicities are the count table
        counts: dict = {}
        for t in right(context).tuples:
            key = t.freeze()
            counts[key] = counts.get(key, 0) + 1
        out: list = []
        for t in left(context).tuples:
            key = t.freeze()
            remaining = counts.get(key, 0)
            if remaining:
                counts[key] = remaining - 1
            else:
                out.append(t)
        return Block(out, order)

    return fn


def _logical_fallback(op: PLogicalFallback, children: List[BatchFn]) -> BatchFn:
    logical, order = op.logical, op.output_order
    schemas = [child.schema() for child in logical.children]

    def fn(context):
        # materialize the child blocks, substitute them as base inputs of
        # a call-local clone, and evaluate the logical operator over them
        materialized = [child(context).tuples for child in children]
        clone = copy.copy(logical)
        clone.children = tuple(
            BaseTuples(rows, schema)
            for rows, schema in zip(materialized, schemas)
        )
        if context is not None:
            sink = context.get(EXEC_CTX_KEY)
            if sink is not None:
                sink.bump(
                    "fallback.materialized_rows",
                    float(sum(len(rows) for rows in materialized)),
                )
        return Block(clone.evaluate(context), order)

    return fn


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

def compile_batch(physical: PhysicalOperator) -> BatchFn:
    """Compile a physical plan into one specialized closure tree:
    ``fn(context) -> Block``.  An operator type without a closure builder
    is a :class:`TypeError` here, at compile time."""

    def build(op: PhysicalOperator) -> BatchFn:
        kids = [build(child) for child in op.children]
        if isinstance(op, PScan):
            raw = _scan(op)
        elif isinstance(op, PBase):
            raw = _base(op)
        elif isinstance(op, PFilter):
            raw = _filter(op, *kids)
        elif isinstance(op, PProject):
            raw = _project(op, *kids)
        elif isinstance(op, PSort):
            raw = _sort(op, *kids)
        elif isinstance(op, PHashGroupBy):
            raw = _group_by(op, *kids)
        elif isinstance(op, PHashJoin):
            raw = _hash_join(op, *kids)
        elif isinstance(op, PNestedLoopsJoin):
            raw = _nested_loops(op, *kids)
        elif isinstance(op, PStackTreeDesc):
            raw = _stack_tree_desc(op, *kids)
        elif isinstance(op, PStackTreeAnc):
            raw = _stack_tree_anc(op, *kids)
        elif isinstance(op, PConcat):
            raw = _concat(op, kids)
        elif isinstance(op, PDifference):
            raw = _difference(op, *kids)
        elif isinstance(op, PLogicalFallback):
            raw = _logical_fallback(op, kids)
        else:
            raise TypeError(f"no batch implementation for {op.label()}")
        return _observed(op, raw)

    return build(physical)

"""Pattern containment under summary constraints (thesis §4.4).

``p ⊑_S p'`` holds iff ``p(t) ⊆ p'(t)`` for every tree conforming to the
summary ``S`` (Definition 4.4.1).  The decision procedure follows
Proposition 4.4.1 and its extensions:

* build ``mod_S(p)`` (canonical trees with return tuples);
* for every canonical tree, check that its return tuple belongs to the
  evaluation of ``p'`` (or of some member of a union of views,
  Proposition 4.4.2) over the tree itself;
* decorated patterns add the value-formula implication of §4.4.2 — for
  unions, the exact check ``φ_{t_e} ⇒ ∨_j ψ_j`` over per-summary-path
  variables, decided by refuting ``φ ∧ ⋀_j ¬ψ_j`` through choice-function
  enumeration;
* attribute patterns require positionally identical stored attributes
  (Proposition 4.4.3);
* nested patterns add the nesting-sequence conditions of Proposition
  4.4.4, with the one-to-one-edge relaxation when the summary carries
  enhanced annotations.

Negative decisions exit at the first countermodel — the asymmetry measured
in §4.6 (negative tests faster than positive ones).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union as TypingUnion

from ..algebra.formulas import TRUE, Formula
from ..summary.enhanced import is_one_to_one_chain
from ..summary.path_summary import PathSummary, SummaryNode
from .canonical import (
    CanonicalTree,
    CanonNode,
    _annotate,
    _strict_copy,
    admits_label,
    model_of_embeddings,
    nesting_sequence,
    path_annotations,
    summary_embeddings,
)
from .embedding import iter_embeddings, subtree_embeddable
from .xam import NEST, NEST_OUTER, Pattern, PatternNode

__all__ = [
    "is_contained",
    "is_equivalent",
    "ContainmentError",
    "PatternFacts",
    "SearchStats",
    "contained_in",
    "may_be_contained",
]

Views = TypingUnion[Pattern, Sequence[Pattern]]


#: cap on matching assignments enumerated per (view, canonical tree) when
#: collecting value-formula disjuncts — a safety valve against adversarial
#: wildcard patterns; reaching it can only make containment answer False
#: (conservative), never True.
MAX_PSI_ASSIGNMENTS = 256

#: cap on the disjuncts fed to the exact ``φ ⇒ ∨ψ`` refutation (its choice
#: enumeration is exponential in the number of disjuncts).  Most trees are
#: settled by the var-wise fast path; when they are not, only the first
#: MAX_PSI_DISJUNCTS distinct ψ participate — again conservative-only.
MAX_PSI_DISJUNCTS = 10


class ContainmentError(ValueError):
    """Raised when containment between the given patterns is ill-posed
    (mismatched arity is *not* an error — it simply fails — but malformed
    inputs are)."""


@dataclass
class SearchStats:
    """What one rewriting search did and what it silently gave up on
    (:func:`~repro.core.rewrite.rewrite_pattern` fills one in)."""

    #: decision-procedure runs (pre-filtered and remembered tests excluded)
    containment_tests: int = 0
    #: candidates and containment tests the path-annotation pre-filters
    #: settled before any canonical model was built
    prefilter_rejected: int = 0
    #: per-view facts and per-search verdicts reused instead of recomputed
    memo_hits: int = 0
    #: candidate products cut at the combination cap
    product_truncated: int = 0
    #: canonical trees whose ψ enumeration hit MAX_PSI_ASSIGNMENTS or
    #: MAX_PSI_DISJUNCTS (the verdict may be a conservative False)
    psi_capped: int = 0
    #: candidate plans a cost-ordered search left unvalidated, because a
    #: cheaper bucket already held a rewriting
    skipped: int = 0


class PatternFacts:
    """What containment and the rewriting search ask about one pattern under
    one summary, each answer computed on first use and kept.

    The facts depend on nothing but the pattern and the summary state they
    were stamped with (:meth:`current_for`), so they may outlive a search
    (the catalog keeps one per view) and be shared between threads: every
    value is published once and not mutated afterwards.

    ``returns`` fixes the return-node order by node names (default: the
    pattern's return nodes in pre-order).
    """

    def __init__(
        self,
        pattern: Pattern,
        summary: PathSummary,
        returns: Optional[list[str]] = None,
        use_strong_edges: bool = True,
    ):
        self.pattern = pattern
        self.summary = summary
        self.generation = summary.generation
        self.use_strong_edges = use_strong_edges
        self.return_nodes: list[PatternNode] = (
            pattern.return_nodes()
            if returns is None
            else [pattern.node_by_name(name) for name in returns]
        )
        self.return_names = [node.name for node in self.return_nodes]
        #: Proposition 4.4.3 condition 1 / 4.4.4 condition 2(a): what must
        #: agree positionally between a contained pattern and its container
        self.signature = tuple(
            (node.stored_attrs(), _nested_above(node)) for node in self.return_nodes
        )
        #: per return node, whether no optional edge lies above it: only
        #: then must the node sit on its target when the pattern serves as
        #: container (the matching lets an optional return node answer ⊥
        #: wherever it finds no match, whatever the tree's own tuple holds)
        self.mandatory = tuple(
            not _optional_above(node) for node in self.return_nodes
        )
        self.nested = pattern.has_nested_edges
        self.constrained = any(
            not node.value_formula.is_true for node in pattern.nodes()
        )

    def current_for(self, summary: PathSummary) -> bool:
        return self.summary is summary and self.generation == summary.generation

    @cached_property
    def pinned_above(self) -> dict[PatternNode, tuple[PatternNode, ...]]:
        """Per return node, itself and its ancestors reached through
        non-optional edges (⊤ excluded).  When the pattern serves as
        container and the node's target is a tree node, every embedding
        puts each of these on the target's root path."""
        pinned: dict[PatternNode, tuple[PatternNode, ...]] = {}
        for node in self.return_nodes:
            chain = [node]
            walk = node
            while walk.parent_edge is not None and not walk.parent_edge.optional:
                walk = walk.parent_edge.parent
                if walk.parent_edge is None:
                    break  # ⊤ always sits at the tree's root
                chain.append(walk)
            pinned[node] = tuple(chain)
        return pinned

    @cached_property
    def key(self) -> tuple:
        """What containment depends on: structure, formulas, stored
        attributes and return order — not node names."""
        position = {node: index for index, node in enumerate(self.pattern.nodes())}
        return (
            self.pattern.structure_key(),
            tuple(position[node] for node in self.return_nodes),
        )

    @cached_property
    def annotations(self) -> dict[str, set[int]]:
        """Definition 4.3.1 path annotations, by node name."""
        return path_annotations(self.pattern, self.summary)

    @cached_property
    def reach(self) -> dict[str, set[int]]:
        """Per node name, every path the node can take when the pattern is
        embedded into a tree conforming to the summary (optional edges free
        to miss): the container side of :func:`may_be_contained`."""
        return _annotate(self.pattern, self.summary, optional_free=True) or {
            node.name: set() for node in self.pattern.nodes()
        }

    @cached_property
    def placed(self) -> Optional[dict[str, set[int]]]:
        """Per node name, the paths the node takes across the canonical
        model's trees; ``None`` when the model is empty (the pattern is
        unsatisfiable, hence contained in anything)."""
        if any(node.value_formula.is_false for node in self.pattern.nodes()):
            return None
        return _annotate(self.pattern, self.summary, valued=True)

    @cached_property
    def strict(self) -> Pattern:
        return _strict_copy(self.pattern)

    @cached_property
    def embeddings(self) -> list[dict[PatternNode, SummaryNode]]:
        """All summary embeddings of :attr:`strict`."""
        return summary_embeddings(self.strict, self.summary)

    @cached_property
    def model(self) -> list[CanonicalTree]:
        return model_of_embeddings(
            self.pattern, self.strict, self.embeddings, self.summary,
            self.return_names, self.use_strong_edges,
        )


def is_contained(
    pattern: Pattern,
    views: Views,
    summary: PathSummary,
    relax_one_to_one: bool = True,
    pattern_returns: Optional[list[str]] = None,
    view_returns: Optional[list[list[str]]] = None,
    use_strong_edges: bool = True,
) -> bool:
    """Decide ``p ⊑_S (p'_1 ∪ … ∪ p'_m)``.

    ``views`` may be a single pattern or a sequence (union).  With
    ``relax_one_to_one`` the §4.4.5 nesting relaxation is applied when the
    summary carries edge annotations.  ``pattern_returns``/``view_returns``
    optionally fix the return-node alignment by node names (default:
    pre-order return nodes on both sides).
    """
    view_list = [views] if isinstance(views, Pattern) else list(views)
    if not view_list:
        raise ContainmentError("containment against an empty union")
    if view_returns is None:
        view_orders: list[Optional[list[str]]] = [None] * len(view_list)
    else:
        view_orders = list(view_returns)
    return contained_in(
        PatternFacts(pattern, summary, pattern_returns, use_strong_edges),
        [
            PatternFacts(view, summary, order)
            for view, order in zip(view_list, view_orders)
        ],
        relax_one_to_one,
    )


def contained_in(
    pattern: PatternFacts,
    views: Sequence[PatternFacts],
    relax_one_to_one: bool = True,
    stats: Optional[SearchStats] = None,
) -> bool:
    """:func:`is_contained` over prepared facts: the decision procedure."""
    kept = [view for view in views if view.signature == pattern.signature]
    if not kept:
        # only an unsatisfiable pattern is contained in nothing — and that
        # much the annotations tell, without building its model
        return pattern.placed is None
    model = pattern.model
    if not model:
        return True  # unsatisfiable patterns are vacuously contained
    if (pattern.nested or any(view.nested for view in kept)) and not (
        # Proposition 4.4.4 condition 2(b), across the union
        _nesting_sequences_covered(pattern, kept, relax_one_to_one)
    ):
        return False
    return all(_tree_covered(tree, kept, stats) for tree in model)


def may_be_contained(pattern: PatternFacts, views: Sequence[PatternFacts]) -> bool:
    """A necessary condition for ``p ⊑_S ∪views`` read off path annotations
    (Definition 4.3.1) before any canonical model is built: ``False`` means
    :func:`contained_in` would answer ``False``.

    Every tree of ``mod_S(p)`` puts ``p``'s i-th return node on some path;
    a view covering that tree embeds into it — hence into the summary —
    with its own i-th return node, when mandatory, on the same path.  So
    each such path must be one some positionally compatible view can reach
    (a view whose i-th return node is optional says nothing about i).
    """
    placed = pattern.placed
    if placed is None:
        return True
    kept = [view for view in views if view.signature == pattern.signature]
    for index, name in enumerate(pattern.return_names):
        if all(view.mandatory[index] for view in kept) and not placed[name] <= (
            set().union(*(view.reach[view.return_names[index]] for view in kept))
        ):
            return False
    return True


def is_equivalent(
    pattern_a: Pattern,
    pattern_b: Pattern,
    summary: PathSummary,
    relax_one_to_one: bool = True,
    use_strong_edges: bool = True,
) -> bool:
    """S-equivalence = two-way containment (§4.4)."""
    return is_contained(
        pattern_a, pattern_b, summary, relax_one_to_one,
        use_strong_edges=use_strong_edges,
    ) and is_contained(
        pattern_b, pattern_a, summary, relax_one_to_one,
        use_strong_edges=use_strong_edges,
    )


# ---------------------------------------------------------------------------
# Nested patterns (Proposition 4.4.4)
# ---------------------------------------------------------------------------

def _optional_above(node: PatternNode) -> bool:
    walk = node
    while walk.parent_edge is not None:
        if walk.parent_edge.optional:
            return True
        walk = walk.parent_edge.parent
    return False


def _nested_above(node: PatternNode) -> int:
    count = 0
    walk = node
    while walk.parent_edge is not None:
        if walk.parent_edge.semantics in (NEST, NEST_OUTER):
            count += 1
        walk = walk.parent_edge.parent
    return count


def _nesting_sequences_covered(
    pattern: PatternFacts, views: Sequence[PatternFacts], relax_one_to_one: bool
) -> bool:
    """Proposition 4.4.4 condition 2(b), union-aware: for every embedding
    of the pattern into the summary, *some* view has an embedding with the
    same return paths and compatible nesting sequences."""
    summary = pattern.summary

    def strict_returns(facts: PatternFacts) -> list[PatternNode]:
        return [facts.strict.node_by_name(name) for name in facts.return_names]

    rp = strict_returns(pattern)
    prepared = [(view.strict, strict_returns(view), view.embeddings) for view in views]

    for e_p in pattern.embeddings:
        return_paths = tuple(e_p[n].number for n in rp)
        ns_p = [nesting_sequence(pattern.strict, n, e_p) for n in rp]
        matched = False
        for strict_v, rv, embeddings_v in prepared:
            for e_v in embeddings_v:
                if tuple(e_v[n].number for n in rv) != return_paths:
                    continue
                ns_v = [nesting_sequence(strict_v, n, e_v) for n in rv]
                if all(
                    _sequences_compatible(a, b, summary, relax_one_to_one)
                    for a, b in zip(ns_p, ns_v)
                ):
                    matched = True
                    break
            if matched:
                break
        if not matched:
            return False
    return True


def _sequences_compatible(
    seq_a: tuple[int, ...],
    seq_b: tuple[int, ...],
    summary: PathSummary,
    relax_one_to_one: bool,
) -> bool:
    if len(seq_a) != len(seq_b):
        return False
    for num_a, num_b in zip(seq_a, seq_b):
        if num_a == num_b:
            continue
        if not relax_one_to_one:
            return False
        node_a = summary.node_by_number(num_a)
        node_b = summary.node_by_number(num_b)
        if node_a.is_ancestor_of(node_b):
            if not is_one_to_one_chain(node_a, node_b):
                return False
        elif node_b.is_ancestor_of(node_a):
            if not is_one_to_one_chain(node_b, node_a):
                return False
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-canonical-tree coverage
# ---------------------------------------------------------------------------

def _structural_admits(pattern_node: PatternNode, node: CanonNode) -> bool:
    return admits_label(pattern_node, node.label)


def _decorated_admits(pattern_node: PatternNode, node: CanonNode) -> bool:
    if not admits_label(pattern_node, node.label):
        return False
    if pattern_node.value_formula.is_true:
        return True
    return node.formula.implies(pattern_node.value_formula)


def _children(node: CanonNode) -> tuple[CanonNode, ...]:
    return node.children


def _descendants(node: CanonNode, pattern_node: PatternNode) -> Iterator[CanonNode]:
    """The proper descendants of a canonical node in the generic walk's
    order, minus the subtrees whose summary paths hold nothing the pattern
    node admits — their strong closure is never materialised."""
    has_below = node.snode.summary.has_labeled_below
    tag = pattern_node.tag
    if not has_below(node.snode, tag):
        return
    stack = list(node.children)
    while stack:
        candidate = stack.pop()
        yield candidate
        if has_below(candidate.snode, tag):
            stack.extend(candidate.children)


def _matching_assignments(view: PatternFacts, tree: CanonicalTree, admits):
    """Embeddings of the view into the tree whose return tuple equals the
    tree's own return tuple, generated lazily.

    The return-node images are *constrained during the search* (a node
    paired with target ⊥ admits nothing); the optional-embedding rule
    "⊥ only when no match exists" is then re-verified per result against
    the unconstrained admission, with a memoized existence check.

    The search is *target-directed*: a node paired with a tree node, and
    each ancestor above it through non-optional edges, can only sit on
    that node's root path, so its candidates are read off the path rather
    than off a walk of the tree (:func:`iter_embeddings`' ``restrict``).
    Both admissions reject every other candidate, so the assignments and
    their order are those of the unrestricted search.
    """
    targets = dict(zip(view.return_nodes, tree.return_nodes))
    chains = tree.return_chains()
    restrict: dict[PatternNode, tuple[CanonNode, ...]] = {}
    for pattern_node, required in targets.items():
        if required is not None:
            for node in view.pinned_above[pattern_node]:
                restrict.setdefault(node, chains[id(required)])

    def constrained(pattern_node: PatternNode, tree_node) -> bool:
        if pattern_node in targets:
            required = targets[pattern_node]
            return required is tree_node and admits(pattern_node, tree_node)
        return admits(pattern_node, tree_node)

    def guaranteed(pattern_node: PatternNode, node) -> bool:
        if pattern_node in targets:
            required = targets[pattern_node]
            return required is node and _decorated_admits(pattern_node, node)
        return _decorated_admits(pattern_node, node)

    memo: dict = {}
    for assignment in iter_embeddings(
        view.pattern, tree.root, _children, constrained,
        guarantee=guaranteed, descendants=_descendants, restrict=restrict,
    ):
        valid = True
        for pattern_node, required in targets.items():
            if required is not None:
                continue
            if assignment.get(pattern_node) is not None:
                valid = False  # pragma: no cover - blocked by constrained()
                break
            # the ⊥ must be genuine: walk to the nearest mapped ancestor
            # and confirm no real embedding of the ⊥-branch exists there
            walk = pattern_node
            while (
                walk.parent_edge is not None
                and assignment.get(walk.parent_edge.parent) is None
            ):
                walk = walk.parent_edge.parent
            if walk.parent_edge is None:
                continue
            anchor = assignment.get(walk.parent_edge.parent)
            if anchor is not None and subtree_embeddable(
                walk, anchor, _children, guaranteed, memo, _descendants,
                restrict,
            ):
                valid = False
                break
        if valid:
            yield assignment


def _tree_covered(
    tree: CanonicalTree,
    views: Sequence[PatternFacts],
    stats: Optional[SearchStats] = None,
) -> bool:
    """Conditions of Propositions 4.4.1/4.4.2 + the §4.4.2 formula check
    for one canonical tree.  Formula variables are the canonical-tree
    nodes themselves (see :meth:`CanonicalTree.var_formulas`)."""
    phi = tree.var_formulas()
    # Fast existence pass: an embedding whose every node's tree formula
    # implies its pattern formula covers the tree outright (subsumes the
    # var-wise check below and settles e.g. all positive containments).
    for view in views:
        for _assignment in _matching_assignments(view, tree, _decorated_admits):
            return True
    psis: list[dict[int, Formula]] = []
    seen_psis: set[tuple] = set()
    capped = False
    for view in views:
        enumerated = 0
        for assignment in _matching_assignments(view, tree, _structural_admits):
            enumerated += 1
            if enumerated > MAX_PSI_ASSIGNMENTS:
                capped = True
                break
            if not view.constrained:
                return True  # an unconstrained view covers the tree outright
            psi: dict[int, Formula] = {}
            for node, canon in assignment.items():
                if canon is None or node.value_formula.is_true:
                    continue
                existing = psi.get(id(canon), TRUE)
                psi[id(canon)] = existing.conjoin(node.value_formula)
            if not psi:
                return True
            # fast path: φ implies this ψ var-wise ⇒ the tree is covered by
            # this single assignment (the common case, e.g. any positive
            # containment where formulas line up)
            if all(
                phi.get(var, TRUE).implies(formula)
                for var, formula in psi.items()
            ):
                return True
            key = tuple(sorted((k, hash(v)) for k, v in psi.items()))
            if key not in seen_psis:
                seen_psis.add(key)
                psis.append(psi)
    if stats is not None and (capped or len(psis) > MAX_PSI_DISJUNCTS):
        stats.psi_capped += 1
    if not psis:
        return False
    return _implies_disjunction(phi, psis[:MAX_PSI_DISJUNCTS])


def _implies_disjunction(
    phi: dict[int, Formula], psis: list[dict[int, Formula]]
) -> bool:
    """Exact test of ``φ ⇒ ψ_1 ∨ … ∨ ψ_m`` where each side is a
    conjunction of independent one-variable formulas.

    ``φ ∧ ⋀_j ¬ψ_j`` distributes into choice functions: for every way of
    picking one variable per ψ_j, the conjunct is satisfiable iff each
    variable's combined formula is.  The implication holds iff every choice
    is unsatisfiable.
    """
    variable_choices = [list(psi.items()) for psi in psis]
    for choice in itertools.product(*variable_choices):
        per_var: dict[int, Formula] = dict(phi)
        satisfiable = True
        for variable, psi_formula in choice:
            current = per_var.get(variable, TRUE)
            current = current.conjoin(psi_formula.negate())
            per_var[variable] = current
            if current.is_false:
                satisfiable = False
                break
        if satisfiable and all(f.satisfiable() for f in per_var.values()):
            return False
    return True

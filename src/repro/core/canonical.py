"""Canonical models of patterns under summary constraints (thesis §4.3).

Given a pattern ``p`` and a summary ``S``, the canonical model ``mod_S(p)``
is the set of *canonical trees* derived from all embeddings of ``p`` into
``S``: every pattern edge expands into the parent-child chain of summary
labels connecting the images of its endpoints.  Canonical trees are the
exhaustive "worst-case documents" for ``p`` (Proposition 4.3.1): a tuple
belongs to ``p(t)`` for a conforming ``t`` iff some canonical tree embeds
in ``t`` at the right paths.

Supported dialects, composable as in §4.3.2:

* conjunctive patterns — plain trees;
* decorated patterns — canonical nodes carry value formulas (two pattern
  nodes with different formulas mapped to the same summary node yield
  distinct canonical nodes, as the thesis prescribes);
* optional patterns — for each subset F of optional edges, the subtrees
  rooted at the lower ends of F edges are erased, keeping the variant when
  the original pattern still has an embedding into it;
* attribute / nested patterns — handled at the containment layer, over the
  same trees.

A canonical tree is its *chain* nodes (the summary paths the pattern's
edges expand into) plus, under enhanced summaries, the descendants that
strong edges guarantee.  The chain is built eagerly; the strong closure is
materialised under a node only when something asks for that node's
children, so a tree costs its chain, not the summary's strong subtree.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from ..algebra.formulas import TRUE, Formula
from ..summary.enhanced import is_strong_chain
from ..summary.path_summary import PathSummary, SummaryNode
from .xam import CHILD, JOIN, NEST, NEST_OUTER, OUTER, Pattern, PatternNode

__all__ = [
    "CanonNode",
    "CanonicalTree",
    "admits_label",
    "summary_embeddings",
    "canonical_model",
    "path_annotations",
    "is_satisfiable",
    "nesting_sequence",
]


#: serialises strong-closure materialisation: canonical models of views are
#: shared between concurrently preparing threads, and formula variables are
#: node identities, so a node's children must be published exactly once
_CLOSURE_LOCK = threading.Lock()


class CanonNode:
    """A canonical-tree node: one summary path + an optional value formula."""

    __slots__ = ("label", "snode", "formula", "chain", "_children")

    def __init__(self, snode: SummaryNode, formula: Formula = TRUE):
        self.label = snode.label
        self.snode = snode
        self.formula = formula
        #: the children the pattern's own edges put here; fixed once the
        #: tree is built
        self.chain: list[CanonNode] = []
        #: ``chain`` + the strong closure, once asked for
        self._children: Optional[tuple[CanonNode, ...]] = None

    @property
    def summary_number(self) -> int:
        return self.snode.number

    @property
    def children(self) -> tuple["CanonNode", ...]:
        """The chain children, then one fresh node per strong (``+``/``1``)
        summary edge no chain child already takes — any conforming
        document containing this node contains those too.  The full strong
        closure unfolds as the new nodes are asked in turn (bounded by the
        summary's height); a truncated closure would be sound but break
        containment transitivity.  Trees built without strong edges are
        sealed to their chain."""
        children = self._children
        if children is None:
            with _CLOSURE_LOCK:
                children = self._children
                if children is None:
                    taken = {child.snode for child in self.chain}
                    children = self._children = (
                        *self.chain,
                        *(
                            CanonNode(snode)
                            for snode in self.snode.strong_children
                            if snode not in taken
                        ),
                    )
        return children

    def iter_chain(self) -> Iterator["CanonNode"]:
        """This node and the chain nodes below it (no strong closure)."""
        yield self
        for child in self.chain:
            yield from child.iter_chain()

    def iter_subtree(self) -> Iterator["CanonNode"]:
        """The whole subtree, strong closure included (materialising it)."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def structure_key(self) -> tuple:
        """Identity of the chain structure (which determines the closure)."""
        return (
            self.label,
            self.snode.number,
            hash(self.formula),
            tuple(sorted(child.structure_key() for child in self.chain)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        formula = "" if self.formula.is_true else f"[{self.formula!r}]"
        return f"{self.label}#{self.snode.number}{formula}"


class CanonicalTree:
    """One tree of ``mod_S(p)``, with its return tuple.

    ``return_nodes[i]`` is the canonical node realizing the pattern's
    ``i``-th return node (``return_names[i]``), or ``None`` (⊥) when the
    subtree was erased by the optional-edge expansion.
    """

    def __init__(
        self,
        root: CanonNode,
        return_names: list[str],
        node_of: dict[str, Optional[CanonNode]],
    ):
        self.root = root
        self.return_names = return_names
        #: pattern-node name → canonical node (None when erased)
        self.node_of = node_of
        self.return_nodes = tuple(node_of[name] for name in return_names)
        self._var_formulas: Optional[dict[int, Formula]] = None
        self._return_chains: Optional[dict[int, tuple[CanonNode, ...]]] = None

    def seal(self) -> None:
        """Rule the strong closure out: every node's children are its
        chain (the tree of a summary without integrity constraints)."""
        for node in self.root.iter_chain():
            node._children = tuple(node.chain)

    def size(self) -> int:
        return self.root.size() - 1  # the ⊤ root is not a data node

    def return_paths(self) -> tuple[Optional[int], ...]:
        """Summary path numbers of the return tuple (⊥ → ``None``)."""
        return tuple(
            node.snode.number if node is not None else None
            for node in self.return_nodes
        )

    def structure_key(self) -> tuple:
        return (self.root.structure_key(), self.return_paths())

    def return_chains(self) -> dict[int, tuple[CanonNode, ...]]:
        """Per non-⊥ return node (by ``id``), the chain nodes from the root
        down to it, both included: its ancestors, since strong-closure
        nodes only ever hang below the chain.  Built once per tree."""
        chains = self._return_chains
        if chains is None:
            wanted = {id(node) for node in self.return_nodes if node is not None}
            chains = {}
            stack = [(self.root,)]
            while stack:
                path = stack.pop()
                if id(path[-1]) in wanted:
                    chains[id(path[-1])] = path
                stack.extend(path + (child,) for child in path[-1].chain)
            self._return_chains = chains
        return chains

    def var_formulas(self) -> dict[int, Formula]:
        """The formula map ``φ_{t_e}`` of §4.4.2 (read-only; computed once).

        The thesis indexes formulas by summary-node variables under the
        simplifying assumption that canonical trees are S-subtrees; when a
        tree instantiates the same path twice, per-path variables would
        conflate independent document nodes.  We therefore key variables by
        the canonical node itself (``id``), which is exact in all cases.
        Only chain nodes carry formulas.
        """
        if self._var_formulas is None:
            self._var_formulas = {
                id(node): node.formula
                for node in self.root.iter_chain()
                if not node.formula.is_true
            }
        return self._var_formulas


# ---------------------------------------------------------------------------
# Pattern → summary embeddings
# ---------------------------------------------------------------------------

def admits_label(pattern_node: PatternNode, label: str) -> bool:
    """Tag/kind admission against a bare label (summary or canonical-tree
    node).  Wildcards match element labels only."""
    if pattern_node.tag is not None:
        return pattern_node.tag == label
    return not label.startswith("@") and label != "#text"


def _candidates(
    snode: SummaryNode, axis: str, pattern_node: PatternNode
) -> list[SummaryNode]:
    """The summary nodes below ``snode`` along ``axis`` admitting the
    pattern node, in pre-order — read off the summary's indexes."""
    tag = pattern_node.tag
    if axis != CHILD:
        return snode.summary.descendants_labeled(snode, tag)
    if tag is not None:
        child = snode.children.get(tag)
        return [child] if child is not None else []
    return [
        child
        for child in snode.children.values()
        if admits_label(pattern_node, child.label)
    ]


def summary_embeddings(
    pattern: Pattern, summary: PathSummary
) -> list[dict[PatternNode, SummaryNode]]:
    """All embeddings of the pattern into the summary tree (⊤ ↦ the
    summary root), ignoring edge semantics and value formulas."""

    def assign(
        pattern_node: PatternNode, snode: SummaryNode
    ) -> list[dict[PatternNode, SummaryNode]]:
        partials = [{pattern_node: snode}]
        for edge in pattern_node.edges:
            branch: list[dict[PatternNode, SummaryNode]] = []
            for candidate in _candidates(snode, edge.axis, edge.child):
                branch.extend(assign(edge.child, candidate))
            if not branch:
                return []
            partials = [{**a, **b} for a in partials for b in branch]
        return partials

    return assign(pattern.root, summary.root)


def _annotate(
    pattern: Pattern,
    summary: PathSummary,
    optional_free: bool = False,
    valued: bool = False,
) -> Optional[dict[str, set[int]]]:
    """Per pattern-node name, the summary path numbers the node takes in
    some embedding of the pattern into the summary; ``None`` when there is
    no embedding at all.  Decided per (pattern node, summary node) pair —
    whole embeddings are never enumerated.

    By default every edge must be matched (Definition 4.3.1).  With
    ``optional_free``, optional edges need not be: the result bounds from
    above where the node can sit in *any* tree conforming to the summary.
    With ``valued``, decorated nodes only sit on paths that can carry a
    value: exactly the embeddings canonical trees are built from.
    """
    tracks_text = summary.tracks_text
    fits_memo: dict[tuple[PatternNode, SummaryNode], bool] = {}

    def fits(pattern_node: PatternNode, snode: SummaryNode) -> bool:
        key = (pattern_node, snode)
        known = fits_memo.get(key)
        if known is None:
            known = fits_memo[key] = (
                not valued or _can_hold_value(pattern_node, snode, tracks_text)
            ) and all(
                (optional_free and edge.optional)
                or any(
                    fits(edge.child, candidate)
                    for candidate in _candidates(snode, edge.axis, edge.child)
                )
                for edge in pattern_node.edges
            )
        return known

    if not fits(pattern.root, summary.root):
        return None
    found: dict[str, set[int]] = {node.name: set() for node in pattern.nodes()}

    def spread(pattern_node: PatternNode, snode: SummaryNode) -> None:
        for edge in pattern_node.edges:
            reached = found[edge.child.name]
            for candidate in _candidates(snode, edge.axis, edge.child):
                if candidate.number not in reached and fits(edge.child, candidate):
                    reached.add(candidate.number)
                    spread(edge.child, candidate)

    spread(pattern.root, summary.root)
    return found


def path_annotations(
    pattern: Pattern, summary: PathSummary
) -> dict[str, set[int]]:
    """Definition 4.3.1: per pattern-node name, the set of summary path
    numbers it may be embedded onto."""
    return _annotate(pattern, summary) or {
        node.name: set() for node in pattern.nodes()
    }


# ---------------------------------------------------------------------------
# Canonical tree construction
# ---------------------------------------------------------------------------

def _build_tree(
    pattern: Pattern,
    summary: PathSummary,
    embedding: dict[PatternNode, SummaryNode],
    return_names: list[str],
) -> CanonicalTree:
    root = CanonNode(summary.root)
    node_of: dict[str, Optional[CanonNode]] = {pattern.root.name: root}

    def attach(pattern_parent: PatternNode, canon_parent: CanonNode) -> None:
        for edge in pattern_parent.edges:
            chain = summary.chain(
                embedding[pattern_parent], embedding[edge.child]
            )
            anchor = canon_parent
            # chain[0] is the parent's own summary node; each pattern child
            # gets its own fresh chain (Definition in §4.3.1).
            for snode in chain[1:-1]:
                link = CanonNode(snode)
                anchor.chain.append(link)
                anchor = link
            end = CanonNode(chain[-1], edge.child.value_formula)
            anchor.chain.append(end)
            node_of[edge.child.name] = end
            attach(edge.child, end)

    attach(pattern.root, root)
    return CanonicalTree(root, return_names, node_of)


def _strict_copy(pattern: Pattern) -> Pattern:
    """All edges made non-optional (outer → join, nest-outer → nest);
    node names preserved so trees can be related back to the original."""
    clone = pattern.copy()
    for edge in clone.edges():
        if edge.semantics == OUTER:
            edge.semantics = JOIN
        elif edge.semantics == NEST_OUTER:
            edge.semantics = NEST
    return clone


def _optional_edge_names(pattern: Pattern) -> list[str]:
    return [edge.child.name for edge in pattern.edges() if edge.optional]


def _tree_parents(tree: CanonicalTree) -> dict[int, Optional[CanonNode]]:
    parents: dict[int, Optional[CanonNode]] = {id(tree.root): None}
    for walker in tree.root.iter_chain():
        for child in walker.chain:
            parents[id(child)] = walker
    return parents


def _chain_top(
    tree: CanonicalTree,
    pattern: Pattern,
    name: str,
    parents: dict[int, Optional[CanonNode]],
) -> Optional[CanonNode]:
    """The topmost canonical node of the chain realizing the named
    pattern node — the erasure victim.  The *whole chain* is erased, not
    just the subtree at its lower end: leftover chain intermediates would
    claim structure enhanced-summary constraints can rule out."""
    canon = tree.node_of.get(name)
    if canon is None:
        return None
    parent_edge = pattern.node_by_name(name).parent_edge
    assert parent_edge is not None
    parent_canon = tree.node_of.get(parent_edge.parent.name)
    chain_top = canon
    while (
        parents.get(id(chain_top)) is not None
        and parents[id(chain_top)] is not parent_canon
    ):
        chain_top = parents[id(chain_top)]  # type: ignore[assignment]
    return chain_top


def _erased_pattern_nodes(pattern: Pattern, erased_names: frozenset[str]) -> set[str]:
    return {
        below.name
        for name in erased_names
        for below in pattern.node_by_name(name).subtree()
    }


def _skipping_key(
    tree: CanonicalTree,
    pattern: Pattern,
    erased_names: frozenset[str],
    victims: set[int],
) -> tuple:
    """The structure key the erased variant *would* have, computed in one
    walk over the original tree — avoids materializing duplicate copies."""
    erased_pattern_nodes = _erased_pattern_nodes(pattern, erased_names)

    def key(node: CanonNode) -> tuple:
        return (
            node.label,
            node.snode.number,
            hash(node.formula),
            tuple(
                sorted(
                    key(child) for child in node.chain if id(child) not in victims
                )
            ),
        )

    surviving_returns = tuple(
        None
        if (name in erased_pattern_nodes or tree.node_of.get(name) is None)
        else tree.node_of[name].snode.number
        for name in tree.return_names
    )
    return (key(tree.root), surviving_returns)


def _erase_victims(
    tree: CanonicalTree,
    pattern: Pattern,
    erased_names: frozenset[str],
    victims: set[int],
) -> CanonicalTree:
    """Copy ``tree`` without the subtrees rooted at the victim nodes."""
    erased_pattern_nodes = _erased_pattern_nodes(pattern, erased_names)
    remap: dict[int, CanonNode] = {}

    def copy_node(node: CanonNode) -> CanonNode:
        clone = CanonNode(node.snode, node.formula)
        remap[id(node)] = clone
        for child in node.chain:
            if id(child) in victims:
                continue
            clone.chain.append(copy_node(child))
        return clone

    new_root = copy_node(tree.root)
    new_node_of: dict[str, Optional[CanonNode]] = {}
    for name, node in tree.node_of.items():
        if name in erased_pattern_nodes or node is None or id(node) not in remap:
            new_node_of[name] = None
        else:
            new_node_of[name] = remap[id(node)]
    return CanonicalTree(new_root, tree.return_names, new_node_of)


def canonical_model(
    pattern: Pattern,
    summary: PathSummary,
    returns: Optional[list[str]] = None,
    use_strong_edges: bool = True,
) -> list[CanonicalTree]:
    """``mod_S(p)``: duplicate-free canonical trees for all embeddings,
    expanded over optional-edge subsets when the pattern has any.

    ``returns`` optionally fixes the return-node order by node names
    (default: the pattern's return nodes in pre-order).

    With ``use_strong_edges`` (default), enhanced-summary integrity
    constraints (§4.2.2) sharpen the model two ways: every canonical tree
    carries the descendants guaranteed by ``+``/``1`` edges (any conforming
    document containing the tree contains them too — see
    :attr:`CanonNode.children`), and optional-edge erasure variants that no
    conforming document can realize (the erased node is structurally
    guaranteed) are dropped.
    """
    strict = _strict_copy(pattern)
    return model_of_embeddings(
        pattern, strict, summary_embeddings(strict, summary), summary,
        returns, use_strong_edges,
    )


def model_of_embeddings(
    pattern: Pattern,
    strict: Pattern,
    embeddings: list[dict[PatternNode, SummaryNode]],
    summary: PathSummary,
    returns: Optional[list[str]] = None,
    use_strong_edges: bool = True,
) -> list[CanonicalTree]:
    """:func:`canonical_model` from the already enumerated embeddings of
    the pattern's strict copy (callers that also need the embeddings
    themselves enumerate once)."""
    if any(node.value_formula.is_false for node in pattern.nodes()):
        return []
    return_names = returns if returns is not None else [
        node.name for node in pattern.return_nodes()
    ]
    trees: list[CanonicalTree] = []
    seen: set[tuple] = set()
    for embedding in embeddings:
        if not _formula_placements_ok(embedding, summary.tracks_text):
            continue
        tree = _build_tree(strict, summary, embedding, return_names)
        key = tree.structure_key()
        if key not in seen:
            seen.add(key)
            trees.append(tree)

    optional_names = _optional_edge_names(pattern)
    if optional_names:
        trees = _expand_optional(trees, pattern, optional_names, use_strong_edges)
    if not use_strong_edges:
        for tree in trees:
            tree.seal()
    return trees


def _expand_optional(
    trees: list[CanonicalTree],
    pattern: Pattern,
    optional_names: list[str],
    use_strong_edges: bool,
) -> list[CanonicalTree]:
    """Per tree and subset F of optional edges, the variant with the
    chains below F erased (duplicate-free)."""
    expanded: list[CanonicalTree] = []
    expanded_seen: set[tuple] = set()
    subsets = _subsets(optional_names)
    for tree in trees:
        parents = _tree_parents(tree)
        tops = {
            name: _chain_top(tree, pattern, name, parents)
            for name in optional_names
        }
        subtree_ids = {
            name: {id(node) for node in top.iter_chain()}
            for name, top in tops.items()
            if top is not None
        }
        seen_victims: set[frozenset] = set()
        for subset in subsets:
            # canonical victim set: chain tops, minus tops already inside
            # another erased chain (nested optional edges collapse)
            present = [n for n in subset if tops.get(n) is not None]
            victims = {
                n
                for n in present
                if not any(
                    other != n and id(tops[n]) in subtree_ids[other]
                    for other in present
                )
            }
            victim_key = frozenset(victims)
            if subset and not victims:
                continue
            if victim_key in seen_victims:
                continue
            seen_victims.add(victim_key)
            if victims:
                if use_strong_edges and _erasure_unrealizable(
                    tree, pattern, tuple(victims)
                ):
                    continue
                victim_ids = {id(tops[n]) for n in victims}
                # compute the variant's key WITHOUT materializing the copy:
                # most subsets collapse onto already-seen structures
                key = _skipping_key(tree, pattern, frozenset(subset), victim_ids)
                if key in expanded_seen:
                    continue
                expanded_seen.add(key)
                # The thesis re-checks p(t_{e,F}) ≠ ∅ because its erasure
                # leaves partial chains behind; whole-chain erasure removes
                # exactly one optional subtree per victim, so the original
                # embedding (victims ↦ ⊥) always survives and the check is
                # a tautology here.
                expanded.append(
                    _erase_victims(tree, pattern, frozenset(subset), victim_ids)
                )
                continue
            key = tree.structure_key()
            if key not in expanded_seen:
                expanded_seen.add(key)
                expanded.append(tree)
    return expanded


def _erasure_unrealizable(
    tree: CanonicalTree, pattern: Pattern, subset: tuple[str, ...]
) -> bool:
    """Whether erasing these optional nodes contradicts the enhanced
    summary: an optional subtree is *guaranteed matchable* below its
    parent's path when a strong chain leads to a node admitting it and all
    its mandatory children are guaranteed in turn — such a subtree can
    never map to ⊥ in a conforming document."""
    for name in subset:
        pattern_node = pattern.node_by_name(name)
        parent_edge = pattern_node.parent_edge
        assert parent_edge is not None
        parent_canon = tree.node_of.get(parent_edge.parent.name)
        if parent_canon is None or parent_canon.snode.number <= 0:
            continue
        if _guaranteed_match(pattern_node, parent_canon.snode):
            return True
    return False


def _guaranteed_match(pattern_node: PatternNode, anchor: SummaryNode) -> bool:
    """Every conforming document node on ``anchor``'s path has a match of
    the subtree rooted at ``pattern_node`` below it (sound, possibly
    incomplete — value formulas are never guaranteed)."""
    if not pattern_node.value_formula.is_true:
        return False
    edge = pattern_node.parent_edge
    assert edge is not None
    for candidate in _candidates(anchor, edge.axis, pattern_node):
        if not is_strong_chain(anchor, candidate):
            continue
        if all(
            child_edge.optional or _guaranteed_match(child_edge.child, candidate)
            for child_edge in pattern_node.edges
        ):
            return True
    return False


def _can_hold_value(
    pattern_node: PatternNode, snode: SummaryNode, tracks_text: bool
) -> bool:
    """A value predicate can only hold where a value can exist: attribute
    paths and element paths with a ``#text`` child.  Only meaningful when
    the summary records text paths at all (summaries built from bare label
    paths carry no value information)."""
    return (
        pattern_node.value_formula.is_true
        or snode.is_attribute
        or not tracks_text
        or "#text" in snode.children
    )


def _formula_placements_ok(
    embedding: dict[PatternNode, SummaryNode], tracks_text: bool
) -> bool:
    """Embeddings placing a decorated node on a valueless path denote
    unrealizable trees."""
    return all(
        _can_hold_value(pattern_node, snode, tracks_text)
        for pattern_node, snode in embedding.items()
    )


def _subsets(names: list[str]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = [()]
    for name in names:
        out.extend([subset + (name,) for subset in out])
    out.sort(key=len)
    return out


def is_satisfiable(pattern: Pattern, summary: PathSummary) -> bool:
    """``p`` is S-satisfiable iff ``mod_S(p)`` is non-empty (§4.3.1)."""
    return (
        not any(node.value_formula.is_false for node in pattern.nodes())
        and _annotate(pattern, summary, valued=True) is not None
    )


# ---------------------------------------------------------------------------
# Nesting sequences (§4.4.5)
# ---------------------------------------------------------------------------

def nesting_sequence(
    pattern: Pattern,
    node: PatternNode,
    embedding: dict[PatternNode, SummaryNode],
) -> tuple[int, ...]:
    """``ns(n, e)``: summary nodes of the ancestors of ``n`` whose edge
    going down towards ``n`` is nested, top-down."""
    chain: list[int] = []
    walk = node
    while walk.parent_edge is not None:
        edge = walk.parent_edge
        if edge.semantics in (NEST, NEST_OUTER):
            chain.append(embedding[edge.parent].number)
        walk = edge.parent
    chain.reverse()
    return tuple(chain)
